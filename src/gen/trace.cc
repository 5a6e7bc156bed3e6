#include "gen/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <system_error>

#include "common/memory_usage.h"

namespace scuba {
namespace {

constexpr std::string_view kHeader = "scuba-trace 1";

// Widest text of each field type: a double at 17 significant digits
// ("-1.2345678901234567e-308") and the decimal integer types.
constexpr size_t kRealWidth = 24;
constexpr size_t kU32Width = 10;
constexpr size_t kI64Width = 20;
constexpr size_t kU64Width = 20;

// Longest line of each record kind: the kind, one separator per field, the
// fields at their widest and the newline.
constexpr size_t kTickLine = 4 + 1 + kI64Width + 1;
constexpr size_t kObjectLine =
    1 + 9 + 2 * kU32Width + 5 * kRealWidth + kI64Width + kU64Width + 1;
constexpr size_t kQueryLine =
    1 + 12 + 2 * kU32Width + 7 * kRealWidth + kI64Width + 2 * kU64Width + 1;

// Field separators. '\r' is one, so CRLF text parses like LF text.
bool IsSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// Builds one record line on the stack, then appends it to the output. Doubles
// are written as printf's "%.17g" writes them (17 significant digits, so
// they parse back to the same bits); non-finite values as nan, -nan, inf
// and -inf.
class LineWriter {
 public:
  explicit LineWriter(std::string_view kind)
      : end_(std::copy(kind.begin(), kind.end(), buf_)) {}

  template <typename IntT>
  LineWriter& Int(IntT v) {
    *end_++ = ' ';
    end_ = std::to_chars(end_, std::end(buf_), v).ptr;
    return *this;
  }

  LineWriter& Real(double v) {
    *end_++ = ' ';
    end_ = std::to_chars(end_, std::end(buf_), v, std::chars_format::general,
                         17)
               .ptr;
    return *this;
  }

  void AppendTo(std::string* out) {
    *end_++ = '\n';
    out->append(buf_, end_);
  }

 private:
  char buf_[kQueryLine];
  char* end_;
};

// Reads the fields of one line left to right. Int and Real each consume one
// separator-delimited field and fail, leaving the output untouched, unless
// the whole field is a value of the output's type.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// True iff only separators are left.
  bool AtEnd() {
    SkipSeparators();
    return p_ == end_;
  }

  /// The next field; empty at the end of the line.
  std::string_view Word() {
    SkipSeparators();
    const char* start = p_;
    while (p_ != end_ && !IsSeparator(*p_)) ++p_;
    return std::string_view(start, static_cast<size_t>(p_ - start));
  }

  /// A decimal integer in the range of IntT; no sign on unsigned types.
  template <typename IntT>
  bool Int(IntT* out) {
    SkipSeparators();
    const std::from_chars_result r = std::from_chars(p_, end_, *out);
    return Consume(r);
  }

  /// A finite decimal double, or exactly one of the spellings Serialize
  /// writes for non-finite values: nan, -nan, inf, -inf.
  bool Real(double* out) {
    SkipSeparators();
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(p_, end_, v);
    if (r.ec == std::errc() && std::isfinite(v)) {
      if (!Consume(r)) return false;
      *out = v;
      return true;
    }
    const std::string_view w = Word();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (w == "nan") {
      *out = kNaN;
    } else if (w == "-nan") {
      *out = std::copysign(kNaN, -1.0);
    } else if (w == "inf") {
      *out = kInf;
    } else if (w == "-inf") {
      *out = -kInf;
    } else {
      return false;
    }
    return true;
  }

 private:
  void SkipSeparators() {
    while (p_ != end_ && IsSeparator(*p_)) ++p_;
  }

  // Accepts a conversion only when it ends exactly at a field boundary.
  bool Consume(const std::from_chars_result& r) {
    if (r.ec != std::errc() || (r.ptr != end_ && !IsSeparator(*r.ptr))) {
      return false;
    }
    p_ = r.ptr;
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

size_t Trace::TotalUpdates() const {
  size_t n = 0;
  for (const TickBatch& b : batches_) {
    n += b.object_updates.size() + b.query_updates.size();
  }
  return n;
}

size_t Trace::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(batches_);
  for (const TickBatch& b : batches_) {
    bytes += VectorMemoryUsage(b.object_updates) +
             VectorMemoryUsage(b.query_updates);
  }
  return bytes;
}

std::string Trace::Serialize() const {
  size_t objects = 0;
  size_t queries = 0;
  for (const TickBatch& b : batches_) {
    objects += b.object_updates.size();
    queries += b.query_updates.size();
  }
  std::string out;
  out.reserve(kHeader.size() + 1 + batches_.size() * kTickLine +
              objects * kObjectLine + queries * kQueryLine);
  out.append(kHeader);
  out.push_back('\n');
  for (const TickBatch& b : batches_) {
    LineWriter("tick").Int(b.time).AppendTo(&out);
    for (const LocationUpdate& u : b.object_updates) {
      LineWriter("o")
          .Int(u.oid)
          .Real(u.position.x)
          .Real(u.position.y)
          .Int(u.time)
          .Real(u.speed)
          .Int(u.dest_node)
          .Real(u.dest_position.x)
          .Real(u.dest_position.y)
          .Int(u.attrs)
          .AppendTo(&out);
    }
    for (const QueryUpdate& u : b.query_updates) {
      LineWriter("q")
          .Int(u.qid)
          .Real(u.position.x)
          .Real(u.position.y)
          .Int(u.time)
          .Real(u.speed)
          .Int(u.dest_node)
          .Real(u.dest_position.x)
          .Real(u.dest_position.y)
          .Real(u.range_width)
          .Real(u.range_height)
          .Int(u.attrs)
          .Int(u.required_attrs)
          .AppendTo(&out);
    }
  }
  return out;
}

Result<Trace> Trace::Parse(std::string_view text) {
  Trace trace;
  size_t line_no = 0;
  auto corrupt = [&line_no](std::string_view what) {
    return Status::Corruption(std::string(what) + " at line " +
                              std::to_string(line_no));
  };
  auto next_line = [&text, &line_no] {
    const size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_no;
    return line;
  };

  const std::string_view header = next_line();
  if (header.substr(0, kHeader.size()) != kHeader ||
      !FieldReader(header.substr(kHeader.size())).AtEnd()) {
    return corrupt("missing 'scuba-trace 1' header");
  }
  while (!text.empty()) {
    FieldReader f(next_line());
    const std::string_view kind = f.Word();
    if (kind == "o") {
      if (trace.batches_.empty()) return corrupt("update before first tick");
      LocationUpdate u;
      if (!(f.Int(&u.oid) && f.Real(&u.position.x) && f.Real(&u.position.y) &&
            f.Int(&u.time) && f.Real(&u.speed) && f.Int(&u.dest_node) &&
            f.Real(&u.dest_position.x) && f.Real(&u.dest_position.y) &&
            f.Int(&u.attrs) && f.AtEnd())) {
        return corrupt("malformed object update");
      }
      trace.batches_.back().object_updates.push_back(u);
    } else if (kind == "q") {
      if (trace.batches_.empty()) return corrupt("update before first tick");
      QueryUpdate u;
      // The trailing required_attrs is optional: older traces omit it.
      if (!(f.Int(&u.qid) && f.Real(&u.position.x) && f.Real(&u.position.y) &&
            f.Int(&u.time) && f.Real(&u.speed) && f.Int(&u.dest_node) &&
            f.Real(&u.dest_position.x) && f.Real(&u.dest_position.y) &&
            f.Real(&u.range_width) && f.Real(&u.range_height) &&
            f.Int(&u.attrs) &&
            (f.AtEnd() || (f.Int(&u.required_attrs) && f.AtEnd())))) {
        return corrupt("malformed query update");
      }
      trace.batches_.back().query_updates.push_back(u);
    } else if (kind == "tick") {
      Timestamp t = 0;
      if (!(f.Int(&t) && f.AtEnd())) return corrupt("malformed tick");
      trace.batches_.emplace_back().time = t;
    } else if (!kind.empty() && kind[0] != '#') {
      return corrupt("unknown record '" + std::string(kind) + "'");
    }
  }
  return trace;
}

Trace RecordTrace(ObjectSimulator* sim, int ticks, double update_fraction) {
  Trace trace;
  for (int i = 0; i < ticks; ++i) {
    sim->Step();
    TickBatch batch;
    batch.time = sim->now();
    sim->EmitUpdates(update_fraction, &batch.object_updates,
                     &batch.query_updates);
    trace.Append(std::move(batch));
  }
  return trace;
}

}  // namespace scuba
