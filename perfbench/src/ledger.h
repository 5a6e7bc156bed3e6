// Benchmark-owned tracing: spans recorded around calls into the library,
// kept in memory, turned into a per-layer ledger and written out at the end.
//
// A span names the layer whose call it brackets ("core.ingest"), the episode
// and round it belongs to, and the span it nests under ("round" for the main
// thread's round span, "serve.rtt" for server-thread spans that the sender's
// batch round trip encloses). Server-thread spans are linked to the round
// through the round index the forwarding wrappers keep.
//
// A layer's self time is its span's duration minus the part of that interval
// its child spans cover (children clipped to the parent, overlaps merged).
// The round's own self time is the explicit `other` remainder. Because child
// time that leaks outside its parent or overlaps a sibling is not subtracted,
// the layer self times sum to the round wall only when the children really
// partition their parent; Ledger::SumError measures how far off they are.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Process CPU time (all threads), seconds.
double ProcessCpuSeconds();

struct Span {
  const char* name = "";
  const char* parent = "";  ///< "" for a round span.
  uint32_t episode = 0;
  uint32_t round = 0;
  uint32_t thread = 0;  ///< 0 = main thread, 1 = server loop.
  Clock::time_point start;
  Clock::time_point end;
  double cpu_seconds = -1.0;  ///< Process CPU over the span; < 0 = not taken.
};

/// Spans of one thread. Appended without locking; read only after the
/// recording thread has been joined (or, for the main thread, by itself).
class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Records one span around a scope. `cpu` also samples process CPU time.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* parent,
             uint32_t episode, uint32_t round, uint32_t thread, bool cpu);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  double cpu_start_ = -1.0;
};

struct LayerRow {
  double self_seconds = 0.0;   ///< Summed self time over all rounds.
  double busy_seconds = 0.0;   ///< Summed span durations.
  double cpu_seconds = 0.0;    ///< Summed process CPU (spans that took it).
  double cpu_wall_seconds = 0.0;  ///< Durations of the spans that took CPU.
  uint64_t spans = 0;
};

class Ledger {
 public:
  /// Builds the ledger from every span of every thread.
  explicit Ledger(const std::vector<const SpanLog*>& logs);

  uint64_t rounds() const { return rounds_; }
  double wall_seconds() const { return wall_seconds_; }
  /// Layer rows by name; the round remainder is the row "other".
  const std::map<std::string, LayerRow>& layers() const { return layers_; }
  const LayerRow& layer(const std::string& name) const;
  /// |sum of layer self times - round wall| / round wall.
  double SumError() const;
  /// Human-readable table: one row per layer, with share of round wall.
  std::string Format() const;
  /// Writes every span as one JSON line; false on an IO error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, LayerRow> layers_;
  uint64_t rounds_ = 0;
  double wall_seconds_ = 0.0;
  Clock::time_point origin_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
