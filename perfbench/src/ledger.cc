#include "ledger.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <tuple>
#include <utility>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, const char* parent,
                       uint32_t episode, uint32_t round, uint32_t thread,
                       bool cpu)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.parent = parent;
  span_.episode = episode;
  span_.round = round;
  span_.thread = thread;
  if (cpu) cpu_start_ = ProcessCpuSeconds();
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = Clock::now();
  if (cpu_start_ >= 0.0) span_.cpu_seconds = ProcessCpuSeconds() - cpu_start_;
  log_->Add(span_);
}

namespace {

using Key = std::tuple<uint32_t, uint32_t, std::string>;  // episode, round, name

/// Length of the union of `children` clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<Clock::time_point,
                                            Clock::time_point>> children,
                      Clock::time_point lo, Clock::time_point hi) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  Clock::time_point cursor = lo;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += Seconds(s, e);
    cursor = e;
  }
  return covered;
}

}  // namespace

Ledger::Ledger(const std::vector<const SpanLog*>& logs) {
  for (const SpanLog* log : logs) {
    spans_.insert(spans_.end(), log->spans().begin(), log->spans().end());
  }
  if (!spans_.empty()) {
    origin_ = std::min_element(spans_.begin(), spans_.end(),
                               [](const Span& a, const Span& b) {
                                 return a.start < b.start;
                               })->start;
  }
  // Children grouped by (episode, round, parent name).
  std::map<Key, std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent[0] == '\0') continue;
    children[Key{s.episode, s.round, s.parent}].emplace_back(s.start, s.end);
  }
  for (const Span& s : spans_) {
    const bool is_round = s.parent[0] == '\0';
    const std::string row = is_round ? "other" : s.name;
    const double duration = Seconds(s.start, s.end);
    double covered = 0.0;
    auto it = children.find(Key{s.episode, s.round, s.name});
    if (it != children.end()) covered = CoveredSeconds(it->second, s.start, s.end);
    LayerRow& r = layers_[row];
    // Covered time is clipped to the span, so this only drops rounding.
    r.self_seconds += std::max(0.0, duration - covered);
    r.busy_seconds += duration;
    ++r.spans;
    if (s.cpu_seconds >= 0.0) {
      r.cpu_seconds += s.cpu_seconds;
      r.cpu_wall_seconds += duration;
    }
    if (is_round) {
      ++rounds_;
      wall_seconds_ += duration;
    }
  }
}

const LayerRow& Ledger::layer(const std::string& name) const {
  static const LayerRow kEmpty;
  auto it = layers_.find(name);
  return it == layers_.end() ? kEmpty : it->second;
}

double Ledger::SumError() const {
  if (wall_seconds_ <= 0.0) return 1.0;
  double sum = 0.0;
  for (const auto& [name, row] : layers_) sum += row.self_seconds;
  return std::fabs(sum - wall_seconds_) / wall_seconds_;
}

std::string Ledger::Format() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s %12s %12s %8s %8s\n", "layer",
                "self_s", "ms/round", "share", "spans");
  out += line;
  double sum = 0.0;
  for (const auto& [name, row] : layers_) {
    sum += row.self_seconds;
    std::snprintf(line, sizeof(line), "%-22s %12.6f %12.4f %7.2f%% %8llu\n",
                  name.c_str(), row.self_seconds,
                  rounds_ > 0 ? 1e3 * row.self_seconds / rounds_ : 0.0,
                  wall_seconds_ > 0 ? 100.0 * row.self_seconds / wall_seconds_
                                    : 0.0,
                  static_cast<unsigned long long>(row.spans));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%-22s %12.6f %12.4f   (round wall %.6f s over %llu rounds, "
                "sum error %.3f%%)\n",
                "sum", sum, rounds_ > 0 ? 1e3 * sum / rounds_ : 0.0,
                wall_seconds_, static_cast<unsigned long long>(rounds_),
                100.0 * SumError());
  out += line;
  return out;
}

bool Ledger::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char line[320];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"parent\":\"%s\",\"episode\":%u,"
                  "\"round\":%u,\"thread\":%u,\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"cpu_us\":%.3f}\n",
                  s.name, s.parent, s.episode,
                  s.round, s.thread, 1e6 * Seconds(origin_, s.start),
                  1e6 * Seconds(origin_, s.end),
                  s.cpu_seconds >= 0.0 ? 1e6 * s.cpu_seconds : -1.0);
    out << line;
  }
  return out.good();
}

}  // namespace perfbench
