// TraceSpan / TraceCollector: per-round phase timing trees
// (docs/ARCHITECTURE.md §9).
//
// Each evaluation round owns one tree rooted at "round"; the engine's phases
// hang off it:
//
//   round -> ingest
//         -> join{between, within, shard[i]}
//         -> postjoin{tighten, shed, expire, translate}
//         -> checkpoint{snapshot, wal}
//
// The collector is single-threaded: spans are created and accumulated only on
// the engine thread (worker-side measurements are summed into task-local
// doubles and attached post-hoc). Re-entering a (parent, name, index) span in
// the same round accumulates into the same node — per-update serial ingest
// becomes one "ingest" span with count == updates.

#ifndef SCUBA_OBS_TRACE_SPAN_H_
#define SCUBA_OBS_TRACE_SPAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace scuba {

struct SpanRecord {
  std::string name;
  int32_t parent = -1;  ///< Index into TraceCollector::spans(); -1 = root.
  int32_t index = -1;   ///< Instance number (e.g. shard id); -1 = none.
  double wall_seconds = 0.0;
  double worker_seconds = 0.0;  ///< Summed task busy time; 0 = serial span.
  uint64_t count = 0;           ///< Times the span was entered this round.
};

class TraceCollector {
 public:
  /// Starts a fresh round tree (drops the previous one) rooted at a "round"
  /// span with id 0.
  void BeginRound(uint64_t round);

  bool active() const { return !spans_.empty(); }
  uint64_t round() const { return round_; }
  int32_t root() const { return spans_.empty() ? -1 : 0; }

  /// Finds or creates the child of `parent` identified by (name, index) and
  /// returns its id. No-op (-1) while no round is active.
  int32_t EnsureSpan(int32_t parent, std::string_view name,
                     int32_t index = -1);

  /// Adds one timed entry into span `id`. Ignored for id < 0.
  void Accumulate(int32_t id, double wall_seconds, double worker_seconds = 0.0,
                  uint64_t count = 1);

  /// Sets the root's wall time to the sum of its direct children (the root
  /// itself is never timed directly). Call once before emitting.
  void FinalizeRoot();

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  uint64_t round_ = 0;
};

/// RAII scoped span: starts timing at construction, accumulates wall (and any
/// worker seconds added) into its collector node at destruction or Stop().
/// A default-constructed or null-collector span is a complete no-op, so
/// instrumented code is unconditional.
class TraceSpan {
 public:
  TraceSpan() = default;
  /// Top-level phase span (child of the round root).
  TraceSpan(TraceCollector* collector, std::string_view name,
            int32_t index = -1);
  /// Nested span (child of `parent`, which must outlive it).
  TraceSpan(TraceSpan& parent, std::string_view name, int32_t index = -1);
  ~TraceSpan() { Stop(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Summed worker busy seconds to attach (parallel phases).
  void AddWorkerSeconds(double seconds) { worker_seconds_ += seconds; }

  /// Stops timing and accumulates into the collector; idempotent.
  void Stop();

  int32_t id() const { return id_; }
  TraceCollector* collector() const { return collector_; }

 private:
  TraceCollector* collector_ = nullptr;
  int32_t id_ = -1;
  double worker_seconds_ = 0.0;
  Stopwatch stopwatch_;
  bool running_ = false;
};

}  // namespace scuba

#endif  // SCUBA_OBS_TRACE_SPAN_H_
