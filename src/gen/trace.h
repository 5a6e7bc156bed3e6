// Trace: a recorded stream of update batches.
//
// Simulating once and replaying the identical trace into several engines is
// how the harness guarantees an apples-to-apples comparison (SCUBA, the
// regular grid operator and the naive oracle all see the same tuples). Traces
// can also be serialized for regression fixtures.

#ifndef SCUBA_GEN_TRACE_H_
#define SCUBA_GEN_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gen/object_simulator.h"
#include "gen/update.h"

namespace scuba {

/// All updates arriving during one tick.
struct TickBatch {
  Timestamp time = 0;
  std::vector<LocationUpdate> object_updates;
  std::vector<QueryUpdate> query_updates;
};

/// An ordered sequence of tick batches.
class Trace {
 public:
  void Append(TickBatch batch) { batches_.push_back(std::move(batch)); }

  size_t TickCount() const { return batches_.size(); }
  const TickBatch& batch(size_t i) const { return batches_[i]; }
  const std::vector<TickBatch>& batches() const { return batches_; }

  /// Total update tuples across all ticks.
  size_t TotalUpdates() const;

  size_t EstimateMemoryUsage() const;

  /// Line-oriented text serialization (round-trips through Parse, bit for
  /// bit; format in docs/ARCHITECTURE.md §4.1).
  std::string Serialize() const;
  /// Parses Serialize's text. Corruption, naming the line, on a missing or
  /// wrong header, an update before the first tick, a malformed, missing,
  /// out-of-range or extra field, or an unknown record kind.
  static Result<Trace> Parse(std::string_view text);

 private:
  std::vector<TickBatch> batches_;
};

/// Steps `sim` for `ticks` ticks, emitting per-tick batches at the given
/// update fraction. The simulator is advanced in place.
Trace RecordTrace(ObjectSimulator* sim, int ticks, double update_fraction = 1.0);

}  // namespace scuba

#endif  // SCUBA_GEN_TRACE_H_
