// DEPRECATED reporting shims. The real implementations moved to methods on
// EngineSnapshotStats (core/engine_snapshot.h) as part of the unified
// ScubaEngine::StatsSnapshot() surface; these free functions remain for one
// release so out-of-tree callers keep compiling. New code should call the
// methods directly:
//
//   FormatStats(name, stats)      ->  snapshot.Format(name)
//   AvgJoinSeconds(stats)         ->  snapshot.AvgJoinSeconds()
//   JoinParallelSpeedup(stats)    ->  snapshot.JoinParallelSpeedup()   etc.

#ifndef SCUBA_EVAL_ENGINE_STATS_H_
#define SCUBA_EVAL_ENGINE_STATS_H_

#include <string>

#include "core/engine_snapshot.h"
#include "core/query_processor.h"

namespace scuba {

/// One-line summary: join/maintenance seconds, results, comparisons.
std::string FormatStats(std::string_view engine_name, const EvalStats& stats);

/// Average join seconds per evaluation round (0 when no rounds ran).
double AvgJoinSeconds(const EvalStats& stats);

/// Average maintenance seconds per evaluation round.
double AvgMaintenanceSeconds(const EvalStats& stats);

/// Join-between selectivity: fraction of tested cluster pairs that
/// overlapped (SCUBA only; 0 when none tested).
double JoinBetweenSelectivity(const EvalStats& stats);

/// Realized parallel speedup of the join phase: summed worker busy time over
/// join wall time (1.0 = serial, approaches join_threads under perfect
/// scaling; 0 when no join time was recorded).
double JoinParallelSpeedup(const EvalStats& stats);

/// Parallel efficiency in [0, 1]: JoinParallelSpeedup / join_threads.
double JoinParallelEfficiency(const EvalStats& stats);

}  // namespace scuba

#endif  // SCUBA_EVAL_ENGINE_STATS_H_
