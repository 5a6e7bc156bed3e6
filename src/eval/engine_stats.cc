#include "eval/engine_stats.h"

namespace scuba {

namespace {

// The shims only carry EvalStats; the other snapshot sections stay
// default-initialized, which the methods never read for these figures.
EngineSnapshotStats Wrap(const EvalStats& stats) {
  EngineSnapshotStats snapshot;
  snapshot.eval = stats;
  return snapshot;
}

}  // namespace

std::string FormatStats(std::string_view engine_name, const EvalStats& stats) {
  return Wrap(stats).Format(engine_name);
}

double AvgJoinSeconds(const EvalStats& stats) {
  return Wrap(stats).AvgJoinSeconds();
}

double AvgMaintenanceSeconds(const EvalStats& stats) {
  return Wrap(stats).AvgMaintenanceSeconds();
}

double JoinBetweenSelectivity(const EvalStats& stats) {
  return Wrap(stats).JoinBetweenSelectivity();
}

double JoinParallelSpeedup(const EvalStats& stats) {
  return Wrap(stats).JoinParallelSpeedup();
}

double JoinParallelEfficiency(const EvalStats& stats) {
  return Wrap(stats).JoinParallelEfficiency();
}

}  // namespace scuba
