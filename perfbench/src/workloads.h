// The four benchmark workloads and what one run of them measures.
//
// Every workload is a closed loop with one sender: a round's batches are
// handed over only after the previous round's results reached every
// consumer. Inputs come from the seed alone and are made before any clock
// starts. An episode runs a fixed number of ticks on a fresh engine; run
// length is fixed per workload because round cost grows with the cluster
// count as a simulation goes on. A run repeats episodes over many
// populations until its time is spent.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts one round's result before it is checked; the run must then
  /// report a failure.
  bool self_check = false;
  /// Scratch directory inside the checkout (durable dirs, span files).
  std::string work_dir;
};

/// One per-layer value (trace runs).
struct LayerMetric {
  double value = 0.0;
  std::string unit;
};

/// Per-round quantities of the paper (§6), sampled after each evaluation.
struct RoundCounts {
  uint32_t round = 0;
  double round_ms = 0.0;
  uint64_t clusters = 0;
  double members_per_cluster = 0.0;
  double pairs_pruned_ratio = 0.0;
  uint64_t comparisons = 0;
  uint64_t results = 0;
};

/// One episode's timings (untraced episodes feed the end-to-end metrics).
struct EpisodeSample {
  uint32_t population = 0;
  bool traced = false;
  double updates_per_s = 0.0;
  std::vector<double> round_ms;
};

struct RunResult {
  std::vector<EpisodeSample> episode_samples;
  std::vector<double> setup_s;   ///< Every set-up of the run.
  std::vector<double> recover_s;  ///< Every untraced recovery.
  /// Per untraced episode: result bytes each consumer received per round,
  /// and per match it received.
  std::vector<double> result_bytes_per_round;
  std::vector<double> result_bytes_per_match;
  double peak_engine_bytes = 0.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure descriptions.

  uint32_t episodes = 0;
  uint32_t rounds_per_episode = 0;
  uint64_t updates_per_episode = 0;
  uint64_t entities = 0;

  std::map<std::string, LayerMetric> layers;
  /// Paper quantities, per round of the run's first episode.
  std::vector<RoundCounts> first_episode_counts;
  std::vector<SpanLog> span_logs;  ///< Trace runs only.

  void Fail(const std::string& what);
};

/// Names of the workloads, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Unknown names fail the run.
RunResult RunWorkload(const RunOptions& options);

/// The episodes whose timings the end-to-end metrics use: within each
/// population, the faster half (rounded up) of its untraced (or traced)
/// episodes. Slowdowns from other tenants of a shared host only ever add
/// time, so the faster half measures the program with far less run-to-run
/// spread than all episodes do.
std::vector<const EpisodeSample*> QuietEpisodes(const RunResult& result,
                                                bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
