// Configuration of the SCUBA engine. Defaults mirror the paper's experimental
// settings (§6.1): Theta_D = 100 spatial units, Theta_S = 10 units/tick,
// a 100x100 ClusterGrid, Delta = 2 time units, no load shedding.

#ifndef SCUBA_CORE_SCUBA_OPTIONS_H_
#define SCUBA_CORE_SCUBA_OPTIONS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gen/update.h"
#include "geometry/rect.h"
#include "obs/telemetry.h"

namespace scuba {

/// What an ingest surface does with an update that fails validation
/// (stream hardening; see docs/ARCHITECTURE.md §7).
enum class BadUpdatePolicy : uint8_t {
  /// Reject the ingest call with the validation error (the historical
  /// behaviour): the stream stops at the first bad tuple.
  kStrict = 0,
  /// Drop the bad tuple, count it under its rejection reason and keep going.
  /// An UpdateValidator additionally retains dropped tuples in its
  /// QuarantineLog dead-letter buffer.
  kQuarantine,
  /// Clamp what is clampable (off-map positions into bounds, negative speed
  /// to zero, regressed timestamps to the batch time) and admit the repaired
  /// tuple; unrepairable tuples (non-finite fields, unknown destinations)
  /// fall back to quarantine. Only an UpdateValidator repairs; engines treat
  /// kRepair like kQuarantine.
  kRepair,
};

/// Stable lowercase name ("strict", "quarantine", "repair").
std::string_view BadUpdatePolicyName(BadUpdatePolicy policy);

/// Parses a policy name; InvalidArgument on anything else.
Result<BadUpdatePolicy> ParseBadUpdatePolicy(std::string_view name);

/// What ScreenEngineBatch lets through. `objects` / `queries` view the
/// caller's spans when the batch is clean (no copy), else the `kept_*`
/// copies.
struct ScreenedBatch {
  std::span<const LocationUpdate> objects;
  std::span<const QueryUpdate> queries;
  uint64_t dropped = 0;  ///< Invalid updates removed from the batch.
  std::vector<LocationUpdate> kept_objects;
  std::vector<QueryUpdate> kept_queries;
};

/// The batch screen in front of every engine's IngestBatch: the whole batch
/// is validated (ValidateUpdate) before anything is ingested. Under kStrict
/// an invalid update rejects the batch with its error. Under the other
/// policies the invalid updates are dropped, so the batch quarantines
/// exactly the tuples the per-update ingest calls would skip.
Status ScreenEngineBatch(std::span<const LocationUpdate> objects,
                         std::span<const QueryUpdate> queries,
                         BadUpdatePolicy policy, ScreenedBatch* out);

/// What a ShardedEngine does with per-shard load observations (see
/// docs/ARCHITECTURE.md §11). Pure observation for now: no mode changes what
/// the engine computes.
enum class RebalanceMode : uint8_t {
  kOff = 0,     ///< Collect per-shard load metrics only.
  /// Additionally log a recommended stripe split whenever the per-shard load
  /// imbalance of a round crosses the advisory threshold.
  kObserve,
};

/// Stable lowercase name ("off", "observe").
std::string_view RebalanceModeName(RebalanceMode mode);

/// Parses a rebalance mode name; InvalidArgument on anything else.
Result<RebalanceMode> ParseRebalanceMode(std::string_view name);

/// What a ShardedEngine round does when one shard's supervised task fails
/// (throws, stalls past the round deadline, or corrupts its state); see
/// docs/ARCHITECTURE.md §13.
enum class ShardFailurePolicy : uint8_t {
  /// Propagate the shard failure as the round's error (the historical
  /// behaviour: one failing shard takes the engine down).
  kFail = 0,
  /// Complete the round in degraded mode — the failed shard contributes its
  /// last-published results and is quarantined — and retry online recovery
  /// between rounds; after max_recovery_attempts failures the shard is
  /// evicted in place and keeps serving its stale slice.
  kDegrade,
  /// Like kDegrade, but after max_recovery_attempts failed recoveries the
  /// evicted shard's stripe is reassigned to its neighbors via the N->M
  /// reshard routing (graceful degradation to one fewer shard).
  kReassign,
};

/// Stable lowercase name ("fail", "degrade", "reassign").
std::string_view ShardFailurePolicyName(ShardFailurePolicy policy);

/// Parses a policy name; InvalidArgument on anything else.
Result<ShardFailurePolicy> ParseShardFailurePolicy(std::string_view name);

/// Shard supervision knobs (ShardedEngine only; docs/ARCHITECTURE.md §13).
/// Like thread counts and telemetry, none of these fields are semantic: a
/// clean run is bit-identical under every setting, so the snapshot options
/// fingerprint excludes them all.
struct ShardSupervisionOptions {
  ShardFailurePolicy on_failure = ShardFailurePolicy::kFail;
  /// Failed recovery attempts before the shard is evicted (kDegrade) or its
  /// stripe reassigned (kReassign).
  uint32_t max_recovery_attempts = 3;
  /// Round-based backoff: after the a-th failed attempt the next one waits
  /// backoff_base_rounds << (a-1) rounds.
  uint32_t backoff_base_rounds = 1;
  /// Wall-clock budget for one shard's join task; a task that finishes past
  /// it counts as stalled and fails the supervised round. 0 (default)
  /// disables the deadline.
  double round_deadline_seconds = 0.0;
  /// Deterministic fault injection (tests / chaos drills). A non-empty spec
  /// ("round:shard:class[,...]") or a positive rate arms the injector; the
  /// seed fixes the rate-based roll sequence.
  uint64_t fault_seed = 0x5C0BA;
  double fault_rate = 0.0;
  std::string fault_spec;

  /// True when fault injection is configured.
  bool FaultsArmed() const { return fault_rate > 0.0 || !fault_spec.empty(); }
  /// True when the engine should build a ShardSupervisor at all: any
  /// non-default failure handling, deadline, or armed injector.
  bool Enabled() const {
    return on_failure != ShardFailurePolicy::kFail ||
           round_deadline_seconds > 0.0 || FaultsArmed();
  }
};

enum class LoadSheddingMode : uint8_t {
  kNone = 0,   ///< Keep every member position (eta = 0).
  kFixed,      ///< Shed with a fixed nucleus fraction eta.
  kAdaptive,   ///< Adjust eta against a memory budget each maintenance round.
};

struct LoadSheddingOptions {
  LoadSheddingMode mode = LoadSheddingMode::kNone;
  /// Nucleus size as a fraction of Theta_D: eta = Theta_N / Theta_D in [0, 1].
  /// eta = 1 is full shedding (the cluster alone represents its members).
  double eta = 0.0;
  /// kAdaptive: shed harder while estimated memory exceeds this budget.
  size_t memory_budget_bytes = 0;
  /// kAdaptive: eta adjustment per maintenance round.
  double eta_step = 0.25;
  /// kAdaptive: relax shedding when memory falls below this fraction of the
  /// budget.
  double relax_fraction = 0.7;
};

/// When and how much durable state a DurabilityManager retains (see
/// docs/ARCHITECTURE.md §8). Orthogonal to query semantics: the checkpoint
/// policy never changes what an engine computes, only what survives a crash.
struct CheckpointPolicy {
  /// Write a snapshot after every N-th completed evaluation round. 0 disables
  /// automatic checkpoints (explicit Checkpoint() / final checkpoints only).
  uint32_t every_n_rounds = 0;
  /// Snapshots retained in the durable directory; older ones (and the WAL
  /// segments no retained snapshot needs) are pruned after each checkpoint.
  uint32_t keep_last_k = 2;
  /// WAL segment rotation threshold, bytes. A record always lands in one
  /// segment; rotation happens between records.
  uint64_t wal_segment_bytes = 1ull << 20;
};

struct ScubaOptions {
  /// Clustering distance threshold Theta_D (spatial units).
  double theta_d = 100.0;
  /// Clustering speed threshold Theta_S (spatial units / tick).
  double theta_s = 10.0;
  /// ClusterGrid granularity: cells per side (paper default 100x100).
  uint32_t grid_cells = 100;
  /// Data space covered by the ClusterGrid.
  Rect region{0.0, 0.0, 10000.0, 10000.0};
  /// Evaluation period Delta, in ticks; used to relocate clusters to their
  /// expected position at the next evaluation (post-join maintenance).
  Timestamp delta = 2;
  /// Ablation: probe all cells within Theta_D when clustering (see
  /// ClustererOptions::probe_theta_d_disk).
  bool probe_theta_d_disk = false;
  /// When true (default), the join-between filter and grid registration use
  /// query-reach-inflated cluster bounds, making the two-step join lossless.
  /// False reproduces the paper's pure member-circle pruning, which can drop
  /// matches whose query rectangle extends past the cluster circle (ablation;
  /// DESIGN.md deviation 4).
  bool query_reach_aware = true;
  /// Padding (spatial units) for lazy ClusterGrid registration: clusters are
  /// registered under padded bounds and re-registered only when they outgrow
  /// them, cutting grid churn on the ingest hot path. 0 re-registers on every
  /// bounds change (the paper's literal behaviour; ablation).
  double grid_sync_padding = 100.0;
  /// Extension (paper future work, §3.1): split clusters whose covering
  /// radius deteriorates past split_radius_factor * theta_d during post-join
  /// maintenance, restoring compactness without waiting for dissolution.
  bool enable_cluster_splitting = false;
  double split_radius_factor = 1.5;
  /// Worker tasks for the cluster-join phase: grid cells are sharded over
  /// this many tasks with per-task result/counter buffers (owner-cell dedup
  /// keeps them coordination-free). 0 = hardware concurrency; 1 (default) =
  /// serial execution on the calling thread, bit-identical to the historical
  /// single-threaded engine. Results are deterministic for every value.
  uint32_t join_threads = 1;
  /// Unused: ingestion and post-join maintenance are serial (phase 1 is
  /// order-sensitive; docs/ARCHITECTURE.md §6). Kept only so existing
  /// callers that still assign it compile; no engine reads it and Validate()
  /// does not check it. Slated for removal.
  uint32_t ingest_threads = 1;
  /// Spatial shards for ShardedEngine execution: the grid's rows are carved
  /// into this many contiguous stripes, each owned by one EngineShard with
  /// its own ClusterStore slice, grid, shedder and join arena
  /// (docs/ARCHITECTURE.md §11). 1 (default) = the single-engine layout.
  /// Ignored by a plain ScubaEngine; results are bit-identical for every
  /// value.
  uint32_t shards = 1;
  /// Per-shard load handling for ShardedEngine runs. kObserve logs
  /// recommended stripe splits from the per-round load imbalance; kOff
  /// (default) only collects the metrics. Never changes results.
  RebalanceMode rebalance = RebalanceMode::kOff;
  /// What the engine's ingest paths do with updates that fail ValidateUpdate.
  /// kStrict (default) keeps the historical reject-the-call behaviour;
  /// kQuarantine/kRepair drop the tuple, bump EvalStats::updates_quarantined
  /// and keep the stream flowing (the degrade-gracefully mode for dirty
  /// production streams).
  BadUpdatePolicy on_bad_update = BadUpdatePolicy::kStrict;
  /// Run AuditInvariants() after every N-th evaluation round and self-heal
  /// grid/store divergence via RebuildGridFromStore(). 0 (default) disables
  /// the continuous audit; 1 audits every round.
  uint32_t audit_every_n_rounds = 0;

  /// Shard fault isolation for ShardedEngine runs (docs/ARCHITECTURE.md §13):
  /// failure policy, recovery retry schedule, round deadline, deterministic
  /// fault injection. Plain ScubaEngine ignores it. Excluded from the
  /// snapshot options fingerprint — a clean run is bit-identical under every
  /// setting.
  ShardSupervisionOptions supervision;

  /// Snapshot cadence / retention for runs with a durable directory attached
  /// (StreamPipeline / ReplayTrace with a DurabilityManager). Ignored — and
  /// harmless — when no durability is wired up.
  CheckpointPolicy checkpoint;

  LoadSheddingOptions shedding;

  /// Observability (docs/ARCHITECTURE.md §9): when Enabled(), the engine
  /// collects metrics and per-round trace spans and, if output paths are
  /// set, appends one JSON line per round. Purely observational — results
  /// and engine state are bit-identical with telemetry on or off, and the
  /// field is excluded from the snapshot options fingerprint.
  TelemetryOptions telemetry;

  /// InvalidArgument when any field is out of range.
  Status Validate() const;
};

}  // namespace scuba

#endif  // SCUBA_CORE_SCUBA_OPTIONS_H_
