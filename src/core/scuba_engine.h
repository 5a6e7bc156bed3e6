// ScubaEngine: the paper's core contribution (§4, Algorithms 1-3).
//
// Execution has three phases per evaluation interval Delta:
//  1. *Cluster pre-join maintenance*: Ingest*Update routes every arriving
//     location update through the incremental Leader-Follower clusterer,
//     growing/creating/dissolving moving clusters (§3.2).
//  2. *Cluster-based joining* (Evaluate): delegated to ClusterJoinExecutor —
//     the two-step join-between / join-within over the ClusterGrid.
//  3. *Cluster post-join maintenance*: radii are tightened, load shedding is
//     applied, expiring clusters (those passing their destination before the
//     next round) are dissolved, and survivors are relocated along their
//     velocity vectors to their expected position at time T + Delta.
//
// With no load shedding and a 100% per-tick update rate, Evaluate returns
// exactly the same matches as a naive nested-loop join over the latest
// updates (enforced by integration tests).

#ifndef SCUBA_CORE_SCUBA_ENGINE_H_
#define SCUBA_CORE_SCUBA_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "cluster/leader_follower.h"
#include "core/cluster_join.h"
#include "core/engine_snapshot.h"
#include "core/load_shedder.h"
#include "core/query_processor.h"
#include "core/scuba_options.h"
#include "index/grid_index.h"
#include "obs/telemetry.h"

namespace scuba {

struct PersistAccess;  // snapshot serialization back door (src/persist)

/// Outcome of one ScubaEngine::AuditInvariants() pass: what was checked and
/// every divergence found (messages capped at kMaxViolationMessages;
/// violations_total keeps counting past the cap).
struct InvariantAuditReport {
  static constexpr size_t kMaxViolationMessages = 32;

  size_t clusters_checked = 0;
  size_t members_checked = 0;
  size_t grid_keys_checked = 0;
  uint64_t violations_total = 0;
  std::vector<std::string> violations;

  bool clean() const { return violations_total == 0; }
  /// "clean (N clusters, M members)" or the violation list, one per line.
  std::string ToString() const;
};

class ScubaEngine : public QueryProcessor {
 public:
  /// Validates options and builds an engine. The engine is returned by
  /// pointer because internal components hold stable cross-references.
  static Result<std::unique_ptr<ScubaEngine>> Create(const ScubaOptions& options);

  std::string_view name() const override { return "scuba"; }
  Status IngestObjectUpdate(const LocationUpdate& update) override;
  Status IngestQueryUpdate(const QueryUpdate& update) override;
  /// Batched ingest: the per-update path over all objects, then all
  /// queries, so the resulting engine state is bit-identical to the
  /// per-update calls. Unlike them, the whole batch is screened up front
  /// (ScreenEngineBatch): under kStrict an invalid update rejects the batch
  /// before anything is ingested.
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override;
  Status Evaluate(Timestamp now, ResultSet* results) override;
  size_t EstimateMemoryUsage() const override;

  /// The unified stats surface: one immutable aggregate of every counter the
  /// engine and its subsystems maintain (eval + phase + clusterer + join +
  /// shedder + durability/validator counters inside eval). Cheap to call —
  /// a handful of struct copies.
  EngineSnapshotStats StatsSnapshot() const;

  const ClusterStore& store() const { return store_; }
  const GridIndex& cluster_grid() const { return grid_; }
  const LoadShedder& shedder() const { return shedder_; }
  const ScubaOptions& options() const { return options_; }

  /// Current number of moving clusters.
  size_t ClusterCount() const { return store_.ClusterCount(); }

  /// Cross-checks the engine's redundant structures against each other:
  /// store membership vs home table, per-cluster id->index maps, cluster
  /// radii vs reconstructed member positions, and grid-index occupancy vs
  /// each cluster's registered bounds (both directions: every cluster
  /// registered under covering cells, no orphan grid keys). Read-only.
  InvariantAuditReport AuditInvariants() const;

  /// Recovery path: drops the whole cluster grid and re-registers every
  /// stored cluster from scratch (fresh padded bounds). Heals any grid-side
  /// divergence AuditInvariants can detect; store-side corruption (member
  /// maps, home table) is not repairable and keeps failing the audit.
  Status RebuildGridFromStore();

  /// Durability (defined in the persist library; docs/ARCHITECTURE.md §8).
  /// Checkpoint writes one versioned, CRC-protected snapshot of the full
  /// engine state into `dir` (created if needed), atomically (tmp + rename).
  /// Restore loads the newest snapshot in `dir` into this engine, replacing
  /// all cluster/grid/stats state; the snapshot's options fingerprint must
  /// match this engine's options (kFailedPrecondition otherwise), a checksum
  /// mismatch is kDataLoss, an empty dir is kNotFound. Restore does not
  /// replay any WAL — RecoverEngine (persist/durability.h) layers that on.
  Status Checkpoint(const std::string& dir);
  Status Restore(const std::string& dir);

  /// Observability (docs/ARCHITECTURE.md §9): non-null iff
  /// options.telemetry.Enabled(). DurabilityManager and the CLI use it to
  /// attach checkpoint spans and flush round telemetry.
  EngineTelemetry* telemetry() { return telemetry_.get(); }

  /// Flushes the in-flight telemetry round and the final exposition dump;
  /// returns the first telemetry IO error. OK (no-op) when telemetry is off.
  Status FlushTelemetry();

 private:
  friend class ScubaEngineAuditPeer;  ///< Test back door: deliberate desync.
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  ScubaEngine(const ScubaOptions& options, GridIndex grid);

  /// QueryProcessor's polymorphic stats surface (the experiment harness reads
  /// engines through the base interface). Private on the concrete type:
  /// direct ScubaEngine callers use StatsSnapshot() — the deprecated public
  /// forwarding shims (stats/phase_stats/clusterer_stats/join_counters) are
  /// gone after their one release of grace.
  const EvalStats& stats() const override { return stats_; }

  /// Wall-time split of one PostJoinMaintenance call (telemetry only).
  struct PostJoinTimings {
    double tighten_seconds = 0.0;
    double shed_seconds = 0.0;
    double expire_seconds = 0.0;
    double translate_seconds = 0.0;
  };

  /// Phase 3 (see class comment): per-cluster upkeep (tighten, shed,
  /// expiry, translate) in ascending cid order. `*timings` (nullable)
  /// receives the per-sub-step wall split — null skips all extra clock
  /// reads, keeping the telemetry-off path cost-free.
  Status PostJoinMaintenance(Timestamp now, PostJoinTimings* timings);

  /// Splits clusters whose radius deteriorated past the configured bound
  /// (runs inside phase 3 when enable_cluster_splitting is set).
  Status SplitOversizedClusters();

  /// Periodic audit hook (audit_every_n_rounds): audits, and on violations
  /// rebuilds the grid and audits again. Corruption if still dirty — the
  /// divergence is in the store itself and cannot be healed.
  Status AuditAndHeal();

  /// Telemetry setup (Create-time): registers the engine's metrics and the
  /// pre-flush hook that pushes cumulative-counter deltas.
  void InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry);

  /// Pre-flush hook body: pushes the per-round deltas of every semantic
  /// counter (join, clusterer, phase, durability, validator) and refreshes
  /// the gauges. Runs on the engine thread.
  void PushTelemetryDeltas();

  /// Opens the telemetry round for the next activity; no-op when off.
  void TelemetryEnsureRound() {
    if (telemetry_ != nullptr) telemetry_->EnsureRound(stats_.evaluations + 1);
  }

  ScubaOptions options_;
  GridIndex grid_;
  ClusterStore store_;
  LeaderFollowerClusterer clusterer_;
  LoadShedder shedder_;
  ClusterJoinExecutor join_executor_;
  EvalStats stats_;
  ScubaPhaseStats phase_stats_;
  /// Pre-join (ingest) wall time accumulated since the last Evaluate.
  double pending_prejoin_seconds_ = 0.0;

  /// Observability (null unless options.telemetry.Enabled()). The handles
  /// are no-op value types, so instrumentation sites stay unconditional.
  std::unique_ptr<EngineTelemetry> telemetry_;
  struct EngineMetrics {
    Counter rounds;
    Counter results;
    Counter join_comparisons;
    Counter join_bounds_checks;
    Counter join_pairs_tested;
    Counter join_pairs_overlapping;
    Counter join_within_single;
    Counter join_within_pair;
    Counter clusters_created;
    Counter members_absorbed;
    Counter members_refreshed;
    Counter members_departed;
    Counter clusters_dissolved_empty;
    Counter members_shed_ingest;
    Counter clusters_dissolved_expired;
    Counter members_shed_maintenance;
    Counter clusters_split;
    Counter updates_quarantined;
    Counter invariant_audits;
    Counter invariant_violations;
    Counter invariant_repairs;
    Counter wal_records;
    Counter wal_bytes;
    Counter wal_fsyncs;
    Counter checkpoints;
    Gauge clusters;
    HistogramMetric join_wall_seconds;
    HistogramMetric ingest_wall_seconds;
    HistogramMetric postjoin_wall_seconds;
  } metrics_;
  /// Cumulative values already pushed into the registry; the pre-flush hook
  /// adds only the delta since the last round.
  struct TelemetryBaseline {
    EvalStats eval;
    ScubaPhaseStats phase;
    ClustererStats clusterer;
    ClusterJoinExecutor::Counters join;
    double join_wall = 0.0;
    double ingest_wall = 0.0;
    double postjoin_wall = 0.0;
  } pushed_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_SCUBA_ENGINE_H_
