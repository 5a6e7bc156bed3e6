#include "core/scuba_engine.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "cluster/splitter.h"
#include "common/check.h"
#include "common/stopwatch.h"

namespace scuba {

namespace {

/// Absolute slack for the audit's distance comparisons: it re-derives
/// quantities (radii, coverage) that the engine accumulated incrementally in
/// a different floating-point order.
constexpr double kAuditEps = 1e-6;

void AddViolation(InvariantAuditReport* report, std::string msg) {
  ++report->violations_total;
  if (report->violations.size() < InvariantAuditReport::kMaxViolationMessages) {
    report->violations.push_back(std::move(msg));
  }
}

}  // namespace

std::string InvariantAuditReport::ToString() const {
  if (clean()) {
    return "clean (" + std::to_string(clusters_checked) + " clusters, " +
           std::to_string(members_checked) + " members, " +
           std::to_string(grid_keys_checked) + " grid keys)";
  }
  std::string out = std::to_string(violations_total) + " violation(s):";
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  if (violations_total > violations.size()) {
    out += "\n  ... and " +
           std::to_string(violations_total - violations.size()) + " more";
  }
  return out;
}

Result<std::unique_ptr<ScubaEngine>> ScubaEngine::Create(
    const ScubaOptions& options) {
  SCUBA_RETURN_IF_ERROR(options.Validate());
  Result<GridIndex> grid = GridIndex::Create(options.region, options.grid_cells);
  if (!grid.ok()) return grid.status();
  // Not make_unique: the constructor is private.
  std::unique_ptr<ScubaEngine> engine(
      new ScubaEngine(options, std::move(grid).value()));
  if (options.telemetry.Enabled()) {
    Result<std::unique_ptr<EngineTelemetry>> telemetry =
        EngineTelemetry::Create(options.telemetry, engine->name());
    if (!telemetry.ok()) return telemetry.status();
    engine->InstallTelemetry(std::move(telemetry).value());
  }
  return engine;
}

void ScubaEngine::InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  MetricsRegistry& reg = telemetry_->registry();
  metrics_.rounds =
      reg.RegisterCounter("scuba_rounds_total", "Completed evaluation rounds");
  metrics_.results = reg.RegisterCounter("scuba_results_total",
                                         "Query-object matches produced");
  metrics_.join_comparisons = reg.RegisterCounter(
      "scuba_join_comparisons_total", "Member-level predicate evaluations");
  metrics_.join_bounds_checks = reg.RegisterCounter(
      "scuba_join_bounds_checks_total", "Per-query fine-filter pre-checks");
  metrics_.join_pairs_tested = reg.RegisterCounter(
      "scuba_join_pairs_tested_total", "Join-between cluster-pair tests");
  metrics_.join_pairs_overlapping = reg.RegisterCounter(
      "scuba_join_pairs_overlapping_total", "Join-between positives");
  metrics_.join_within_single = reg.RegisterCounter(
      "scuba_join_within_single_total", "Same-cluster join-within runs");
  metrics_.join_within_pair = reg.RegisterCounter(
      "scuba_join_within_pair_total", "Cross-cluster join-within runs");
  metrics_.clusters_created = reg.RegisterCounter(
      "scuba_clusters_created_total", "Moving clusters created");
  metrics_.members_absorbed = reg.RegisterCounter(
      "scuba_members_absorbed_total", "Members absorbed into clusters");
  metrics_.members_refreshed = reg.RegisterCounter(
      "scuba_members_refreshed_total", "Members refreshed in place");
  metrics_.members_departed = reg.RegisterCounter(
      "scuba_members_departed_total", "Members that left their cluster");
  metrics_.clusters_dissolved_empty = reg.RegisterCounter(
      "scuba_clusters_dissolved_empty_total", "Clusters dissolved empty");
  metrics_.members_shed_ingest = reg.RegisterCounter(
      "scuba_members_shed_ingest_total", "Positions shed at ingest");
  metrics_.clusters_dissolved_expired =
      reg.RegisterCounter("scuba_clusters_dissolved_expired_total",
                          "Clusters dissolved at their destination");
  metrics_.members_shed_maintenance = reg.RegisterCounter(
      "scuba_members_shed_maintenance_total", "Positions shed in maintenance");
  metrics_.clusters_split = reg.RegisterCounter(
      "scuba_clusters_split_total", "Oversized clusters split");
  metrics_.updates_quarantined = reg.RegisterCounter(
      "scuba_updates_quarantined_total", "Updates dropped by validation");
  metrics_.invariant_audits = reg.RegisterCounter(
      "scuba_invariant_audits_total", "Invariant audit passes");
  metrics_.invariant_violations = reg.RegisterCounter(
      "scuba_invariant_violations_total", "Invariant violations found");
  metrics_.invariant_repairs = reg.RegisterCounter(
      "scuba_invariant_repairs_total", "Grid rebuilds that healed an audit");
  metrics_.wal_records = reg.RegisterCounter("scuba_wal_records_total",
                                             "WAL records appended");
  metrics_.wal_bytes =
      reg.RegisterCounter("scuba_wal_bytes_total", "WAL bytes appended");
  metrics_.wal_fsyncs =
      reg.RegisterCounter("scuba_wal_fsyncs_total", "WAL fsync calls");
  metrics_.checkpoints = reg.RegisterCounter("scuba_checkpoints_total",
                                             "Snapshot checkpoints written");
  metrics_.clusters =
      reg.RegisterGauge("scuba_clusters", "Live moving clusters");
  const std::vector<double> kTimeBuckets = {1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0};
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_join_wall_seconds", "Join phase wall time per round",
          kTimeBuckets);
      h.ok()) {
    metrics_.join_wall_seconds = *h;
  }
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_ingest_wall_seconds", "Pre-join ingest wall time per round",
          kTimeBuckets);
      h.ok()) {
    metrics_.ingest_wall_seconds = *h;
  }
  if (Result<HistogramMetric> h = reg.RegisterHistogram(
          "scuba_postjoin_wall_seconds",
          "Post-join maintenance wall time per round", kTimeBuckets);
      h.ok()) {
    metrics_.postjoin_wall_seconds = *h;
  }
  join_executor_.AttachTelemetry(&reg);
  shedder_.AttachMetrics(&reg);
  metrics_.clusters.Set(static_cast<double>(store_.ClusterCount()));
  telemetry_->SetRoundHook([this] { PushTelemetryDeltas(); });
}

void ScubaEngine::PushTelemetryDeltas() {
  const ClusterJoinExecutor::Counters& join = join_executor_.counters();
  const ClustererStats& clu = clusterer_.stats();
  metrics_.rounds.Increment(stats_.evaluations - pushed_.eval.evaluations);
  metrics_.results.Increment(stats_.total_results -
                             pushed_.eval.total_results);
  metrics_.join_comparisons.Increment(join.comparisons -
                                      pushed_.join.comparisons);
  metrics_.join_bounds_checks.Increment(join.bounds_checks -
                                        pushed_.join.bounds_checks);
  metrics_.join_pairs_tested.Increment(join.pairs_tested -
                                       pushed_.join.pairs_tested);
  metrics_.join_pairs_overlapping.Increment(join.pairs_overlapping -
                                            pushed_.join.pairs_overlapping);
  metrics_.join_within_single.Increment(join.within_joins_single -
                                        pushed_.join.within_joins_single);
  metrics_.join_within_pair.Increment(join.within_joins_pair -
                                      pushed_.join.within_joins_pair);
  metrics_.clusters_created.Increment(clu.clusters_created -
                                      pushed_.clusterer.clusters_created);
  metrics_.members_absorbed.Increment(clu.members_absorbed -
                                      pushed_.clusterer.members_absorbed);
  metrics_.members_refreshed.Increment(clu.members_refreshed -
                                       pushed_.clusterer.members_refreshed);
  metrics_.members_departed.Increment(clu.members_departed -
                                      pushed_.clusterer.members_departed);
  metrics_.clusters_dissolved_empty.Increment(
      clu.clusters_dissolved_empty - pushed_.clusterer.clusters_dissolved_empty);
  metrics_.members_shed_ingest.Increment(clu.members_shed -
                                         pushed_.clusterer.members_shed);
  metrics_.clusters_dissolved_expired.Increment(
      phase_stats_.clusters_dissolved_expired -
      pushed_.phase.clusters_dissolved_expired);
  metrics_.members_shed_maintenance.Increment(
      phase_stats_.members_shed_maintenance -
      pushed_.phase.members_shed_maintenance);
  metrics_.clusters_split.Increment(phase_stats_.clusters_split -
                                    pushed_.phase.clusters_split);
  metrics_.updates_quarantined.Increment(stats_.updates_quarantined -
                                         pushed_.eval.updates_quarantined);
  metrics_.invariant_audits.Increment(stats_.invariant_audits -
                                      pushed_.eval.invariant_audits);
  metrics_.invariant_violations.Increment(stats_.invariant_violations -
                                          pushed_.eval.invariant_violations);
  metrics_.invariant_repairs.Increment(stats_.invariant_repairs -
                                       pushed_.eval.invariant_repairs);
  metrics_.wal_records.Increment(stats_.wal_records_appended -
                                 pushed_.eval.wal_records_appended);
  metrics_.wal_bytes.Increment(stats_.wal_bytes_appended -
                               pushed_.eval.wal_bytes_appended);
  metrics_.wal_fsyncs.Increment(stats_.wal_fsyncs - pushed_.eval.wal_fsyncs);
  metrics_.checkpoints.Increment(stats_.checkpoints_written -
                                 pushed_.eval.checkpoints_written);
  metrics_.clusters.Set(static_cast<double>(store_.ClusterCount()));
  if (stats_.total_join_seconds > pushed_.join_wall) {
    metrics_.join_wall_seconds.Observe(stats_.total_join_seconds -
                                       pushed_.join_wall);
  }
  if (stats_.total_ingest_seconds > pushed_.ingest_wall) {
    metrics_.ingest_wall_seconds.Observe(stats_.total_ingest_seconds -
                                         pushed_.ingest_wall);
  }
  if (stats_.total_postjoin_seconds > pushed_.postjoin_wall) {
    metrics_.postjoin_wall_seconds.Observe(stats_.total_postjoin_seconds -
                                           pushed_.postjoin_wall);
  }
  pushed_.eval = stats_;
  pushed_.phase = phase_stats_;
  pushed_.clusterer = clu;
  pushed_.join = join;
  pushed_.join_wall = stats_.total_join_seconds;
  pushed_.ingest_wall = stats_.total_ingest_seconds;
  pushed_.postjoin_wall = stats_.total_postjoin_seconds;
}

EngineSnapshotStats ScubaEngine::StatsSnapshot() const {
  EngineSnapshotStats snap;
  snap.eval = stats_;
  snap.phase = phase_stats_;
  snap.clusterer = clusterer_.stats();
  snap.join = join_executor_.counters();
  snap.shedder = ShedderSnapshotStats{shedder_.mode(), shedder_.eta(),
                                      shedder_.nucleus_radius(),
                                      shedder_.adjustments()};
  snap.clusters = store_.ClusterCount();
  return snap;
}

Status ScubaEngine::FlushTelemetry() {
  if (telemetry_ == nullptr) return Status::OK();
  return telemetry_->Flush();
}

ScubaEngine::ScubaEngine(const ScubaOptions& options, GridIndex grid)
    : options_(options),
      grid_(std::move(grid)),
      clusterer_(
          ClustererOptions{options.theta_d, options.theta_s,
                           options.probe_theta_d_disk,
                           options.query_reach_aware,
                           options.grid_sync_padding},
          &store_, &grid_),
      shedder_(options.shedding, options.theta_d),
      join_executor_(options.query_reach_aware, options.join_threads) {
  stats_.join_threads = join_executor_.resolved_threads();
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
}

Status ScubaEngine::IngestObjectUpdate(const LocationUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = clusterer_.ProcessObjectUpdate(update);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ScubaEngine::IngestQueryUpdate(const QueryUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = clusterer_.ProcessQueryUpdate(update);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ScubaEngine::IngestBatch(std::span<const LocationUpdate> objects,
                                std::span<const QueryUpdate> queries) {
  ScreenedBatch batch;
  SCUBA_RETURN_IF_ERROR(
      ScreenEngineBatch(objects, queries, options_.on_bad_update, &batch));
  stats_.updates_quarantined += batch.dropped;
  auto ingest = [&]() -> Status {
    for (const LocationUpdate& u : batch.objects) {
      SCUBA_RETURN_IF_ERROR(clusterer_.ProcessObjectUpdate(u));
    }
    for (const QueryUpdate& u : batch.queries) {
      SCUBA_RETURN_IF_ERROR(clusterer_.ProcessQueryUpdate(u));
    }
    return Status::OK();
  };
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = ingest();
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ScubaEngine::Evaluate(Timestamp now, ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  TelemetryEnsureRound();

  // *** Phase 2: cluster-based joining (Algorithm 1, lines 8-21). ***
  // Continuous queries change answers incrementally round to round, so the
  // previous match count pre-sizes this round's merge buffer well.
  results->Reserve(stats_.last_result_count);
  Stopwatch join_sw;
  SCUBA_RETURN_IF_ERROR(join_executor_.Execute(store_, grid_, results));
  stats_.last_join_seconds = join_sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.last_join_worker_seconds = join_executor_.last_worker_seconds();
  stats_.total_join_worker_seconds += stats_.last_join_worker_seconds;
  stats_.last_result_count = results->size();
  stats_.total_results += results->size();
  ++stats_.evaluations;
  const ClusterJoinExecutor::Counters& ctr = join_executor_.counters();
  stats_.comparisons = ctr.comparisons;
  stats_.bounds_checks = ctr.bounds_checks;
  stats_.cluster_pairs_tested = ctr.pairs_tested;
  stats_.cluster_pairs_overlapping = ctr.pairs_overlapping;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    tc.Accumulate(join_span, stats_.last_join_seconds,
                  stats_.last_join_worker_seconds);
    const double within = join_executor_.last_within_seconds();
    tc.Accumulate(
        tc.EnsureSpan(join_span, "between"),
        std::max(0.0, stats_.last_join_worker_seconds - within));
    tc.Accumulate(tc.EnsureSpan(join_span, "within"), within);
    const std::vector<double>& busy = join_executor_.last_task_busy_seconds();
    for (size_t t = 0; t < busy.size(); ++t) {
      tc.Accumulate(tc.EnsureSpan(join_span, "shard", static_cast<int32_t>(t)),
                    busy[t], busy[t]);
    }
  }

  // *** Phase 3: cluster post-join maintenance. ***
  // Both maintenance phases are serial, so their worker time is wall time.
  Stopwatch maint_sw;
  PostJoinTimings postjoin_timings;
  Status s = PostJoinMaintenance(
      now, telemetry_ != nullptr ? &postjoin_timings : nullptr);
  stats_.last_postjoin_seconds = maint_sw.ElapsedSeconds();
  stats_.total_postjoin_seconds += stats_.last_postjoin_seconds;
  stats_.last_postjoin_worker_seconds = stats_.last_postjoin_seconds;
  stats_.total_postjoin_worker_seconds += stats_.last_postjoin_seconds;
  stats_.last_ingest_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_seconds += pending_prejoin_seconds_;
  stats_.last_ingest_worker_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_worker_seconds += pending_prejoin_seconds_;
  stats_.last_maintenance_seconds =
      stats_.last_ingest_seconds + stats_.last_postjoin_seconds;
  stats_.total_maintenance_seconds += stats_.last_maintenance_seconds;
  pending_prejoin_seconds_ = 0.0;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t pj = tc.EnsureSpan(tc.root(), "postjoin");
    tc.Accumulate(pj, stats_.last_postjoin_seconds,
                  stats_.last_postjoin_seconds);
    tc.Accumulate(tc.EnsureSpan(pj, "tighten"),
                  postjoin_timings.tighten_seconds);
    tc.Accumulate(tc.EnsureSpan(pj, "shed"), postjoin_timings.shed_seconds);
    tc.Accumulate(tc.EnsureSpan(pj, "expire"), postjoin_timings.expire_seconds);
    tc.Accumulate(tc.EnsureSpan(pj, "translate"),
                  postjoin_timings.translate_seconds);
  }
  if (s.ok() && options_.audit_every_n_rounds > 0 &&
      stats_.evaluations % options_.audit_every_n_rounds == 0) {
    SCUBA_RETURN_IF_ERROR(AuditAndHeal());
  }
  return s;
}

InvariantAuditReport ScubaEngine::AuditInvariants() const {
  InvariantAuditReport report;
  if (Status s = store_.ValidateConsistency(); !s.ok()) {
    AddViolation(&report, "store: " + s.message());
  }
  std::vector<uint32_t> expected_cells;
  for (ClusterId cid : store_.SortedClusterIds()) {
    const MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    ++report.clusters_checked;
    const std::string tag = "cluster " + std::to_string(cid);
    if (Status s = cluster->ValidateMemberIndex(); !s.ok()) {
      AddViolation(&report, tag + ": " + s.message());
    }
    // Radius invariant: the bounding circle covers every reconstructed
    // member position (shed members reconstruct at the nucleus center).
    for (const ClusterMember& m : cluster->members()) {
      ++report.members_checked;
      const double d = Distance(cluster->centroid(), cluster->MemberPosition(m));
      if (d > cluster->radius() + kAuditEps) {
        AddViolation(&report, tag + ": member (" +
                                 std::to_string(static_cast<int>(m.kind)) +
                                 "," + std::to_string(m.id) + ") lies " +
                                 std::to_string(d - cluster->radius()) +
                                 " outside the radius");
        break;  // one radius violation per cluster is enough signal
      }
    }
    // Grid side: the cluster must be registered, under bounds that cover its
    // (join) bounds, in exactly the cells its registered circle overlaps.
    if (!grid_.Contains(cid)) {
      AddViolation(&report, tag + ": missing from the cluster grid");
      continue;
    }
    const Circle needed =
        options_.query_reach_aware ? cluster->JoinBounds() : cluster->Bounds();
    const Circle& reg = cluster->registered_bounds();
    if (Distance(reg.center, needed.center) + needed.radius >
        reg.radius + kAuditEps) {
      AddViolation(&report,
                   tag + ": registered bounds no longer cover the cluster");
    }
    expected_cells.clear();
    grid_.CellsForCircle(reg, &expected_cells);
    std::sort(expected_cells.begin(), expected_cells.end());
    const std::vector<uint32_t>* actual = grid_.CellsOf(cid);
    SCUBA_CHECK(actual != nullptr);  // grid_.Contains(cid) held above
    std::vector<uint32_t> actual_sorted = *actual;
    std::sort(actual_sorted.begin(), actual_sorted.end());
    if (actual_sorted != expected_cells) {
      AddViolation(&report, tag + ": grid cell placement diverges (" +
                               std::to_string(actual_sorted.size()) +
                               " cells occupied, " +
                               std::to_string(expected_cells.size()) +
                               " expected)");
    }
  }
  // Reverse direction: every grid key must name a live cluster.
  for (uint32_t key : grid_.Keys()) {
    ++report.grid_keys_checked;
    if (store_.GetCluster(key) == nullptr) {
      AddViolation(&report, "grid: orphan key " + std::to_string(key) +
                                " names no stored cluster");
    }
  }
  return report;
}

Status ScubaEngine::RebuildGridFromStore() {
  grid_.Clear();
  for (ClusterId cid : store_.SortedClusterIds()) {
    MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    // Reset the lazy-registration memo so the sync below re-registers from
    // scratch instead of trusting stale bounds.
    cluster->set_registered_bounds(Circle{});
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, cluster,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
  }
  return Status::OK();
}

Status ScubaEngine::AuditAndHeal() {
  ++stats_.invariant_audits;
  const InvariantAuditReport report = AuditInvariants();
  if (report.clean()) return Status::OK();
  stats_.invariant_violations += report.violations_total;
  SCUBA_RETURN_IF_ERROR(RebuildGridFromStore());
  ++stats_.invariant_repairs;
  ++stats_.invariant_audits;
  const InvariantAuditReport recheck = AuditInvariants();
  if (!recheck.clean()) {
    return Status::Corruption(
        "invariant audit still failing after grid rebuild: " +
        recheck.ToString());
  }
  return Status::OK();
}

Status ScubaEngine::SplitOversizedClusters() {
  const double max_radius = options_.split_radius_factor * options_.theta_d;
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  for (ClusterId cid : cids) {
    MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    cluster->RecomputeTightBounds();
    if (!ShouldSplit(*cluster, max_radius)) continue;
    // Allocated in named locals: as function arguments the two calls could
    // run in either order, leaving left/right id assignment unspecified.
    const ClusterId left_id = store_.NextClusterId();
    const ClusterId right_id = store_.NextClusterId();
    Result<SplitResult> split = SplitCluster(*cluster, left_id, right_id);
    if (!split.ok()) continue;  // co-located members etc.: keep as-is
    SCUBA_RETURN_IF_ERROR(grid_.Remove(cid));
    SCUBA_RETURN_IF_ERROR(store_.RemoveCluster(cid));
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, &split->left,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, &split->right,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
    SCUBA_RETURN_IF_ERROR(store_.AddCluster(std::move(split->left)));
    SCUBA_RETURN_IF_ERROR(store_.AddCluster(std::move(split->right)));
    ++phase_stats_.clusters_split;
  }
  return Status::OK();
}

Status ScubaEngine::PostJoinMaintenance(Timestamp now,
                                        PostJoinTimings* timings) {
  if (options_.enable_cluster_splitting) {
    SCUBA_RETURN_IF_ERROR(SplitOversizedClusters());
  }
  // Collect ids first; dissolution mutates the store.
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  const double nucleus = shedder_.nucleus_radius();
  const bool timed = timings != nullptr;
  Stopwatch lap;
  // Takes a member pointer, not `&timings->field`: forming that address
  // while `timings` is null (telemetry off) is undefined behaviour.
  auto take_lap = [&](double PostJoinTimings::*into) {
    if (timed) {
      timings->*into += lap.ElapsedSeconds();
      lap.Start();
    }
  };
  for (ClusterId cid : cids) {
    MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    if (timed) lap.Start();
    cluster->RecomputeTightBounds();
    take_lap(&PostJoinTimings::tighten_seconds);
    if (nucleus > 0.0) {
      phase_stats_.members_shed_maintenance += cluster->ShedPositions(nucleus);
    }
    take_lap(&PostJoinTimings::shed_seconds);
    // Dissolve clusters that pass their destination before the next round
    // (paper: "If at time T + Delta the cluster passes its destination node,
    // the cluster gets dissolved."). Members re-cluster with their next
    // updates.
    Timestamp expiry = cluster->ComputeExpiryTime(now);
    if (expiry <= now + options_.delta) {
      SCUBA_RETURN_IF_ERROR(grid_.Remove(cid));
      SCUBA_RETURN_IF_ERROR(store_.RemoveCluster(cid));
      ++phase_stats_.clusters_dissolved_expired;
      take_lap(&PostJoinTimings::expire_seconds);
      continue;
    }
    take_lap(&PostJoinTimings::expire_seconds);
    // Relocate to the expected position at the next evaluation time.
    cluster->Translate(cluster->Velocity() *
                       static_cast<double>(options_.delta));
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, cluster,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
    take_lap(&PostJoinTimings::translate_seconds);
  }

  // Feed the shedder and propagate the (possibly new) nucleus radius to the
  // ingest path for the next interval.
  shedder_.ObserveMemoryUsage(EstimateMemoryUsage());
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
  return Status::OK();
}

size_t ScubaEngine::EstimateMemoryUsage() const {
  return sizeof(ScubaEngine) + store_.EstimateMemoryUsage() +
         grid_.EstimateMemoryUsage() + join_executor_.EstimateMemoryUsage();
}

}  // namespace scuba
