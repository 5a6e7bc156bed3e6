// Crash-injected recovery matrix (docs/ARCHITECTURE.md §8): for EVERY
// CrashPoint, at 1 and 4 threads, a run that crashes mid-stream and is then
// recovered (newest readable snapshot + WAL replay) and driven to completion
// produces bit-identical per-round ResultSets and state digests to an
// uninterrupted run — including the replayed rounds themselves. Plus targeted
// coverage: WAL-only recovery (no snapshot yet), cross-thread recovery,
// delta>1 round boundaries, and validator timestamp floors after replay.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "persist/crash.h"
#include "persist/durability.h"
#include "persist/snapshot.h"
#include "state_digest.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

constexpr Rect kRegion{0.0, 0.0, 10000.0, 10000.0};
constexpr int kRounds = 8;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_((fs::current_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  struct Entity {
    uint32_t id;
    bool is_query;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 130; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, 9));
    Point base{650.0 + 850.0 * group, 700.0 + 750.0 * (group % 4)};
    entities.push_back(Entity{i, (i % 4 == 1),
                              {base.x + rng.NextDouble(-55, 55),
                               base.y + rng.NextDouble(-55, 55)},
                              rng.NextDouble(45, 190)});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.15) continue;
      e.pos = {e.pos.x + rng.NextDouble(-22, 22),
               e.pos.y + rng.NextDouble(-22, 22)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 7.0 + (e.id % 6);
        u.dest_node = static_cast<NodeId>(e.id % 4);
        u.dest_position = Point{9200, 9200};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 7.0 + (e.id % 6);
        u.dest_node = static_cast<NodeId>(e.id % 4);
        u.dest_position = Point{9200, 9200};
        u.attrs = (e.id % 5 == 0) ? 0x7u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

ScubaOptions MakeOptions(uint32_t threads) {
  ScubaOptions opt;
  opt.join_threads = threads;
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  // Checkpoint every 2 rounds, small segments: one 8-round run exercises
  // rotation, retention pruning and multi-snapshot fallback.
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  opt.checkpoint.wal_segment_bytes = 4096;
  return opt;
}

ValidatorConfig MakeValidatorConfig() {
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.bounds = kRegion;
  config.check_bounds = true;
  return config;
}

std::unique_ptr<ScubaEngine> MakeEngine(const ScubaOptions& opt) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

struct RunLog {
  std::vector<ResultSet> results;  ///< Per evaluated round, in order.
  std::vector<std::string> digests;
};

/// The uninterrupted reference: no durability at all — results and digests
/// depend only on the update stream.
RunLog RunBaseline(const std::vector<Round>& rounds, uint32_t threads) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine(MakeOptions(threads));
  RunLog log;
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    EXPECT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    log.results.push_back(std::move(results));
    log.digests.push_back(StateDigest(*engine));
  }
  return log;
}

/// Runs with durability + an armed CrashInjector until the crash fires, then
/// abandons the engine (a real crash would lose the process memory). Returns
/// how many rounds completed before the crash.
size_t RunUntilCrash(const std::vector<Round>& rounds, uint32_t threads,
                     const std::string& dir, CrashInjector* crash) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine(MakeOptions(threads));
  UpdateValidator validator(MakeValidatorConfig());
  Result<std::unique_ptr<DurabilityManager>> manager = DurabilityManager::Open(
      dir, MakeOptions(threads).checkpoint, engine.get(), &validator,
      /*rng=*/nullptr, crash);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  for (size_t r = 0; r < rounds.size(); ++r) {
    Status s = (*manager)->LogBatch(static_cast<Timestamp>(r + 1),
                                    /*evaluate_after=*/true, rounds[r].objects,
                                    rounds[r].queries);
    if (!s.ok()) {
      EXPECT_TRUE(CrashInjector::IsCrash(s)) << s.ToString();
      return r;  // batch r never acknowledged
    }
    EXPECT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    EXPECT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    s = (*manager)->OnRoundComplete();
    if (!s.ok()) {
      EXPECT_TRUE(CrashInjector::IsCrash(s)) << s.ToString();
      return r + 1;
    }
  }
  return rounds.size();
}

/// Recovers `dir` into a fresh engine, checks every replayed round against
/// the baseline, finishes the remaining rounds (durably, so the recovered
/// process is itself crash-safe) and requires bit-identical results and
/// digests throughout.
void RecoverAndFinish(const std::vector<Round>& rounds, uint32_t threads,
                      const std::string& dir, const RunLog& base,
                      RecoveryReport* report_out = nullptr) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine(MakeOptions(threads));
  UpdateValidator validator(MakeValidatorConfig());
  std::vector<std::pair<Timestamp, ResultSet>> replayed;
  Result<RecoveryReport> report = RecoverEngine(
      dir, engine.get(), &validator, /*rng=*/nullptr,
      [&](Timestamp now, const ResultSet& results) {
        replayed.emplace_back(now, results);
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  if (report_out != nullptr) *report_out = *report;

  // Replayed rounds reproduce the baseline's results for those rounds.
  EXPECT_EQ(replayed.size(), report->rounds_replayed);
  for (const auto& [now, results] : replayed) {
    const size_t r = static_cast<size_t>(now) - 1;
    ASSERT_LT(r, base.results.size());
    EXPECT_EQ(results, base.results[r]) << "replayed round " << r;
  }
  // The recovered state is exactly the baseline's after the covered rounds.
  const size_t covered = static_cast<size_t>(report->next_seq);
  if (covered == 0) {
    EXPECT_EQ(StateDigest(*engine), std::string());
  } else {
    ASSERT_LE(covered, base.digests.size());
    EXPECT_EQ(StateDigest(*engine), base.digests[covered - 1]);
  }
  EXPECT_EQ(engine->StatsSnapshot().eval.evaluations, covered);
  InvariantAuditReport audit = engine->AuditInvariants();
  EXPECT_TRUE(audit.clean()) << audit.ToString();

  Result<std::unique_ptr<DurabilityManager>> manager = DurabilityManager::Open(
      dir, MakeOptions(threads).checkpoint, engine.get(), &validator,
      /*rng=*/nullptr, /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (size_t r = covered; r < rounds.size(); ++r) {
    ASSERT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    EXPECT_EQ(results, base.results[r]) << "post-recovery round " << r;
    EXPECT_EQ(StateDigest(*engine), base.digests[r])
        << "post-recovery round " << r;
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  EXPECT_EQ(StateDigest(*engine), base.digests.back());
}

struct CrashCase {
  CrashPoint point;
  /// Which occurrence fires. WAL points count per-batch appends (8 per run);
  /// snapshot points count checkpoints (one every 2 rounds).
  uint64_t occurrence;
};

TEST(CrashRecoveryTest, EveryCrashPointRecoversBitIdentically) {
  const CrashCase kMatrix[] = {
      {CrashPoint::kBeforeWalAppend, 5},
      {CrashPoint::kMidWalAppend, 5},
      {CrashPoint::kAfterWalAppend, 5},
      {CrashPoint::kBeforeSnapshotWrite, 2},
      {CrashPoint::kMidSnapshotWrite, 2},
      {CrashPoint::kTornSnapshotRename, 2},
      {CrashPoint::kAfterSnapshotWrite, 2},
      {CrashPoint::kAfterWalPrune, 2},
  };
  std::vector<Round> rounds = MakeRounds(0xC4A5, kRounds);
  for (uint32_t threads : {1u, 4u}) {
    RunLog base = RunBaseline(rounds, threads);
    ASSERT_EQ(base.results.size(), static_cast<size_t>(kRounds));
    for (const CrashCase& c : kMatrix) {
      SCOPED_TRACE(std::string(CrashPointName(c.point)) +
                   " threads=" + std::to_string(threads));
      ScopedTempDir dir("crash_recovery_" +
                        std::string(CrashPointName(c.point)) + "_t" +
                        std::to_string(threads));
      CrashInjector crash(c.point, c.occurrence);
      const size_t done = RunUntilCrash(rounds, threads, dir.path(), &crash);
      ASSERT_TRUE(crash.fired()) << "crash point never reached";
      ASSERT_LT(done, static_cast<size_t>(kRounds)) << "crash came too late";

      RecoveryReport report;
      RecoverAndFinish(rounds, threads, dir.path(), base, &report);
      switch (c.point) {
        case CrashPoint::kMidWalAppend:
          EXPECT_TRUE(report.wal_torn_tail);
          break;
        case CrashPoint::kTornSnapshotRename:
          // The torn snapshot was detected (kDataLoss), reported, and the
          // previous checkpoint used as the base instead.
          EXPECT_FALSE(report.data_loss.empty());
          EXPECT_FALSE(report.snapshot_path.empty());
          break;
        default:
          break;
      }
    }
  }
}

TEST(CrashRecoveryTest, WalAloneRecoversWhenFirstSnapshotNeverLanded) {
  std::vector<Round> rounds = MakeRounds(0xBEE, kRounds);
  RunLog base = RunBaseline(rounds, 1);
  ScopedTempDir dir("crash_recovery_wal_only");
  // The very first checkpoint dies mid-write: only an orphaned .tmp and the
  // WAL exist. Recovery must replay the entire log from an empty base.
  CrashInjector crash(CrashPoint::kMidSnapshotWrite, 1);
  const size_t done = RunUntilCrash(rounds, 1, dir.path(), &crash);
  ASSERT_TRUE(crash.fired());
  ASSERT_EQ(done, 2u);  // first checkpoint fires after round 2
  ASSERT_TRUE(ListSnapshots(dir.path())->empty());

  RecoveryReport report;
  RecoverAndFinish(rounds, 1, dir.path(), base, &report);
  EXPECT_TRUE(report.snapshot_path.empty());
  EXPECT_EQ(report.records_replayed, 2u);
}

TEST(CrashRecoveryTest, RecoveryIsPortableAcrossThreadCounts) {
  std::vector<Round> rounds = MakeRounds(0x7EAD, kRounds);
  RunLog base = RunBaseline(rounds, 1);
  ScopedTempDir dir("crash_recovery_cross_thread");
  CrashInjector crash(CrashPoint::kAfterWalAppend, 6);
  const size_t done = RunUntilCrash(rounds, /*threads=*/4, dir.path(), &crash);
  ASSERT_TRUE(crash.fired());
  ASSERT_LT(done, static_cast<size_t>(kRounds));
  // Crash at 4 threads, recover at 1: snapshots exclude thread counts from
  // the fingerprint, and results are bit-identical by the executors'
  // determinism contract.
  RecoverAndFinish(rounds, /*threads=*/1, dir.path(), base);
}

TEST(CrashRecoveryTest, DeltaTwoRoundBoundariesSurviveRecovery) {
  // Batches ingest every tick but rounds evaluate every second batch; the
  // WAL's evaluate_after bit must reproduce the same boundaries on replay,
  // including a crash in the middle of an evaluation window.
  std::vector<Round> rounds = MakeRounds(0xDE17A, kRounds);
  auto evaluate_after = [](size_t i) { return (i + 1) % 2 == 0; };

  std::unique_ptr<ScubaEngine> base_engine = MakeEngine(MakeOptions(1));
  std::vector<ResultSet> base_results;
  std::vector<std::string> base_digests;  // after every batch
  for (size_t r = 0; r < rounds.size(); ++r) {
    ASSERT_TRUE(
        base_engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    if (evaluate_after(r)) {
      ResultSet results;
      ASSERT_TRUE(
          base_engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
      base_results.push_back(std::move(results));
    }
    base_digests.push_back(StateDigest(*base_engine));
  }

  ScopedTempDir dir("crash_recovery_delta2");
  ScubaOptions opt = MakeOptions(1);
  opt.checkpoint.every_n_rounds = 1;  // still only fires at round boundaries
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  CrashInjector crash(CrashPoint::kAfterWalAppend, 5);
  {
    Result<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(dir.path(), opt.checkpoint, engine.get(),
                                /*validator=*/nullptr, /*rng=*/nullptr,
                                &crash);
    ASSERT_TRUE(manager.ok());
    for (size_t r = 0; r < rounds.size(); ++r) {
      Status s = (*manager)->LogBatch(static_cast<Timestamp>(r + 1),
                                      evaluate_after(r), rounds[r].objects,
                                      rounds[r].queries);
      if (!s.ok()) {
        ASSERT_TRUE(CrashInjector::IsCrash(s));
        break;
      }
      ASSERT_TRUE(
          engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      if (evaluate_after(r)) {
        ResultSet results;
        ASSERT_TRUE(
            engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
        ASSERT_TRUE((*manager)->OnRoundComplete().ok());
      }
    }
    ASSERT_TRUE(crash.fired());
  }

  // Batch 4 (an ingest-only, mid-window batch) is durable but was never
  // ingested; recovery must replay it without evaluating.
  std::unique_ptr<ScubaEngine> recovered = MakeEngine(opt);
  std::vector<ResultSet> replayed;
  Result<RecoveryReport> report =
      RecoverEngine(dir.path(), recovered.get(), /*validator=*/nullptr,
                    /*rng=*/nullptr, [&](Timestamp, const ResultSet& results) {
                      replayed.push_back(results);
                    });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->next_seq, 5u);
  EXPECT_EQ(StateDigest(*recovered), base_digests[4]);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], base_results[report->snapshot_rounds + i]);
  }
  // Finish the run: evaluation boundaries continue from the global index.
  size_t eval_index = 2;  // rounds evaluated in batches 0..4: after 1 and 3
  for (size_t r = 5; r < rounds.size(); ++r) {
    ASSERT_TRUE(
        recovered->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    if (evaluate_after(r)) {
      ResultSet results;
      ASSERT_TRUE(
          recovered->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
      EXPECT_EQ(results, base_results[eval_index]) << "evaluation "
                                                   << eval_index;
      ++eval_index;
    }
    EXPECT_EQ(StateDigest(*recovered), base_digests[r]) << "batch " << r;
  }
  EXPECT_EQ(eval_index, base_results.size());
}

TEST(CrashRecoveryTest, ValidatorTimestampFloorsSurviveWalReplay) {
  // With no snapshot at all, the validator's per-entity floors exist only by
  // virtue of NoteAdmitted during WAL replay; a stale tuple that the
  // pre-crash validator would have rejected must still be rejected.
  std::vector<Round> rounds = MakeRounds(0xF100D, 4);
  ScopedTempDir dir("crash_recovery_floors");
  ScubaOptions opt = MakeOptions(1);
  opt.checkpoint.every_n_rounds = 0;  // never checkpoint: WAL is everything
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  UpdateValidator validator(MakeValidatorConfig());
  {
    Result<std::unique_ptr<DurabilityManager>> manager =
        DurabilityManager::Open(dir.path(), opt.checkpoint, engine.get(),
                                &validator, /*rng=*/nullptr, /*crash=*/nullptr);
    ASSERT_TRUE(manager.ok());
    for (size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_TRUE((*manager)
                      ->LogBatch(static_cast<Timestamp>(r + 1), true,
                                 rounds[r].objects, rounds[r].queries)
                      .ok());
      ASSERT_TRUE(
          engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      ResultSet results;
      ASSERT_TRUE(
          engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
      ASSERT_TRUE((*manager)->OnRoundComplete().ok());
    }
  }

  std::unique_ptr<ScubaEngine> recovered = MakeEngine(opt);
  UpdateValidator recovered_validator(MakeValidatorConfig());
  Result<RecoveryReport> report = RecoverEngine(
      dir.path(), recovered.get(), &recovered_validator, /*rng=*/nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_replayed, 4u);

  // Screen at batch_time 0 so only per-entity history can reject: the floors
  // restored by replay must catch the regression, a fresh validator must not.
  ASSERT_FALSE(rounds[3].objects.empty());
  std::vector<LocationUpdate> stale{rounds[3].objects.front()};
  stale.front().time = 1;
  std::vector<QueryUpdate> no_queries;
  std::vector<LocationUpdate> stale_copy = stale;
  ASSERT_TRUE(
      recovered_validator.ScreenBatch(0, &stale, &no_queries).ok());
  EXPECT_TRUE(stale.empty()) << "replayed floor must reject the regression";
  EXPECT_EQ(
      recovered_validator.stats().Rejected(RejectReason::kTimeRegression), 1u);
  UpdateValidator fresh(MakeValidatorConfig());
  ASSERT_TRUE(fresh.ScreenBatch(0, &stale_copy, &no_queries).ok());
  EXPECT_EQ(stale_copy.size(), 1u) << "without history the tuple is clean";
}

}  // namespace
}  // namespace scuba
