// Fault-injection harness coverage: the FaultInjector is deterministic, every
// fault class it injects is caught by the UpdateValidator under the mapped
// RejectReason, and — the central hardening property — an engine fed the
// corrupted stream through a quarantining validator ends bit-identical to an
// engine fed the clean reference stream, with a clean invariant audit every
// round.

#include "stream/fault_injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "state_digest.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

constexpr Rect kRegion{0.0, 0.0, 10000.0, 10000.0};

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// A clean multi-round workload every tuple of which is validator-admissible:
/// unique entities per batch, timestamps equal to the batch tick, in-region
/// positions, positive speeds and ranges.
std::vector<Round> MakeCleanRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  const int kGroups = 10;
  struct Entity {
    uint32_t id;
    bool is_query;
    int group;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 150; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, kGroups));
    Point base{600.0 + 800.0 * group, 600.0 + 700.0 * (group % 4)};
    entities.push_back(Entity{i, (i % 3 == 2), group,
                              {base.x + rng.NextDouble(-50, 50),
                               base.y + rng.NextDouble(-50, 50)},
                              rng.NextDouble(40, 180)});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.2) continue;  // stale this tick
      e.pos = {e.pos.x + rng.NextDouble(-20, 20),
               e.pos.y + rng.NextDouble(-20, 20)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 8.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9000, 9000};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 8.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9000, 9000};
        u.attrs = (e.id % 4 == 0) ? 0x3u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

bool SameTuple(const LocationUpdate& a, const LocationUpdate& b) {
  return a.oid == b.oid && a.position == b.position && a.time == b.time &&
         a.speed == b.speed && a.dest_node == b.dest_node &&
         a.dest_position == b.dest_position && a.attrs == b.attrs;
}

bool SameTuple(const QueryUpdate& a, const QueryUpdate& b) {
  return a.qid == b.qid && a.position == b.position && a.time == b.time &&
         a.speed == b.speed && a.dest_node == b.dest_node &&
         a.dest_position == b.dest_position &&
         a.range_width == b.range_width && a.range_height == b.range_height &&
         a.attrs == b.attrs && a.required_attrs == b.required_attrs;
}

void SetProbability(FaultPlan* plan, FaultClass fault, double p) {
  switch (fault) {
    case FaultClass::kCorruptCoordinate: plan->corrupt_coordinate = p; break;
    case FaultClass::kOffMapTeleport: plan->off_map_teleport = p; break;
    case FaultClass::kNegativeSpeed: plan->negative_speed = p; break;
    case FaultClass::kBadRange: plan->bad_range = p; break;
    case FaultClass::kNegativeTimestamp: plan->negative_timestamp = p; break;
    case FaultClass::kStaleTimestamp: plan->stale_timestamp = p; break;
    case FaultClass::kUnknownDestination: plan->unknown_destination = p; break;
    case FaultClass::kDrop: plan->drop = p; break;
    case FaultClass::kDuplicate: plan->duplicate = p; break;
    case FaultClass::kReorder: plan->reorder = p; break;
    case FaultClass::kBurst: plan->burst = p; break;
  }
}

ValidatorConfig QuarantineConfig() {
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.bounds = kRegion;
  config.check_bounds = true;
  return config;
}

TEST(FaultInjectorTest, SameSeedReproducesSameStream) {
  std::vector<Round> rounds = MakeCleanRounds(11, 4);
  FaultPlan plan = FaultPlan::AllFaults(0.2, kRegion, /*node_count=*/50);
  FaultInjector a(plan, /*seed=*/99);
  FaultInjector b(plan, /*seed=*/99);
  for (int r = 0; r < 4; ++r) {
    Round da = rounds[r];
    Round db = rounds[r];
    a.CorruptBatch(r + 1, &da.objects, &da.queries, nullptr, nullptr);
    b.CorruptBatch(r + 1, &db.objects, &db.queries, nullptr, nullptr);
    ASSERT_EQ(da.objects.size(), db.objects.size()) << "round " << r;
    ASSERT_EQ(da.queries.size(), db.queries.size()) << "round " << r;
    for (size_t i = 0; i < da.objects.size(); ++i) {
      // NaN != NaN, so compare the rendered tuples.
      EXPECT_EQ(da.objects[i].ToString(), db.objects[i].ToString());
    }
    for (size_t i = 0; i < da.queries.size(); ++i) {
      EXPECT_EQ(da.queries[i].ToString(), db.queries[i].ToString());
    }
  }
  EXPECT_EQ(a.stats().TotalInjected(), b.stats().TotalInjected());
  for (size_t i = 0; i < kFaultClassCount; ++i) {
    EXPECT_EQ(a.stats().injected[i], b.stats().injected[i]);
  }
}

struct ClassMapping {
  FaultClass fault;
  RejectReason reason;
};

TEST(FaultInjectorTest, EveryTupleFaultClassIsCaughtUnderItsReason) {
  const ClassMapping kMappings[] = {
      {FaultClass::kCorruptCoordinate, RejectReason::kNonFinite},
      {FaultClass::kOffMapTeleport, RejectReason::kOffMap},
      {FaultClass::kNegativeSpeed, RejectReason::kBadSpeed},
      {FaultClass::kBadRange, RejectReason::kBadRange},
      {FaultClass::kNegativeTimestamp, RejectReason::kNegativeTime},
      {FaultClass::kStaleTimestamp, RejectReason::kTimeRegression},
      {FaultClass::kUnknownDestination, RejectReason::kUnknownDestNode},
  };
  std::vector<Round> rounds = MakeCleanRounds(7, 1);
  for (const ClassMapping& m : kMappings) {
    FaultPlan plan;
    plan.region = kRegion;
    SetProbability(&plan, m.fault, 1.0);
    FaultInjector injector(plan, /*seed=*/5);
    Round dirty = rounds[0];
    const size_t objects_in = dirty.objects.size();
    const size_t queries_in = dirty.queries.size();
    injector.CorruptBatch(/*batch_time=*/1, &dirty.objects, &dirty.queries,
                          nullptr, nullptr);

    UpdateValidator validator(QuarantineConfig());
    ASSERT_TRUE(
        validator.ScreenBatch(1, &dirty.objects, &dirty.queries).ok());
    const uint64_t injected = injector.stats().Injected(m.fault);
    // kBadRange only corrupts queries; every other class hits both kinds.
    const uint64_t expect_injected =
        m.fault == FaultClass::kBadRange ? queries_in
                                         : objects_in + queries_in;
    EXPECT_EQ(injected, expect_injected) << FaultClassName(m.fault);
    EXPECT_EQ(validator.stats().Rejected(m.reason), injected)
        << FaultClassName(m.fault);
    EXPECT_EQ(validator.stats().TotalRejected(), injected)
        << FaultClassName(m.fault) << ": no collateral rejections";
  }
}

TEST(FaultInjectorTest, DropsVanishWithoutValidatorRejections) {
  std::vector<Round> rounds = MakeCleanRounds(3, 1);
  FaultPlan plan;
  plan.drop = 1.0;
  FaultInjector injector(plan, /*seed=*/1);
  Round dirty = rounds[0];
  const size_t total = dirty.objects.size() + dirty.queries.size();
  std::vector<LocationUpdate> ref_objects;
  std::vector<QueryUpdate> ref_queries;
  injector.CorruptBatch(1, &dirty.objects, &dirty.queries, &ref_objects,
                        &ref_queries);
  EXPECT_TRUE(dirty.objects.empty());
  EXPECT_TRUE(dirty.queries.empty());
  EXPECT_TRUE(ref_objects.empty());  // dropped tuples are not admissible
  EXPECT_TRUE(ref_queries.empty());
  EXPECT_EQ(injector.stats().Injected(FaultClass::kDrop), total);
}

TEST(FaultInjectorTest, DuplicatesAndBurstsRejectAsInBatchDuplicates) {
  std::vector<Round> rounds = MakeCleanRounds(13, 1);
  {
    FaultPlan plan;
    plan.duplicate = 1.0;
    FaultInjector injector(plan, /*seed=*/2);
    Round dirty = rounds[0];
    const size_t total = dirty.objects.size() + dirty.queries.size();
    injector.CorruptBatch(1, &dirty.objects, &dirty.queries, nullptr, nullptr);
    EXPECT_EQ(dirty.objects.size() + dirty.queries.size(), 2 * total);
    UpdateValidator validator(QuarantineConfig());
    ASSERT_TRUE(
        validator.ScreenBatch(1, &dirty.objects, &dirty.queries).ok());
    EXPECT_EQ(validator.stats().Rejected(RejectReason::kDuplicateInBatch),
              total);
    EXPECT_EQ(validator.stats().admitted, total);
  }
  {
    FaultPlan plan;
    plan.burst = 1.0;
    plan.burst_size = 5;
    FaultInjector injector(plan, /*seed=*/2);
    Round dirty = rounds[0];
    const size_t total = dirty.objects.size() + dirty.queries.size();
    injector.CorruptBatch(1, &dirty.objects, &dirty.queries, nullptr, nullptr);
    EXPECT_EQ(dirty.objects.size() + dirty.queries.size(), total + 5);
    EXPECT_EQ(injector.stats().Injected(FaultClass::kBurst), 5u);
    UpdateValidator validator(QuarantineConfig());
    ASSERT_TRUE(
        validator.ScreenBatch(1, &dirty.objects, &dirty.queries).ok());
    EXPECT_EQ(validator.stats().Rejected(RejectReason::kDuplicateInBatch), 5u);
    EXPECT_EQ(validator.stats().admitted, total);
  }
}

TEST(FaultInjectorTest, ReorderPermutesWithoutLosingTuples) {
  std::vector<Round> rounds = MakeCleanRounds(17, 1);
  FaultPlan plan;
  plan.reorder = 1.0;
  FaultInjector injector(plan, /*seed=*/4);
  Round dirty = rounds[0];
  const Round original = rounds[0];
  injector.CorruptBatch(1, &dirty.objects, &dirty.queries, nullptr, nullptr);
  EXPECT_EQ(injector.stats().Injected(FaultClass::kReorder), 1u);
  ASSERT_EQ(dirty.objects.size(), original.objects.size());
  auto sorted_ids = [](const std::vector<LocationUpdate>& v) {
    std::vector<uint32_t> ids;
    for (const LocationUpdate& u : v) ids.push_back(u.oid);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(sorted_ids(dirty.objects), sorted_ids(original.objects));
  bool permuted = false;
  for (size_t i = 0; i < dirty.objects.size(); ++i) {
    if (dirty.objects[i].oid != original.objects[i].oid) permuted = true;
  }
  EXPECT_TRUE(permuted);
  // A permutation of unique in-tick tuples is admissible in full.
  UpdateValidator validator(QuarantineConfig());
  ASSERT_TRUE(validator.ScreenBatch(1, &dirty.objects, &dirty.queries).ok());
  EXPECT_EQ(validator.stats().TotalRejected(), 0u);
}

TEST(FaultInjectorTest, ValidatorRecoversExactlyTheReferenceStream) {
  std::vector<Round> rounds = MakeCleanRounds(23, 8);
  FaultPlan plan = FaultPlan::AllFaults(0.15, kRegion, /*node_count=*/0);
  FaultInjector injector(plan, /*seed=*/0xFEED);
  UpdateValidator validator(QuarantineConfig());
  uint64_t dup_injected = 0;
  for (int r = 0; r < 8; ++r) {
    Round dirty = rounds[r];
    std::vector<LocationUpdate> ref_objects;
    std::vector<QueryUpdate> ref_queries;
    injector.CorruptBatch(r + 1, &dirty.objects, &dirty.queries, &ref_objects,
                          &ref_queries);
    ASSERT_TRUE(
        validator.ScreenBatch(r + 1, &dirty.objects, &dirty.queries).ok());
    ASSERT_EQ(dirty.objects.size(), ref_objects.size()) << "round " << r;
    ASSERT_EQ(dirty.queries.size(), ref_queries.size()) << "round " << r;
    for (size_t i = 0; i < ref_objects.size(); ++i) {
      EXPECT_TRUE(SameTuple(dirty.objects[i], ref_objects[i]))
          << "round " << r << " object " << i;
    }
    for (size_t i = 0; i < ref_queries.size(); ++i) {
      EXPECT_TRUE(SameTuple(dirty.queries[i], ref_queries[i]))
          << "round " << r << " query " << i;
    }
  }
  const FaultStats& fs = injector.stats();
  EXPECT_GT(fs.TotalInjected(), 0u);
  // Accounting identity: every injected fault is either rejected by the
  // validator or invisible to it (drops remove the tuple, reorders are a
  // permutation).
  EXPECT_EQ(validator.stats().TotalRejected(),
            fs.TotalInjected() - fs.Injected(FaultClass::kDrop) -
                fs.Injected(FaultClass::kReorder));
  dup_injected = fs.Injected(FaultClass::kDuplicate) +
                 fs.Injected(FaultClass::kBurst);
  EXPECT_EQ(validator.stats().Rejected(RejectReason::kDuplicateInBatch),
            dup_injected);
}

/// Feeds pre-corrupted rounds to an engine under BadUpdatePolicy::kQuarantine,
/// either through the per-update API or through IngestBatch, digesting state
/// after every Evaluate.
std::vector<std::string> RunEngineOnDirty(const std::vector<Round>& dirty,
                                          bool use_batch_api,
                                          uint64_t* quarantined_out) {
  ScubaOptions opt;
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  std::vector<std::string> digests;
  Timestamp now = 0;
  for (const Round& round : dirty) {
    now += 2;
    if (use_batch_api) {
      EXPECT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    } else {
      for (const LocationUpdate& u : round.objects) {
        EXPECT_TRUE(engine->IngestObjectUpdate(u).ok());
      }
      for (const QueryUpdate& u : round.queries) {
        EXPECT_TRUE(engine->IngestQueryUpdate(u).ok());
      }
    }
    ResultSet results;
    EXPECT_TRUE(engine->Evaluate(now, &results).ok());
    digests.push_back(StateDigest(*engine));
  }
  *quarantined_out = engine->StatsSnapshot().eval.updates_quarantined;
  return digests;
}

TEST(FaultInjectionEngineTest, BatchQuarantineMatchesPerUpdatePath) {
  // Corrupt a workload with every fault class, then require the engine-level
  // quarantine path to be bit-identical between the per-update API and
  // IngestBatch.
  std::vector<Round> dirty = MakeCleanRounds(31, 5);
  FaultPlan plan = FaultPlan::AllFaults(0.1, kRegion, /*node_count=*/0);
  FaultInjector injector(plan, /*seed=*/0xD1A7);
  for (size_t r = 0; r < dirty.size(); ++r) {
    injector.CorruptBatch(static_cast<Timestamp>(r + 1), &dirty[r].objects,
                          &dirty[r].queries, nullptr, nullptr);
  }
  uint64_t serial_quarantined = 0;
  std::vector<std::string> serial =
      RunEngineOnDirty(dirty, /*use_batch_api=*/false, &serial_quarantined);
  EXPECT_GT(serial_quarantined, 0u) << "workload must exercise quarantine";
  uint64_t batch_quarantined = 0;
  std::vector<std::string> batch =
      RunEngineOnDirty(dirty, /*use_batch_api=*/true, &batch_quarantined);
  EXPECT_EQ(batch_quarantined, serial_quarantined);
  ASSERT_EQ(batch.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(batch[i], serial[i]) << "round=" << i;
  }
}

TEST(FaultInjectionEngineTest, ScreenedDirtyStreamMatchesCleanRunBitForBit) {
  // The end-to-end hardening property: validator(corrupted stream) drives an
  // engine to the same state and results as the clean reference stream, and
  // the invariant audit stays clean every round along the way.
  std::vector<Round> rounds = MakeCleanRounds(41, 6);
  FaultPlan plan = FaultPlan::AllFaults(0.12, kRegion, /*node_count=*/0);
  FaultInjector injector(plan, /*seed=*/0xC0FFEE);
  UpdateValidator validator(QuarantineConfig());

  ScubaOptions hardened_opt;
  hardened_opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  hardened_opt.audit_every_n_rounds = 1;
  std::unique_ptr<ScubaEngine> hardened =
      std::move(ScubaEngine::Create(hardened_opt).value());
  std::unique_ptr<ScubaEngine> clean =
      std::move(ScubaEngine::Create(ScubaOptions{}).value());

  Timestamp now = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    now += 2;
    Round dirty = rounds[r];
    std::vector<LocationUpdate> ref_objects;
    std::vector<QueryUpdate> ref_queries;
    injector.CorruptBatch(static_cast<Timestamp>(r + 1), &dirty.objects,
                          &dirty.queries, &ref_objects, &ref_queries);
    ASSERT_TRUE(validator
                    .ScreenBatch(static_cast<Timestamp>(r + 1), &dirty.objects,
                                 &dirty.queries)
                    .ok());
    ASSERT_TRUE(hardened->IngestBatch(dirty.objects, dirty.queries).ok());
    ASSERT_TRUE(clean->IngestBatch(ref_objects, ref_queries).ok());
    ResultSet hardened_results;
    ResultSet clean_results;
    ASSERT_TRUE(hardened->Evaluate(now, &hardened_results).ok());
    ASSERT_TRUE(clean->Evaluate(now, &clean_results).ok());
    EXPECT_EQ(hardened_results, clean_results) << "round " << r;
    EXPECT_EQ(StateDigest(*hardened), StateDigest(*clean)) << "round " << r;
  }
  // The validator is strictly stricter than the engine's own screen, so the
  // engine-level quarantine never fires on the screened stream.
  EXPECT_EQ(hardened->StatsSnapshot().eval.updates_quarantined, 0u);
  EXPECT_EQ(hardened->StatsSnapshot().eval.invariant_audits, rounds.size());
  EXPECT_EQ(hardened->StatsSnapshot().eval.invariant_violations, 0u);
  EXPECT_EQ(hardened->StatsSnapshot().eval.invariant_repairs, 0u);
}

TEST(FaultInjectorTest, StatsNameNonzeroClasses) {
  std::vector<Round> rounds = MakeCleanRounds(2, 1);
  FaultPlan plan;
  plan.negative_speed = 1.0;
  FaultInjector injector(plan, /*seed=*/6);
  Round dirty = rounds[0];
  injector.CorruptBatch(1, &dirty.objects, &dirty.queries, nullptr, nullptr);
  const std::string text = injector.stats().ToString();
  EXPECT_NE(text.find("negative-speed="), std::string::npos) << text;
  EXPECT_EQ(text.find("burst="), std::string::npos) << text;
}

}  // namespace
}  // namespace scuba
