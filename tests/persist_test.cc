// Durability unit coverage (docs/ARCHITECTURE.md §8): serializer primitives,
// Crc32 against a bit-at-a-time reference, snapshot round-trips
// (digest-identical restore, clean audit, fingerprint gating, corruption
// detection), the WAL (append/read round-trip, segment rotation, torn-tail
// tolerance, mid-log corruption, reopen, pruning) and golden digests of every
// checksummed format: a type-1 and a type-2 WAL frame, the snapshot file
// framing and a serve kBatch frame. A failing golden means an on-disk or wire
// format moved, and existing durable directories or protocol-v1 peers would
// no longer read it. The end-to-end crash matrix lives in
// crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "common/serializer.h"
#include "persist/snapshot.h"
#include "persist/durability.h"
#include "persist/fsio.h"
#include "persist/wal.h"
#include "serve/protocol.h"
#include "state_digest.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

constexpr Rect kRegion{0.0, 0.0, 10000.0, 10000.0};

/// A self-cleaning directory under the test's working directory (never /tmp:
/// the build tree is the only place tests may write).
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

/// CRC-32/IEEE one bit at a time: no tables, nothing shared with Crc32.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(uint64_t seed, size_t n) {
  std::mt19937_64 gen(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(gen() & 0xFFu);
  return out;
}

std::string Hex(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<uint8_t>(c));
    out += buf;
  }
  return out;
}

uint32_t U32At(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

/// Reads a file with the standard library, independently of persist/fsio.
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Fixed tuples with non-trivial bit patterns in every field.
LocationUpdate GoldenObject() {
  LocationUpdate u;
  u.oid = 4242;
  u.position = Point{1234.5, 987.125};
  u.time = 9;
  u.speed = 7.75;
  u.dest_node = 42;
  u.dest_position = Point{9500.0, 10.0625};
  u.attrs = 0x5u;
  return u;
}

QueryUpdate GoldenQuery() {
  QueryUpdate u;
  u.qid = 77;
  u.position = Point{1250.25, 990.5};
  u.time = 9;
  u.speed = 3.5;
  u.dest_node = 17;
  u.dest_position = Point{20.0, 8800.875};
  u.range_width = 150.0;
  u.range_height = 90.5;
  u.attrs = 0x2u;
  u.required_attrs = 0x4u;
  return u;
}

/// The single segment file a WAL directory holds.
std::string OnlySegmentBytes(const std::string& dir) {
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  EXPECT_TRUE(segments.ok()) << segments.status().ToString();
  if (!segments.ok() || segments->size() != 1) {
    ADD_FAILURE() << "want exactly one WAL segment in " << dir;
    return std::string();
  }
  return Slurp(segments->front().second);
}

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// Clean, validator-admissible multi-round workload (same shape as the fault
/// injection harness uses): clustered entities drifting across the region.
std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  struct Entity {
    uint32_t id;
    bool is_query;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 120; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, 8));
    Point base{700.0 + 900.0 * group, 800.0 + 600.0 * (group % 3)};
    entities.push_back(Entity{i, (i % 4 == 3),
                              {base.x + rng.NextDouble(-60, 60),
                               base.y + rng.NextDouble(-60, 60)},
                              rng.NextDouble(50, 200)});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.15) continue;
      e.pos = {e.pos.x + rng.NextDouble(-25, 25),
               e.pos.y + rng.NextDouble(-25, 25)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 6.0 + (e.id % 7);
        u.dest_node = static_cast<NodeId>(e.id % 5);
        u.dest_position = Point{9500, 9500};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 6.0 + (e.id % 7);
        u.dest_node = static_cast<NodeId>(e.id % 5);
        u.dest_position = Point{9500, 9500};
        u.attrs = (e.id % 3 == 0) ? 0x5u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

std::unique_ptr<ScubaEngine> MakeEngine(const ScubaOptions& opt) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Ingests rounds [from, to) and evaluates after each, collecting results.
void Drive(ScubaEngine* engine, const std::vector<Round>& rounds, int from,
           int to, std::vector<ResultSet>* results_out = nullptr) {
  for (int r = from; r < to; ++r) {
    ASSERT_TRUE(
        engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    if (results_out != nullptr) results_out->push_back(std::move(results));
  }
}

// ---------------------------------------------------------------------------
// Serializer primitives.

TEST(SerializerTest, Crc32MatchesKnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // IEEE 802.3 check value
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

TEST(Crc32Test, MatchesReferenceAtEveryShortLengthAndOffset) {
  const std::string buf = RandomBytes(1, 16 + 300);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view slice = std::string_view(buf).substr(offset, len);
      ASSERT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnLargeRandomBuffers) {
  for (uint64_t seed : {2u, 3u, 4u}) {
    const std::string buf = RandomBytes(seed, size_t{1} << 20);
    EXPECT_EQ(Crc32(buf), ReferenceCrc32(buf)) << "seed " << seed;
  }
}

TEST(Crc32Test, MatchesReferenceOnUniformBytes) {
  for (char fill : {'\0', '\xff', 'a'}) {
    const std::string buf(4099, fill);
    EXPECT_EQ(Crc32(buf), ReferenceCrc32(buf));
  }
}

TEST(SerializerTest, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);  // offset basis
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(SerializerTest, WriterReaderRoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutDouble(-0.1);  // not exactly representable: bit pattern must survive
  w.PutString("hello\0world");
  ByteReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  bool b = false;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
  EXPECT_EQ(d, -0.1);
  EXPECT_EQ(s, "hello");  // string_view literal stops at the NUL
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, ReaderUnderrunIsDataLoss) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  uint64_t v = 0;
  Status s = r.GetU64(&v);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(SerializerTest, OverlongStringLengthIsDataLoss) {
  ByteWriter w;
  w.PutU64(1000);  // declares 1000 bytes, none follow
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsDataLoss());
}

// ---------------------------------------------------------------------------
// Whole-file reads.

TEST(FsioTest, ReadFileToStringReturnsEveryByte) {
  ScopedTempDir dir("persist_test_read_file");
  const std::string path = dir.path() + "/blob";
  std::string blob(200000, '\0');
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>(i * 7);
  ASSERT_TRUE(WriteFileDurably(path, blob).ok());
  Result<std::string> read = ReadFileToString(path, "blob");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, blob);

  ASSERT_TRUE(WriteFileDurably(path, "").ok());
  read = ReadFileToString(path, "blob");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->empty());
}

TEST(FsioTest, ReadFileToStringNamesTheArtifactWhenMissing) {
  ScopedTempDir dir("persist_test_read_missing");
  const std::string path = dir.path() + "/absent";
  Result<std::string> read = ReadFileToString(path, "manifest");
  EXPECT_TRUE(read.status().IsIoError()) << read.status().ToString();
  EXPECT_EQ(read.status().message(), "cannot open manifest: " + path);
}

// ---------------------------------------------------------------------------
// Snapshot round-trips.

TEST(SnapshotTest, RestoreReproducesDigestAndFutureRounds) {
  ScopedTempDir dir("persist_test_roundtrip");
  std::vector<Round> rounds = MakeRounds(91, 10);
  ScubaOptions opt;
  std::unique_ptr<ScubaEngine> original = MakeEngine(opt);
  Drive(original.get(), rounds, 0, 6);
  ASSERT_TRUE(original->Checkpoint(dir.path()).ok());
  EXPECT_EQ(original->StatsSnapshot().eval.checkpoints_written, 1u);
  EXPECT_GT(original->StatsSnapshot().eval.last_checkpoint_bytes, 0u);

  std::unique_ptr<ScubaEngine> restored = MakeEngine(opt);
  ASSERT_TRUE(restored->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*restored), StateDigest(*original));
  EXPECT_EQ(EngineStateHash(*restored), EngineStateHash(*original));
  EXPECT_EQ(restored->StatsSnapshot().eval.evaluations, original->StatsSnapshot().eval.evaluations);
  InvariantAuditReport audit = restored->AuditInvariants();
  EXPECT_TRUE(audit.clean()) << audit.ToString();

  // The restored engine is indistinguishable going forward, too.
  std::vector<ResultSet> original_results;
  std::vector<ResultSet> restored_results;
  Drive(original.get(), rounds, 6, 10, &original_results);
  Drive(restored.get(), rounds, 6, 10, &restored_results);
  ASSERT_EQ(original_results.size(), restored_results.size());
  for (size_t i = 0; i < original_results.size(); ++i) {
    EXPECT_EQ(original_results[i], restored_results[i]) << "round " << i;
  }
  EXPECT_EQ(StateDigest(*restored), StateDigest(*original));
}

TEST(SnapshotTest, SnapshotIsPortableAcrossThreadCounts) {
  ScopedTempDir dir("persist_test_threads");
  std::vector<Round> rounds = MakeRounds(17, 6);
  ScubaOptions serial_opt;
  serial_opt.join_threads = 1;
  std::unique_ptr<ScubaEngine> serial = MakeEngine(serial_opt);
  Drive(serial.get(), rounds, 0, 6);
  ASSERT_TRUE(serial->Checkpoint(dir.path()).ok());

  // Thread counts are excluded from the options fingerprint by contract.
  ScubaOptions parallel_opt;
  parallel_opt.join_threads = 4;
  std::unique_ptr<ScubaEngine> parallel = MakeEngine(parallel_opt);
  ASSERT_TRUE(parallel->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*parallel), StateDigest(*serial));
  // The live engine's thread configuration survives the restore.
  EXPECT_EQ(parallel->StatsSnapshot().eval.join_threads, 4u);
}

TEST(SnapshotTest, RestoreFromEmptyDirIsNotFound) {
  ScopedTempDir dir("persist_test_empty");
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Status s = engine->Restore(dir.path());
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(SnapshotTest, FingerprintMismatchIsFailedPrecondition) {
  ScopedTempDir dir("persist_test_fingerprint");
  std::vector<Round> rounds = MakeRounds(5, 2);
  ScubaOptions opt;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Drive(engine.get(), rounds, 0, 2);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());

  ScubaOptions other = opt;
  other.theta_d *= 2.0;  // semantic option: different fingerprint
  EXPECT_NE(OptionsFingerprint(other), OptionsFingerprint(opt));
  std::unique_ptr<ScubaEngine> wrong = MakeEngine(other);
  Status s = wrong->Restore(dir.path());
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

TEST(SnapshotTest, ThreadCountsDoNotChangeFingerprint) {
  ScubaOptions a;
  ScubaOptions b = a;
  b.join_threads = 8;
  b.checkpoint.every_n_rounds = 3;
  b.checkpoint.keep_last_k = 7;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
}

TEST(SnapshotTest, CorruptedPayloadByteIsDataLoss) {
  ScopedTempDir dir("persist_test_corrupt");
  std::vector<Round> rounds = MakeRounds(29, 3);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 3);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(dir.path());
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 1u);
  const std::string& path = snapshots->front().second;

  // Flip one byte in the middle of the payload: the CRC must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  EXPECT_TRUE(ReadSnapshotPayload(path).status().IsDataLoss());
  std::unique_ptr<ScubaEngine> fresh = MakeEngine(ScubaOptions{});
  Status s = fresh->Restore(dir.path());
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(SnapshotTest, TruncatedFileIsDataLoss) {
  ScopedTempDir dir("persist_test_truncate");
  std::vector<Round> rounds = MakeRounds(37, 3);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 3);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(dir.path());
  ASSERT_TRUE(snapshots.ok());
  const std::string& path = snapshots->front().second;
  fs::resize_file(path, fs::file_size(path) * 2 / 3);
  EXPECT_TRUE(ReadSnapshotPayload(path).status().IsDataLoss());
}

TEST(SnapshotTest, ValidatorStateSurvivesRoundTrip) {
  std::vector<Round> rounds = MakeRounds(53, 4);
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.bounds = kRegion;
  config.check_bounds = true;
  UpdateValidator validator(config);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  for (int r = 0; r < 4; ++r) {
    Round dirty = rounds[r];
    if (r > 0 && !dirty.objects.empty()) {
      dirty.objects.front().time = 1;  // stale: rejected as time regression
    }
    ASSERT_TRUE(validator
                    .ScreenBatch(static_cast<Timestamp>(r + 1), &dirty.objects,
                                 &dirty.queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(dirty.objects, dirty.queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
  }
  ASSERT_GT(validator.stats().TotalRejected(), 0u);

  const std::string payload =
      SerializeEngineSnapshot(*engine, /*wal_next_seq=*/4, &validator,
                              /*rng=*/nullptr);
  std::unique_ptr<ScubaEngine> engine2 = MakeEngine(ScubaOptions{});
  UpdateValidator validator2(config);
  Result<SnapshotMeta> meta =
      ApplySnapshot(payload, engine2.get(), &validator2, /*rng=*/nullptr);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->wal_next_seq, 4u);
  EXPECT_EQ(validator2.stats().screened, validator.stats().screened);
  EXPECT_EQ(validator2.stats().admitted, validator.stats().admitted);
  EXPECT_EQ(validator2.stats().TotalRejected(),
            validator.stats().TotalRejected());
  EXPECT_EQ(validator2.FormatStats(), validator.FormatStats());

  // The restored per-entity timestamp floors reject the same regressions.
  Round stale = rounds[0];
  stale.objects.resize(1);
  stale.queries.clear();
  stale.objects[0].time = 1;  // regression: entity already admitted at time 4
  Round stale2 = stale;
  ASSERT_TRUE(validator.ScreenBatch(5, &stale.objects, &stale.queries).ok());
  ASSERT_TRUE(
      validator2.ScreenBatch(5, &stale2.objects, &stale2.queries).ok());
  EXPECT_EQ(stale.objects.size(), stale2.objects.size());
  EXPECT_EQ(validator.stats().Rejected(RejectReason::kTimeRegression),
            validator2.stats().Rejected(RejectReason::kTimeRegression));
}

TEST(SnapshotTest, RngStateSurvivesRoundTrip) {
  std::vector<Round> rounds = MakeRounds(61, 2);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 2);
  Rng rng(0xABCDEF);
  rng.NextDouble(0, 1);  // advance off the seed state
  rng.NextDouble(0, 1);
  const std::string payload =
      SerializeEngineSnapshot(*engine, 2, /*validator=*/nullptr, &rng);
  const double expected = rng.NextDouble(0, 1);

  std::unique_ptr<ScubaEngine> engine2 = MakeEngine(ScubaOptions{});
  Rng rng2(1);  // different seed; state comes from the snapshot
  ASSERT_TRUE(
      ApplySnapshot(payload, engine2.get(), /*validator=*/nullptr, &rng2)
          .ok());
  EXPECT_EQ(rng2.NextDouble(0, 1), expected);
}

TEST(SnapshotTest, RepeatedCheckpointsOverwriteAtomically) {
  // The bare engine API maintains ONE snapshot per directory (atomic
  // replace); retention of a history of checkpoints is the
  // DurabilityManager's policy (covered below and in crash_recovery_test).
  ScopedTempDir dir("persist_test_overwrite");
  std::vector<Round> rounds = MakeRounds(71, 6);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  for (int r = 0; r < 6; r += 2) {
    Drive(engine.get(), rounds, r, r + 2);
    ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(dir.path());
  ASSERT_TRUE(snapshots.ok());
  EXPECT_EQ(snapshots->size(), 1u);
  EXPECT_EQ(engine->StatsSnapshot().eval.checkpoints_written, 3u);
  // The surviving snapshot is the newest state, not a stale one.
  std::unique_ptr<ScubaEngine> restored = MakeEngine(ScubaOptions{});
  ASSERT_TRUE(restored->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*restored), StateDigest(*engine));
}

TEST(SnapshotTest, ManagerPrunesSnapshotsToKeepLastK) {
  ScopedTempDir dir("persist_test_prune");
  std::vector<Round> rounds = MakeRounds(73, 8);
  ScubaOptions opt;
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Result<std::unique_ptr<DurabilityManager>> manager = DurabilityManager::Open(
      dir.path(), opt.checkpoint, engine.get(), /*validator=*/nullptr,
      /*rng=*/nullptr, /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  // 4 checkpoints written (every 2 rounds), only the newest 2 retained.
  EXPECT_EQ(engine->StatsSnapshot().eval.checkpoints_written, 4u);
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(dir.path());
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 2u);
  EXPECT_EQ(snapshots->front().first, 6u);
  EXPECT_EQ(snapshots->back().first, 8u);
  EXPECT_GT(engine->StatsSnapshot().eval.wal_records_appended, 0u);
}

// ---------------------------------------------------------------------------
// Write-ahead log.

TEST(WalTest, AppendReadRoundTrip) {
  ScopedTempDir dir("persist_test_wal_roundtrip");
  std::vector<Round> rounds = MakeRounds(3, 4);
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir.path(), /*segment_bytes=*/1 << 20,
                        /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int r = 0; r < 4; ++r) {
      ASSERT_TRUE((*writer)
                      ->Append(static_cast<Timestamp>(r + 1), (r + 1) % 2 == 0,
                               rounds[r].objects, rounds[r].queries)
                      .ok());
    }
    EXPECT_EQ((*writer)->next_seq(), 4u);
    EXPECT_EQ((*writer)->stats().records_appended, 4u);
    EXPECT_EQ((*writer)->stats().fsyncs, 4u);
    EXPECT_GT((*writer)->stats().bytes_appended, 0u);
  }
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_FALSE(wal->torn_tail);
  ASSERT_EQ(wal->records.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const WalRecord& record = wal->records[r];
    EXPECT_EQ(record.seq, static_cast<uint64_t>(r));
    EXPECT_EQ(record.batch_time, static_cast<Timestamp>(r + 1));
    EXPECT_EQ(record.evaluate_after, (r + 1) % 2 == 0);
    ASSERT_EQ(record.objects.size(), rounds[r].objects.size());
    ASSERT_EQ(record.queries.size(), rounds[r].queries.size());
    for (size_t i = 0; i < record.objects.size(); ++i) {
      EXPECT_EQ(record.objects[i].ToString(), rounds[r].objects[i].ToString());
    }
    for (size_t i = 0; i < record.queries.size(); ++i) {
      EXPECT_EQ(record.queries[i].ToString(), rounds[r].queries[i].ToString());
    }
  }
}

TEST(WalTest, EmptyDirectoryReadsAsEmptyLog) {
  ScopedTempDir dir("persist_test_wal_empty");
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->records.empty());
  EXPECT_FALSE(wal->torn_tail);
  // A missing directory is also an empty log, not an error.
  Result<WalContents> missing = ReadWal(dir.path() + "/does-not-exist");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
}

TEST(WalTest, SegmentsRotateAndReadInOrder) {
  ScopedTempDir dir("persist_test_wal_rotate");
  std::vector<Round> rounds = MakeRounds(7, 10);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE((*writer)
                    ->Append(static_cast<Timestamp>(r + 1), true,
                             rounds[r].objects, rounds[r].queries)
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  EXPECT_GT(segments->size(), 1u) << "workload must force rotation";
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->records.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(wal->records[i].seq, i);
}

TEST(WalTest, TornTailIsToleratedAndTruncatedOnReopen) {
  ScopedTempDir dir("persist_test_wal_torn");
  std::vector<Round> rounds = MakeRounds(13, 3);
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok());
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE((*writer)
                      ->Append(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                      .ok());
    }
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string& segment = segments->front().second;
  fs::resize_file(segment, fs::file_size(segment) - 7);  // tear the last frame

  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(wal->torn_tail);
  EXPECT_FALSE(wal->torn_detail.empty());
  ASSERT_EQ(wal->records.size(), 2u) << "torn record must not be parsed";

  // Reopening truncates the torn bytes and continues after the last intact
  // record; the log then reads clean.
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(
      dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_seq(), 2u);
  ASSERT_TRUE(
      (*reopened)->Append(3, true, rounds[2].objects, rounds[2].queries).ok());
  Result<WalContents> repaired = ReadWal(dir.path());
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->torn_tail);
  ASSERT_EQ(repaired->records.size(), 3u);
  EXPECT_EQ(repaired->records.back().seq, 2u);
}

TEST(WalTest, MidLogCorruptionIsDataLoss) {
  ScopedTempDir dir("persist_test_wal_midlog");
  std::vector<Round> rounds = MakeRounds(19, 8);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE((*writer)
                    ->Append(static_cast<Timestamp>(r + 1), true,
                             rounds[r].objects, rounds[r].queries)
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 1u);
  // Damage in a NON-final segment is never crash residue: hard kDataLoss.
  const std::string& first = segments->front().second;
  std::fstream f(first, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(first) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x01);
  f.write(&byte, 1);
  f.close();
  Status s = ReadWal(dir.path()).status();
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(WalTest, ReopenContinuesSequence) {
  ScopedTempDir dir("persist_test_wal_reopen");
  std::vector<Round> rounds = MakeRounds(23, 5);
  for (int r = 0; r < 5; ++r) {
    // A fresh writer per record: the seq must continue across reopens.
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->next_seq(), static_cast<uint64_t>(r));
    ASSERT_TRUE((*writer)
                    ->Append(static_cast<Timestamp>(r + 1), true,
                             rounds[r].objects, rounds[r].queries)
                    .ok());
  }
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal->records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(wal->records[i].seq, i);
}

TEST(WalTest, PruneRemovesOnlyFullyCoveredSegments) {
  ScopedTempDir dir("persist_test_wal_prune");
  std::vector<Round> rounds = MakeRounds(31, 12);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE((*writer)
                    ->Append(static_cast<Timestamp>(r + 1), true,
                             rounds[r].objects, rounds[r].queries)
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> before =
      ListWalSegments(dir.path());
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->size(), 2u);
  const uint64_t min_seq = (*before)[before->size() - 1].first;
  Result<size_t> removed = (*writer)->PruneSegmentsBelow(min_seq);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GT(*removed, 0u);
  // Every record >= min_seq must still be readable; no record below the
  // oldest surviving segment's start may remain.
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_FALSE(wal->records.empty());
  EXPECT_LE(wal->records.front().seq, min_seq);
  EXPECT_EQ(wal->records.back().seq, 11u);
  // Sequence numbers remain contiguous after pruning.
  for (size_t i = 1; i < wal->records.size(); ++i) {
    EXPECT_EQ(wal->records[i].seq, wal->records[i - 1].seq + 1);
  }
}

// ---------------------------------------------------------------------------
// Golden formats. The stored CRC field is pinned apart from the whole-file
// digest, so a checksum change and a layout change fail distinguishably.

TEST(GoldenFormatTest, WalBatchFrame) {
  ScopedTempDir dir("persist_test_golden_wal_batch");
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir.path(), /*segment_bytes=*/1 << 20,
                        /*initial_seq=*/7, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const std::vector<LocationUpdate> objects = {GoldenObject()};
    const std::vector<QueryUpdate> queries = {GoldenQuery()};
    ASSERT_TRUE((*writer)->Append(/*batch_time=*/9, /*evaluate_after=*/true,
                                  objects, queries)
                    .ok());
  }
  const std::string bytes = OnlySegmentBytes(dir.path());
  ASSERT_EQ(bytes.size(), 194u) << Hex(bytes);
  EXPECT_EQ(U32At(bytes, 0), 186u);
  EXPECT_EQ(U32At(bytes, 4), 0xB5C25E10u) << Hex(bytes);
  EXPECT_EQ(Fnv1a64(bytes), 0xCC871851254EAACBull) << Hex(bytes);
}

TEST(GoldenFormatTest, WalRoutedFrame) {
  ScopedTempDir dir("persist_test_golden_wal_routed");
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir.path(), /*segment_bytes=*/1 << 20,
                        /*initial_seq=*/12, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const std::vector<uint64_t> object_slots = {2};
    const std::vector<LocationUpdate> objects = {GoldenObject()};
    const std::vector<uint64_t> query_slots = {0};
    const std::vector<QueryUpdate> queries = {GoldenQuery()};
    ASSERT_TRUE((*writer)
                    ->AppendRouted(/*batch_time=*/10, /*evaluate_after=*/false,
                                   /*shard_index=*/1, /*shard_count=*/4,
                                   /*total_objects=*/3, /*total_queries=*/2,
                                   object_slots, objects, query_slots, queries)
                    .ok());
  }
  const std::string bytes = OnlySegmentBytes(dir.path());
  ASSERT_EQ(bytes.size(), 234u) << Hex(bytes);
  EXPECT_EQ(U32At(bytes, 0), 226u);
  EXPECT_EQ(U32At(bytes, 4), 0xDDA89F0Bu) << Hex(bytes);
  EXPECT_EQ(Fnv1a64(bytes), 0x871B5395BC1B2187ull) << Hex(bytes);
}

TEST(GoldenFormatTest, SnapshotFileFraming) {
  ScopedTempDir dir("persist_test_golden_snapshot_framing");
  const std::string payload = "SCUBA snapshot framing golden payload";
  uint64_t written = 0;
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), /*wal_next_seq=*/5, payload,
                                /*crash=*/nullptr, &written)
                  .ok());
  const std::string bytes =
      Slurp((fs::path(dir.path()) / SnapshotFileName(5)).string());
  ASSERT_EQ(bytes.size(), 20u + payload.size() + 4u);
  EXPECT_EQ(written, bytes.size());
  // magic "SCUBSNP1" | version u32 | payload_len u64.
  EXPECT_EQ(Hex(std::string_view(bytes).substr(0, 20)),
            "53435542534e5031"           // SCUBSNP1
            "01000000"                   // version 1
            "2500000000000000");         // 37 payload bytes
  EXPECT_EQ(std::string_view(bytes).substr(20, payload.size()), payload);
  EXPECT_EQ(U32At(bytes, 20 + payload.size()), 0x03499558u);
}

TEST(GoldenFormatTest, FreshEngineSnapshotFile) {
  ScopedTempDir dir("persist_test_golden_snapshot_engine");
  Result<std::unique_ptr<ScubaEngine>> engine =
      ScubaEngine::Create(ScubaOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string payload = SerializeEngineSnapshot(
      **engine, /*wal_next_seq=*/3, /*validator=*/nullptr, /*rng=*/nullptr);
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), 3, payload, /*crash=*/nullptr,
                                /*bytes_written=*/nullptr)
                  .ok());
  const std::string bytes =
      Slurp((fs::path(dir.path()) / SnapshotFileName(3)).string());
  ASSERT_EQ(bytes.size(), 502u) << Hex(bytes);
  EXPECT_EQ(U32At(bytes, bytes.size() - 4), 0x39E1D61Cu) << Hex(bytes);
  EXPECT_EQ(Fnv1a64(bytes), 0x521BE43A37C98650ull) << Hex(bytes);
}

TEST(GoldenFormatTest, ServeBatchFrame) {
  serve::UpdateBatchMsg msg;
  msg.time = 9;
  msg.evaluate = true;
  msg.objects = {GoldenObject()};
  msg.queries = {GoldenQuery()};
  Result<std::string> frame = serve::EncodeFrame(serve::EncodeUpdateBatch(msg));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const std::string& bytes = *frame;
  ASSERT_EQ(bytes.size(), 186u) << Hex(bytes);
  EXPECT_EQ(U32At(bytes, 0), 178u);
  EXPECT_EQ(U32At(bytes, 4), 0xBCCF6995u) << Hex(bytes);
  EXPECT_EQ(Fnv1a64(bytes), 0xE494DD6004BA1D33ull) << Hex(bytes);

  // And the pinned bytes still decode to the message.
  serve::FrameDecoder decoder;
  decoder.Append(bytes);
  std::string payload;
  Result<bool> next = decoder.Next(&payload);
  ASSERT_TRUE(next.ok() && *next) << next.status().ToString();
  serve::UpdateBatchMsg decoded;
  ASSERT_TRUE(serve::DecodeUpdateBatch(payload, &decoded).ok());
  ASSERT_EQ(decoded.objects.size(), 1u);
  ASSERT_EQ(decoded.queries.size(), 1u);
  EXPECT_EQ(decoded.objects[0].ToString(), GoldenObject().ToString());
  EXPECT_EQ(decoded.queries[0].ToString(), GoldenQuery().ToString());
}

}  // namespace
}  // namespace scuba
