#include "gen/trace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gen/workload_generator.h"
#include "network/grid_city.h"

namespace scuba {
namespace {

Trace SmallTrace(int ticks = 4, uint64_t seed = 31) {
  RoadNetwork city = DefaultBenchmarkCity(seed);
  WorkloadOptions opt;
  opt.num_objects = 20;
  opt.num_queries = 15;
  opt.skew = 5;
  opt.seed = seed;
  Result<ObjectSimulator> sim = GenerateWorkload(&city, opt);
  EXPECT_TRUE(sim.ok());
  ObjectSimulator s = std::move(sim).value();
  return RecordTrace(&s, ticks);
}

TEST(TraceTest, RecordProducesOneBatchPerTick) {
  Trace t = SmallTrace(5);
  EXPECT_EQ(t.TickCount(), 5u);
  for (size_t i = 0; i < t.TickCount(); ++i) {
    EXPECT_EQ(t.batch(i).time, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(t.batch(i).object_updates.size(), 20u);  // 100% update rate
    EXPECT_EQ(t.batch(i).query_updates.size(), 15u);
  }
  EXPECT_EQ(t.TotalUpdates(), 5u * 35u);
}

TEST(TraceTest, PartialUpdateFraction) {
  RoadNetwork city = DefaultBenchmarkCity(32);
  WorkloadOptions opt;
  opt.num_objects = 200;
  opt.num_queries = 200;
  opt.seed = 32;
  Result<ObjectSimulator> sim = GenerateWorkload(&city, opt);
  ASSERT_TRUE(sim.ok());
  ObjectSimulator s = std::move(sim).value();
  Trace t = RecordTrace(&s, 3, 0.25);
  for (size_t i = 0; i < t.TickCount(); ++i) {
    size_t n = t.batch(i).object_updates.size() +
               t.batch(i).query_updates.size();
    EXPECT_GT(n, 40u);
    EXPECT_LT(n, 160u);
  }
}

// Doubles compare by bit pattern: -0.0 differs from 0.0, and a NaN equals
// a NaN of the same sign and payload.
void ExpectSameBits(double a, double b, const char* field) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << field << ": " << a << " vs " << b;
}

void ExpectSameBits(Point a, Point b, const char* field) {
  ExpectSameBits(a.x, b.x, field);
  ExpectSameBits(a.y, b.y, field);
}

// Every field of every tuple, doubles bit for bit.
void ExpectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.TickCount(), b.TickCount());
  for (size_t i = 0; i < a.TickCount(); ++i) {
    const TickBatch& x = a.batch(i);
    const TickBatch& y = b.batch(i);
    EXPECT_EQ(x.time, y.time);
    ASSERT_EQ(x.object_updates.size(), y.object_updates.size());
    ASSERT_EQ(x.query_updates.size(), y.query_updates.size());
    for (size_t j = 0; j < x.object_updates.size(); ++j) {
      const LocationUpdate& u = x.object_updates[j];
      const LocationUpdate& v = y.object_updates[j];
      EXPECT_EQ(u.oid, v.oid);
      ExpectSameBits(u.position, v.position, "position");
      EXPECT_EQ(u.time, v.time);
      ExpectSameBits(u.speed, v.speed, "speed");
      EXPECT_EQ(u.dest_node, v.dest_node);
      ExpectSameBits(u.dest_position, v.dest_position, "dest_position");
      EXPECT_EQ(u.attrs, v.attrs);
    }
    for (size_t j = 0; j < x.query_updates.size(); ++j) {
      const QueryUpdate& u = x.query_updates[j];
      const QueryUpdate& v = y.query_updates[j];
      EXPECT_EQ(u.qid, v.qid);
      ExpectSameBits(u.position, v.position, "position");
      EXPECT_EQ(u.time, v.time);
      ExpectSameBits(u.speed, v.speed, "speed");
      EXPECT_EQ(u.dest_node, v.dest_node);
      ExpectSameBits(u.dest_position, v.dest_position, "dest_position");
      ExpectSameBits(u.range_width, v.range_width, "range_width");
      ExpectSameBits(u.range_height, v.range_height, "range_height");
      EXPECT_EQ(u.attrs, v.attrs);
      EXPECT_EQ(u.required_attrs, v.required_attrs);
    }
  }
}

void ExpectRoundTrip(const Trace& t) {
  Result<Trace> back = Trace::Parse(t.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameTrace(t, *back);
}

// The text format as printf writes it: the reference for Serialize's bytes.
std::string PrintfSerialize(const Trace& t) {
  std::string out = "scuba-trace 1\n";
  char buf[320];
  for (const TickBatch& b : t.batches()) {
    std::snprintf(buf, sizeof(buf), "tick %lld\n",
                  static_cast<long long>(b.time));
    out += buf;
    for (const LocationUpdate& u : b.object_updates) {
      std::snprintf(buf, sizeof(buf),
                    "o %u %.17g %.17g %lld %.17g %u %.17g %.17g %llu\n", u.oid,
                    u.position.x, u.position.y,
                    static_cast<long long>(u.time), u.speed, u.dest_node,
                    u.dest_position.x, u.dest_position.y,
                    static_cast<unsigned long long>(u.attrs));
      out += buf;
    }
    for (const QueryUpdate& u : b.query_updates) {
      std::snprintf(
          buf, sizeof(buf),
          "q %u %.17g %.17g %lld %.17g %u %.17g %.17g %.17g %.17g %llu %llu\n",
          u.qid, u.position.x, u.position.y, static_cast<long long>(u.time),
          u.speed, u.dest_node, u.dest_position.x, u.dest_position.y,
          u.range_width, u.range_height,
          static_cast<unsigned long long>(u.attrs),
          static_cast<unsigned long long>(u.required_attrs));
      out += buf;
    }
  }
  return out;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kMaxId = std::numeric_limits<uint32_t>::max() - 1;
constexpr uint64_t kAllAttrs = std::numeric_limits<uint64_t>::max();

// A fixed two-tick trace touching every field kind and the edge values.
Trace GoldenTrace() {
  TickBatch t1;
  t1.time = 1;
  LocationUpdate o1;
  o1.oid = 1;
  o1.position = {0.1, -0.0};
  o1.time = 1;
  o1.speed = 12.5;
  o1.dest_node = kMaxId;
  o1.dest_position = {1e21, 1e-5};
  o1.attrs = kAllAttrs;
  t1.object_updates.push_back(o1);
  LocationUpdate o2;
  o2.oid = 2;
  o2.position = {kNaN, kInf};
  o2.time = -7;
  o2.speed = 0.0;
  o2.dest_node = 0;
  o2.dest_position = {-kInf, std::copysign(kNaN, -1.0)};
  o2.attrs = 0;
  t1.object_updates.push_back(o2);
  QueryUpdate q1;
  q1.qid = 3;
  q1.position = {100.0, 250.75};
  q1.time = 1;
  q1.speed = 10.0 / 3.0;
  q1.dest_node = 17;
  q1.dest_position = {123456789.125, std::numeric_limits<double>::denorm_min()};
  q1.range_width = 40.0;
  q1.range_height = 0.0001;
  q1.attrs = kAttrBus;
  q1.required_attrs = kAttrBus | kAttrTruck;
  t1.query_updates.push_back(q1);

  TickBatch t2;
  t2.time = -2;
  QueryUpdate q2;
  q2.qid = kMaxId;
  q2.position = {std::numeric_limits<double>::max(),
                 -std::numeric_limits<double>::min()};
  q2.time = std::numeric_limits<Timestamp>::min();
  q2.speed = 0.5;
  q2.dest_node = 1;
  q2.dest_position = {2.0, 3.0};
  q2.range_width = 1e100;
  q2.range_height = 123.0;
  t2.query_updates.push_back(q2);

  Trace t;
  t.Append(t1);
  t.Append(t2);
  return t;
}

TEST(TraceTest, SerializeParseRoundTrip) {
  Trace t = SmallTrace(3);
  ExpectRoundTrip(t);
  EXPECT_EQ(t.Serialize(), PrintfSerialize(t));
}

TEST(TraceTest, SerializeGoldenBytes) {
  // Bytes the printf-based writer produced for this trace; generate-trace and
  // corrupt-trace output must not change by one byte.
  const std::string golden =
      "scuba-trace 1\n"
      "tick 1\n"
      "o 1 0.10000000000000001 -0 1 12.5 4294967294 1e+21 "
      "1.0000000000000001e-05 18446744073709551615\n"
      "o 2 nan inf -7 0 0 -inf -nan 0\n"
      "q 3 100 250.75 1 3.3333333333333335 17 123456789.125 "
      "4.9406564584124654e-324 40 0.0001 8 12\n"
      "tick -2\n"
      "q 4294967294 1.7976931348623157e+308 -2.2250738585072014e-308 "
      "-9223372036854775808 0.5 1 2 3 1e+100 123 0 0\n";
  const Trace t = GoldenTrace();
  EXPECT_EQ(t.Serialize(), golden);
  EXPECT_EQ(t.Serialize(), PrintfSerialize(t));
  ExpectRoundTrip(t);
}

TEST(TraceTest, RandomBitPatternsRoundTripAndMatchPrintf) {
  std::mt19937_64 rng(0x5C0BA);
  auto real = [&rng] {
    while (true) {
      const double v = std::bit_cast<double>(rng());
      if (std::isfinite(v)) return v;
    }
  };
  TickBatch b;
  b.time = -5;
  for (int i = 0; i < 300; ++i) {
    LocationUpdate u;
    u.oid = static_cast<ObjectId>(rng());
    u.position = {real(), real()};
    u.time = static_cast<Timestamp>(rng());
    u.speed = real();
    u.dest_node = static_cast<NodeId>(rng());
    u.dest_position = {real(), real()};
    u.attrs = rng();
    b.object_updates.push_back(u);
    QueryUpdate q;
    q.qid = static_cast<QueryId>(rng());
    q.position = {real(), real()};
    q.time = static_cast<Timestamp>(rng());
    q.speed = real();
    q.dest_node = static_cast<NodeId>(rng());
    q.dest_position = {real(), real()};
    q.range_width = real();
    q.range_height = real();
    q.attrs = rng();
    q.required_attrs = rng();
    b.query_updates.push_back(q);
  }
  // Edge values, each in every double field of one object and one query.
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::epsilon(),
                          1.0,
                          0.1};
  for (double e : edges) {
    LocationUpdate u;
    u.oid = kMaxId;
    u.position = {e, e};
    u.time = std::numeric_limits<Timestamp>::max();
    u.speed = e;
    u.dest_node = kMaxId;
    u.dest_position = {e, e};
    u.attrs = kAllAttrs;
    b.object_updates.push_back(u);
    QueryUpdate q;
    q.qid = kMaxId;
    q.position = {e, e};
    q.time = std::numeric_limits<Timestamp>::min();
    q.speed = e;
    q.dest_node = kMaxId;
    q.dest_position = {e, e};
    q.range_width = e;
    q.range_height = e;
    q.attrs = kAllAttrs;
    q.required_attrs = kAllAttrs;
    b.query_updates.push_back(q);
  }
  Trace t;
  t.Append(b);
  ExpectRoundTrip(t);
  EXPECT_EQ(t.Serialize(), PrintfSerialize(t));
}

TEST(TraceTest, NonFiniteValuesRoundTrip) {
  Result<Trace> t = Trace::Parse(
      "scuba-trace 1\ntick 1\no 1 nan -nan 1 inf 2 -inf 0 0\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const LocationUpdate& u = t->batch(0).object_updates[0];
  EXPECT_TRUE(std::isnan(u.position.x));
  EXPECT_FALSE(std::signbit(u.position.x));
  EXPECT_TRUE(std::isnan(u.position.y));
  EXPECT_TRUE(std::signbit(u.position.y));
  EXPECT_EQ(u.speed, kInf);
  EXPECT_EQ(u.dest_position.x, -kInf);
  ExpectRoundTrip(*t);
}

TEST(TraceTest, ParseToleratesCrlfCommentsAndBlankLines) {
  const std::string lf =
      "scuba-trace 1\n"
      "tick 1\n"
      "o 1 2.5 3 1 4 5 6 7 8\n"
      "q 7 50 50 1 10 1 100 100 40 40 0\n"  // legacy: no required_attrs
      "tick 2\n"
      "q 8 50 50 2 10 1 100 100 40 40 1 1\n";
  const std::string noisy =
      "scuba-trace 1 \r\n"
      "# recorded by hand\r\n"
      "\r\n"
      "tick 1\r\n"
      "\r\n"
      "o 1 2.5 3 1 4 5 6 7 8\r\n"
      "  # indented comment\n"
      "q 7 50 50 1 10 1 100 100 40 40 0\r\n"
      "   \t\n"
      "tick 2\r\n"
      "q\t8 50 50 2 10 1 100 100 40 40 1 1\r\n"
      "\n";
  Result<Trace> a = Trace::Parse(lf);
  Result<Trace> b = Trace::Parse(noisy);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->TickCount(), 2u);
  EXPECT_EQ(a->batch(0).query_updates[0].required_attrs, kAttrNone);
  EXPECT_EQ(a->batch(1).query_updates[0].required_attrs, 1u);
  ExpectSameTrace(*a, *b);
  // Without a final newline the last line still counts.
  Result<Trace> c = Trace::Parse(lf.substr(0, lf.size() - 1));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ExpectSameTrace(*a, *c);
}

TEST(TraceTest, ParseRejectsWithLineNumber) {
  struct Case {
    std::string text;
    size_t line;
  };
  const std::string h = "scuba-trace 1\n";
  const std::string tick = h + "tick 1\n";
  const std::string o = "o 1 0 0 1 5 0 0 0 0";
  const std::string q = "q 7 50 50 1 10 1 100 100 40 40 0 0";
  const Case cases[] = {
      // Header: missing, wrong, or a longer version token.
      {"", 1},
      {"tick 1\n", 1},
      {"scuba-trace 10\n", 1},
      {"scuba-trace 1x\n", 1},
      {"scuba-trace 1 2\n", 1},
      {" scuba-trace 1\n", 1},
      {"scuba-trace 2\ntick 1\n", 1},
      // Updates before the first tick.
      {h + "\n" + o + "\n", 3},
      {h + "# c\n" + q + "\n", 3},
      // Ticks.
      {h + "tick banana\n", 2},
      {h + "tick\n", 2},
      {h + "tick 1 2\n", 2},
      {h + "tick 9223372036854775808\n", 2},
      // Object fields: missing, malformed, out of range, negative unsigned,
      // trailing.
      {tick + "o 1 xyz\n", 3},
      {tick + "o 1 0 0 1 5 0 0 0\n", 3},
      {tick + "o -1 0 0 1 5 0 0 0 0\n", 3},
      {tick + "o 4294967296 0 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 0 0 1 5 -1 0 0 0\n", 3},
      {tick + "o 1 0 0 1 5 4294967296 0 0 0\n", 3},
      {tick + "o 1 0 0 1 5 0 0 0 -1\n", 3},
      {tick + "o 1 0 0 1 5 0 0 0 18446744073709551616\n", 3},
      {tick + "o 1 0 0 9223372036854775808 5 0 0 0 0\n", 3},
      {tick + "o 1.5 0 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 0 0 1.5 5 0 0 0 0\n", 3},
      {tick + "o 1 0x10 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 1e400 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 1e-400 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 +1 0 1 5 0 0 0 0\n", 3},
      {tick + "o +1 0 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 0 0 1 5 0 0 0 0 9\n", 3},
      {tick + "o 1 0 0 1 5 0 0 0 0x\n", 3},
      {tick + o + "\n" + o + " extra\n", 4},
      // Only the four non-finite spellings Serialize writes are accepted.
      {tick + "o 1 NaN 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 INF 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 infinity 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 nan(1) 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 +inf 0 1 5 0 0 0 0\n", 3},
      {tick + "o 1 --nan 0 1 5 0 0 0 0\n", 3},
      // Query fields, including a token after required_attrs.
      {tick + "q 7 50 50 1 10 1 100 100 40\n", 3},
      {tick + "q -7 50 50 1 10 1 100 100 40 40 0 0\n", 3},
      {tick + "q 7 50 50 1 10 -1 100 100 40 40 0 0\n", 3},
      {tick + "q 7 50 50 1 10 1 100 100 40 40 0 -1\n", 3},
      {tick + q + " 5\n", 3},
      {tick + q + "\n" + q + " junk\n", 4},
      // Unknown record kinds.
      {tick + "z 1 2 3\n", 3},
      {tick + o + "\ntick 2\nob 1\n", 5},
  };
  for (const Case& c : cases) {
    Result<Trace> t = Trace::Parse(c.text);
    ASSERT_FALSE(t.ok()) << c.text;
    EXPECT_TRUE(t.status().IsCorruption()) << c.text;
    const std::string suffix = " at line " + std::to_string(c.line);
    const std::string& msg = t.status().message();
    EXPECT_TRUE(msg.size() >= suffix.size() &&
                msg.compare(msg.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
        << c.text << " -> " << msg;
  }
}

TEST(TraceTest, ParseEmptyTraceIsOk) {
  Result<Trace> t = Trace::Parse("scuba-trace 1\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->TickCount(), 0u);
}

TEST(TraceTest, MemoryUsageGrowsWithTicks) {
  Trace small = SmallTrace(1);
  Trace big = SmallTrace(8);
  EXPECT_GT(big.EstimateMemoryUsage(), small.EstimateMemoryUsage());
}

TEST(TraceTest, UpdateToStringIsReadable) {
  Trace t = SmallTrace(1);
  ASSERT_FALSE(t.batch(0).object_updates.empty());
  std::string s = t.batch(0).object_updates[0].ToString();
  EXPECT_NE(s.find("obj"), std::string::npos);
  ASSERT_FALSE(t.batch(0).query_updates.empty());
  std::string qs = t.batch(0).query_updates[0].ToString();
  EXPECT_NE(qs.find("query"), std::string::npos);
  EXPECT_NE(qs.find("range"), std::string::npos);
}

}  // namespace
}  // namespace scuba
