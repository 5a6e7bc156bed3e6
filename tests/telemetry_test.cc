// End-to-end telemetry coverage (docs/ARCHITECTURE.md §9): the JSONL round
// stream is schema-valid, counter/gauge content is bit-identical across
// thread counts, and telemetry never perturbs engine results or state.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "persist/snapshot.h"

namespace scuba {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON checker: validates syntax and extracts the
// top-level object keys. Enough to golden-test the emitter without a JSON
// dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Validate(std::vector<std::string>* top_keys) {
    pos_ = 0;
    SkipWs();
    if (Peek() != '{') return false;
    if (!ParseObject(top_keys)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char Next() { return pos_ < text_.size() ? text_[pos_++] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{':
        return ParseObject(nullptr);
      case '[':
        return ParseArray();
      case '"':
        return ParseString(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject(std::vector<std::string>* keys) {
    if (Next() != '{') return false;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (keys != nullptr) keys->push_back(key);
      SkipWs();
      if (Next() != ':') return false;
      if (!ParseValue()) return false;
      SkipWs();
      const char c = Next();
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }

  bool ParseArray() {
    if (Next() != '[') return false;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      const char c = Next();
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  bool ParseString(std::string* out) {
    if (Next() != '"') return false;
    while (pos_ < text_.size()) {
      const char c = Next();
      if (c == '"') return true;
      if (c == '\\') {
        const char e = Next();
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(Next()))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
        if (out != nullptr) *out += '?';  // escapes don't matter for keys
      } else if (out != nullptr) {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

/// Extracts the value of a `"key":<number-or-string>` field from a JSON
/// fragment, or "" if absent. The emitter writes fixed-order objects, so a
/// string scan is exact here.
std::string FieldValue(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return "";
  size_t start = at + needle.size();
  size_t end = start;
  if (json[start] == '"') {
    end = json.find('"', start + 1);
    return json.substr(start + 1, end - start - 1);
  }
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(start, end - start);
}

/// All metric entries of one kind from a round line, as "name=..." strings
/// carrying the deterministic fields only.
std::vector<std::string> MetricEntries(const std::string& line,
                                       const std::string& kind) {
  std::vector<std::string> out;
  size_t at = 0;
  while ((at = line.find("{\"name\":\"", at)) != std::string::npos) {
    const size_t end = line.find('}', at);
    const std::string entry = line.substr(at, end - at + 1);
    at = end;
    if (FieldValue(entry, "kind") != kind) continue;
    if (kind == "counter") {
      out.push_back(FieldValue(entry, "name") + " delta=" +
                    FieldValue(entry, "delta") + " total=" +
                    FieldValue(entry, "total"));
    } else if (kind == "gauge") {
      out.push_back(FieldValue(entry, "name") + " value=" +
                    FieldValue(entry, "value"));
    } else {
      out.push_back(FieldValue(entry, "name"));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Deterministic multi-round workload (smaller cousin of the one in
// parallel_ingest_test.cc).
// ---------------------------------------------------------------------------

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  const int kGroups = 6;
  struct Entity {
    uint32_t id;
    bool is_query;
    int group;
    Point pos;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 90; ++i) {
    const int group = static_cast<int>(rng.NextDouble(0, kGroups));
    Point base{600.0 + 900.0 * group, 600.0 + 700.0 * (group % 3)};
    entities.push_back(Entity{i, (i % 3 == 2), group,
                              {base.x + rng.NextDouble(-50, 50),
                               base.y + rng.NextDouble(-50, 50)}});
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
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.range_width = 120;
        u.range_height = 120;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

struct RunResult {
  std::vector<ResultSet> results;
  std::vector<uint64_t> hashes;
};

RunResult RunWorkload(const std::vector<Round>& rounds, ScubaOptions opt) {
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  RunResult out;
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    EXPECT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    EXPECT_TRUE(engine->Evaluate(now, &results).ok());
    out.results.push_back(std::move(results));
    out.hashes.push_back(EngineStateHash(*engine));
  }
  EXPECT_TRUE(engine->FlushTelemetry().ok());
  return out;
}

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(TelemetryTest, MetricsAndTraceFilesValidateAgainstSchema) {
  const std::string metrics_path = TmpPath("schema_metrics.jsonl");
  const std::string trace_path = TmpPath("schema_trace.jsonl");
  ScubaOptions opt;
  opt.telemetry.metrics_out = metrics_path;
  opt.telemetry.trace_out = trace_path;
  const int kRounds = 4;
  RunWorkload(MakeRounds(11, kRounds), opt);

  const std::set<std::string> kMetricsKeys = {
      "schema_version", "kind", "round",  "metrics",
      "engine",         "stream", "prometheus"};
  const std::set<std::string> kTraceKeys = {"schema_version", "kind", "round",
                                            "engine", "stream", "spans",
                                            "join"};

  // --- metrics file: meta, one line per round, final exposition ---
  std::vector<std::string> lines = ReadLines(metrics_path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRounds) + 2);
  uint64_t expect_round = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> keys;
    ASSERT_TRUE(JsonChecker(lines[i]).Validate(&keys))
        << "metrics line " << i << " is not valid JSON: " << lines[i];
    for (const std::string& k : keys) {
      EXPECT_TRUE(kMetricsKeys.count(k)) << "unknown metrics key: " << k;
    }
    const std::string kind = FieldValue(lines[i], "kind");
    if (i == 0) {
      EXPECT_EQ(kind, "meta");
      EXPECT_EQ(FieldValue(lines[i], "schema_version"), "4");
      EXPECT_EQ(FieldValue(lines[i], "stream"), "metrics");
    } else if (i + 1 == lines.size()) {
      EXPECT_EQ(kind, "exposition");
      EXPECT_NE(FieldValue(lines[i], "prometheus").find("scuba_rounds_total"),
                std::string::npos);
    } else {
      EXPECT_EQ(kind, "round");
      EXPECT_EQ(FieldValue(lines[i], "round"), std::to_string(++expect_round));
      // Every round advances the round counter by exactly one.
      const std::vector<std::string> counters =
          MetricEntries(lines[i], "counter");
      bool saw_rounds = false;
      for (const std::string& c : counters) {
        if (c == "scuba_rounds_total delta=1 total=" +
                     std::to_string(expect_round)) {
          saw_rounds = true;
        }
      }
      EXPECT_TRUE(saw_rounds) << lines[i];
    }
  }

  // --- trace file: meta then one span tree per round ---
  lines = ReadLines(trace_path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRounds) + 1);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> keys;
    ASSERT_TRUE(JsonChecker(lines[i]).Validate(&keys))
        << "trace line " << i << " is not valid JSON: " << lines[i];
    for (const std::string& k : keys) {
      EXPECT_TRUE(kTraceKeys.count(k)) << "unknown trace key: " << k;
    }
    if (i == 0) {
      EXPECT_EQ(FieldValue(lines[i], "stream"), "trace");
      continue;
    }
    EXPECT_EQ(FieldValue(lines[i], "kind"), "round");
    // The root span is first and named "round"; the engine phases hang off it.
    EXPECT_EQ(FieldValue(lines[i], "name"), "round");
    for (const char* phase : {"ingest", "join", "postjoin"}) {
      EXPECT_NE(lines[i].find("\"name\":\"" + std::string(phase) + "\""),
                std::string::npos)
          << "round " << i << " missing phase " << phase << ": " << lines[i];
    }
    // Wall times are finite, non-negative numbers (JsonDouble already clamps
    // non-finite, so presence of a parseable value is the check; negativity
    // would print a leading '-').
    size_t at = 0;
    while ((at = lines[i].find("\"wall_seconds\":", at)) != std::string::npos) {
      at += 15;
      EXPECT_NE(lines[i][at], '-') << lines[i];
    }
  }
}

TEST(TelemetryTest, CountersAndGaugesBitIdenticalAcrossThreads) {
  const std::vector<Round> rounds = MakeRounds(23, 5);
  std::vector<std::vector<std::string>> per_thread_rounds;
  for (uint32_t threads : {1u, 4u}) {
    const std::string path =
        TmpPath("determinism_" + std::to_string(threads) + ".jsonl");
    ScubaOptions opt;
    opt.join_threads = threads;
    opt.telemetry.metrics_out = path;
    RunWorkload(rounds, opt);

    std::vector<std::string> round_payloads;
    for (const std::string& line : ReadLines(path)) {
      if (FieldValue(line, "kind") != "round") continue;
      // Deterministic content only: counters (name, delta, total) and gauges
      // (name, value). Histogram deltas are timings — scheduling-dependent by
      // design — and are excluded.
      std::string payload = "round=" + FieldValue(line, "round");
      for (const std::string& c : MetricEntries(line, "counter")) {
        payload += "\n  " + c;
      }
      for (const std::string& g : MetricEntries(line, "gauge")) {
        payload += "\n  " + g;
      }
      round_payloads.push_back(payload);
    }
    EXPECT_EQ(round_payloads.size(), rounds.size());
    per_thread_rounds.push_back(std::move(round_payloads));
  }
  ASSERT_EQ(per_thread_rounds.size(), 2u);
  for (size_t r = 0; r < per_thread_rounds[0].size(); ++r) {
    EXPECT_EQ(per_thread_rounds[0][r], per_thread_rounds[1][r])
        << "metric content diverged between 1 and 4 threads at round " << r;
  }
}

TEST(TelemetryTest, TelemetryDoesNotPerturbResultsOrState) {
  const std::vector<Round> rounds = MakeRounds(31, 4);
  ScubaOptions off;
  off.join_threads = 2;
  ScubaOptions on = off;
  on.telemetry.enabled = true;  // collect-only: no files
  ScubaOptions files = off;
  files.telemetry.metrics_out = TmpPath("perturb_metrics.jsonl");
  files.telemetry.trace_out = TmpPath("perturb_trace.jsonl");

  const RunResult base = RunWorkload(rounds, off);
  for (const ScubaOptions& opt : {on, files}) {
    const RunResult instrumented = RunWorkload(rounds, opt);
    ASSERT_EQ(instrumented.results.size(), base.results.size());
    for (size_t r = 0; r < base.results.size(); ++r) {
      EXPECT_EQ(instrumented.results[r], base.results[r]) << "round " << r;
      EXPECT_EQ(instrumented.hashes[r], base.hashes[r]) << "round " << r;
    }
  }
}

TEST(TelemetryTest, ProgrammaticAccessAndCheckpointSpansExist) {
  // Collect-only mode: metrics available through ScubaEngine::telemetry()
  // without any output file.
  ScubaOptions opt;
  opt.telemetry.enabled = true;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  ASSERT_NE(engine->telemetry(), nullptr);
  const std::vector<Round> rounds = MakeRounds(47, 2);
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    ASSERT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    ASSERT_TRUE(engine->Evaluate(now, &results).ok());
  }
  uint64_t rounds_total = 0;
  uint64_t results_total = 0;
  // The current (second) round has not flushed yet; force it.
  ASSERT_TRUE(engine->FlushTelemetry().ok());
  for (const MetricSnapshot& m : engine->telemetry()->registry().Snapshot()) {
    if (m.name == "scuba_rounds_total") rounds_total = m.counter;
    if (m.name == "scuba_results_total") results_total = m.counter;
  }
  EXPECT_EQ(rounds_total, rounds.size());
  EXPECT_GT(results_total, 0u);
}

TEST(TelemetryTest, OpenFailureSurfacesAtCreate) {
  ScubaOptions opt;
  opt.telemetry.metrics_out = "/nonexistent-dir/metrics.jsonl";
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_FALSE(engine.ok());
}

}  // namespace
}  // namespace scuba
