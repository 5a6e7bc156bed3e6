#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "baseline/grid_join_engine.h"
#include "core/scuba_engine.h"
#include "eval/experiment.h"
#include "gen/trace.h"
#include "gen/workload_generator.h"
#include "network/grid_city.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/engine_factory.h"
#include "shard/engine_shard.h"
#include "shard/shard_durability.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"
#include "stats.h"

namespace perfbench {

using scuba::BadUpdatePolicy;
using scuba::EngineHandle;
using scuba::EvalStats;
using scuba::LocationUpdate;
using scuba::Match;
using scuba::QueryId;
using scuba::QueryProcessor;
using scuba::QueryUpdate;
using scuba::Rect;
using scuba::Result;
using scuba::ResultSet;
using scuba::RoadNetwork;
using scuba::ScubaOptions;
using scuba::Status;
using scuba::Timestamp;
using scuba::Trace;
using scuba::UpdateValidator;
using scuba::ValidatorConfig;

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

constexpr Timestamp kDelta = 2;  // evaluation period, ticks (paper §6.1)
constexpr uint32_t kSkew = 100;
constexpr int kSetupRepeats = 5;
constexpr uint64_t kMaxPopulations = 64;  // population seeds: seed * 64 + i
constexpr int kReplaysPerParse = 4;
constexpr uint32_t kServeCheckpointEvery = 4;
/// Hash filter bound that keeps every query id (the subscribe-all view).
constexpr QueryId kAllQueries = std::numeric_limits<QueryId>::max();

enum class Shape { kInProcess, kServe, kRunTrace };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  uint32_t objects;
  uint32_t queries;
  int ticks;             ///< Episode length; kDelta ticks per round.
  uint32_t threads;      ///< join_threads = ingest_threads.
  uint32_t shards;
  /// Independent populations per run, each from its own seed derived from
  /// the run's seed. Result volume differs by tens of percent between
  /// populations, so a run averages over many to keep the spread between
  /// seeds small.
  uint32_t populations;
};

// Episode lengths and population counts let a 20-second run visit every
// population two to three times on a 4-vCPU x86 host (episodes of 0.2 s to
// 1 s), leaving well over 40 rounds in the faster half of the episodes for
// a tail percentile with ten samples beyond it.
const WorkloadSpec kSpecs[] = {
    {"paper-20k", Shape::kInProcess, 10000, 10000, 20, 1, 1, 24},
    {"scale-50k-par", Shape::kInProcess, 25000, 25000, 12, 4, 1, 12},
    {"serve-20k-durable", Shape::kServe, 10000, 10000, 14, 1, 4, 12},
    {"run-20k", Shape::kRunTrace, 10000, 10000, 12, 1, 1, 6},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Order-sensitive hash of a normalized match list restricted to query ids
/// below `slice_end`. `corrupt` drops the first match first (self-check).
uint64_t HashMatches(const std::vector<Match>& matches, QueryId slice_end,
                     bool corrupt) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  uint64_t count = 0;
  for (size_t i = corrupt ? 1 : 0; i < matches.size(); ++i) {
    if (matches[i].qid >= slice_end) continue;
    mix(matches[i].qid);
    mix(matches[i].oid);
    ++count;
  }
  mix(count);
  return h;
}

struct Inputs {
  RoadNetwork network;
  Rect region{};
  Trace trace;  ///< Empty for run-20k, which reads `trace_path`.
  uint64_t updates = 0;
  std::string trace_path;  ///< run-20k: the serialized trace.
  uint64_t trace_bytes = 0;
};

/// The default grid city; the engine region comes from the road network, so
/// run length cannot move the grid.
Status MakeCity(Inputs* in) {
  Result<RoadNetwork> net = scuba::GenerateGridCity(scuba::GridCityOptions{});
  if (!net.ok()) return net.status();
  in->network = std::move(net).value();
  in->region = scuba::DataRegion(in->network);
  return Status::OK();
}

/// A skew-100 population from `seed` and `ticks` recorded ticks at 100%
/// update rate.
Status MakeTrace(const WorkloadSpec& spec, uint64_t seed, Inputs* in) {
  scuba::WorkloadOptions wo;
  wo.num_objects = spec.objects;
  wo.num_queries = spec.queries;
  wo.skew = kSkew;
  wo.seed = seed;
  Result<scuba::ObjectSimulator> sim = scuba::GenerateWorkload(&in->network, wo);
  if (!sim.ok()) return sim.status();
  scuba::ObjectSimulator simulator = std::move(sim).value();
  in->trace = scuba::RecordTrace(&simulator, spec.ticks, 1.0);
  in->updates = in->trace.TotalUpdates();
  return Status::OK();
}

/// Per-round hashes of the exact answer, from the plain grid join baseline
/// replayed on the same batches (outside every timed interval).
struct Reference {
  std::vector<uint64_t> all;
  std::vector<uint64_t> slice;
};

Result<Reference> ComputeReference(const Inputs& in, QueryId slice_end) {
  scuba::GridJoinOptions go;
  go.region = in.region;
  Result<std::unique_ptr<scuba::GridJoinEngine>> engine =
      scuba::GridJoinEngine::Create(go);
  if (!engine.ok()) return engine.status();
  Reference ref;
  ResultSet rs;
  for (size_t i = 0; i < in.trace.TickCount(); ++i) {
    const scuba::TickBatch& b = in.trace.batch(i);
    Status st = (*engine)->IngestBatch(b.object_updates, b.query_updates);
    if (!st.ok()) return st;
    if ((i + 1) % kDelta != 0) continue;
    st = (*engine)->Evaluate(b.time, &rs);
    if (!st.ok()) return st;
    ref.all.push_back(HashMatches(rs.matches(), kAllQueries, false));
    ref.slice.push_back(HashMatches(rs.matches(), slice_end, false));
  }
  return ref;
}

ScubaOptions EngineOptions(const WorkloadSpec& spec, const Rect& region) {
  ScubaOptions so;
  so.region = region;
  so.delta = kDelta;
  so.join_threads = spec.threads;
  so.ingest_threads = spec.threads;
  so.shards = spec.shards;
  if (spec.shape == Shape::kServe) {
    so.checkpoint.every_n_rounds = kServeCheckpointEvery;
  }
  return so;
}

/// Forwards every call to the engine under test, recording a span around
/// batch ingest and evaluation. Keeps the round index that links its spans
/// (and the durability wrapper's) to the sender's rounds.
class TracedEngine final : public QueryProcessor {
 public:
  TracedEngine(QueryProcessor* inner, SpanLog* log, const char* parent,
               uint32_t thread, uint32_t episode,
               std::function<void()> after_evaluate)
      : inner_(inner),
        log_(log),
        parent_(parent),
        thread_(thread),
        episode_(episode),
        after_evaluate_(std::move(after_evaluate)) {}

  std::string_view name() const override { return inner_->name(); }
  Status IngestObjectUpdate(const LocationUpdate& u) override {
    ScopedSpan span(log_, "core.ingest", parent_, episode_, evaluated_ + 1,
                    thread_, true);
    return inner_->IngestObjectUpdate(u);
  }
  Status IngestQueryUpdate(const QueryUpdate& u) override {
    ScopedSpan span(log_, "core.ingest", parent_, episode_, evaluated_ + 1,
                    thread_, true);
    return inner_->IngestQueryUpdate(u);
  }
  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override {
    ScopedSpan span(log_, "core.ingest", parent_, episode_, evaluated_ + 1,
                    thread_, true);
    return inner_->IngestBatch(objects, queries);
  }
  Status Evaluate(Timestamp now, ResultSet* results) override {
    Status st;
    {
      ScopedSpan span(log_, "core.evaluate", parent_, episode_,
                      evaluated_ + 1, thread_, true);
      st = inner_->Evaluate(now, results);
    }
    evaluate_end_.push_back(Clock::now());
    ++evaluated_;
    if (after_evaluate_) after_evaluate_();
    return st;
  }
  /// Also keeps the largest value the caller (the server, once per round)
  /// has seen.
  size_t EstimateMemoryUsage() const override {
    const size_t bytes = inner_->EstimateMemoryUsage();
    peak_bytes_ = std::max(peak_bytes_, bytes);
    return bytes;
  }
  const EvalStats& stats() const override { return inner_->stats(); }

  uint32_t evaluated() const { return evaluated_; }
  size_t peak_bytes() const { return peak_bytes_; }
  SpanLog* log() const { return log_; }
  uint32_t episode() const { return episode_; }
  const std::vector<Clock::time_point>& evaluate_end() const {
    return evaluate_end_;
  }

 private:
  QueryProcessor* inner_;
  SpanLog* log_;
  const char* parent_;
  uint32_t thread_;
  uint32_t episode_;
  std::function<void()> after_evaluate_;
  uint32_t evaluated_ = 0;
  std::vector<Clock::time_point> evaluate_end_;
  mutable size_t peak_bytes_ = 0;
};

/// Forwards durability hooks, recording WAL-append and round-complete
/// (checkpoint cadence) spans on the engine wrapper's round index.
class TracedSink final : public scuba::DurabilitySink {
 public:
  TracedSink(scuba::DurabilitySink* inner, const TracedEngine* engine)
      : inner_(inner), engine_(engine) {}

  Status LogBatch(Timestamp batch_time, bool evaluate_after,
                  std::span<const LocationUpdate> objects,
                  std::span<const QueryUpdate> queries) override {
    ScopedSpan span(engine_->log(), "persist.wal_append", "serve.rtt",
                    engine_->episode(), engine_->evaluated() + 1, 1, false);
    return inner_->LogBatch(batch_time, evaluate_after, objects, queries);
  }
  Status OnRoundComplete() override {
    ScopedSpan span(engine_->log(), "persist.checkpoint", "serve.rtt",
                    engine_->episode(), engine_->evaluated(), 1, false);
    return inner_->OnRoundComplete();
  }

 private:
  scuba::DurabilitySink* inner_;
  const TracedEngine* engine_;
};

/// Cluster figures of an engine right after an evaluation.
void SampleClusters(const EngineHandle& h, RoundCounts* c) {
  uint64_t members = 0;
  if (h.scuba != nullptr) {
    c->clusters = h.scuba->ClusterCount();
    members = h.scuba->store().HomeCount();
  } else if (h.sharded != nullptr) {
    c->clusters = h.sharded->ClusterCount();
    for (uint32_t s = 0; s < h.sharded->shard_count(); ++s) {
      members += h.sharded->shard(s).store.HomeCount();
    }
  }
  c->members_per_cluster =
      c->clusters > 0 ? static_cast<double>(members) / c->clusters : 0.0;
}

/// Per-round deltas of the engine's join counters.
class CounterSampler {
 public:
  void Sample(const EvalStats& s, uint64_t results, RoundCounts* c) {
    const uint64_t tested = s.cluster_pairs_tested - tested_;
    const uint64_t overlapping = s.cluster_pairs_overlapping - overlapping_;
    c->comparisons = s.comparisons - comparisons_;
    c->pairs_pruned_ratio =
        tested > 0 ? 1.0 - static_cast<double>(overlapping) / tested : 0.0;
    c->results = results;
    tested_ = s.cluster_pairs_tested;
    overlapping_ = s.cluster_pairs_overlapping;
    comparisons_ = s.comparisons;
  }

 private:
  uint64_t tested_ = 0;
  uint64_t overlapping_ = 0;
  uint64_t comparisons_ = 0;
};

/// Sums of per-layer quantities over the traced episodes.
struct LayerTotals {
  uint64_t rounds = 0;
  uint64_t episodes = 0;
  EvalStats stats;  ///< Summed engine counters.
  double clusters = 0.0;
  double members_per_cluster = 0.0;
  uint64_t cluster_samples = 0;
  uint64_t ghosts = 0;
  uint64_t handoffs = 0;
  uint64_t degraded_rounds = 0;
  uint64_t rejected = 0;
  uint64_t replayed_batches = 0;
  uint64_t recoveries = 0;
  std::vector<double> parse_s;
  uint64_t input_bytes = 0;
  std::vector<double> fanout_ms;
  uint64_t deltas = 0;
  uint64_t snapshots = 0;
  uint64_t coalesces = 0;
  uint64_t disconnects = 0;

  void AddStats(const EvalStats& s) {
    stats.comparisons += s.comparisons;
    stats.bounds_checks += s.bounds_checks;
    stats.total_results += s.total_results;
    stats.cluster_pairs_tested += s.cluster_pairs_tested;
    stats.cluster_pairs_overlapping += s.cluster_pairs_overlapping;
    stats.wal_bytes_appended += s.wal_bytes_appended;
    stats.wal_fsyncs += s.wal_fsyncs;
    stats.checkpoints_written += s.checkpoints_written;
  }
  void AddClusters(const RoundCounts& c) {
    clusters += static_cast<double>(c.clusters);
    members_per_cluster += c.members_per_cluster;
    ++cluster_samples;
  }
};

/// Shared bookkeeping of one run: the population in progress, the round
/// check against its reference, memory peaks and episode samples.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& opt, LayerTotals* totals,
         RunResult* out)
      : spec_(spec), opt_(opt), totals_(totals), out_(out) {}

  void SetPopulation(uint32_t population, const Inputs* in,
                     const Reference* ref) {
    population_ = population;
    in_ = in;
    ref_ = ref;
  }

  /// Checks one round's answer. `slice` selects the reference slice.
  void Check(uint32_t episode, uint32_t round, uint64_t hash, bool slice,
             const char* who) {
    if (round == 0 || round > ref_->all.size()) {
      out_->Fail(std::string(who) + ": unexpected round " +
                 std::to_string(round));
      return;
    }
    const uint64_t want = slice ? ref_->slice[round - 1] : ref_->all[round - 1];
    if (hash != want) {
      out_->Fail(std::string(who) + ": episode " + std::to_string(episode) +
                 " round " + std::to_string(round) +
                 " differs from the exact reference");
    }
  }
  bool Corrupt(uint32_t episode, uint32_t round) const {
    return opt_.self_check && episode == 0 && round == 2;
  }

  /// Records one round's latency for the episode in progress.
  void RoundLatency(double ms) { episode_round_ms_.push_back(ms); }

  /// Records an in-process round and checks its result.
  void Round(uint32_t episode, uint32_t round, Clock::time_point start,
             Clock::time_point end, const ResultSet& results,
             const QueryProcessor& engine, SpanLog* log) {
    RoundLatency(1e3 * Seconds(start, end));
    if (log != nullptr) {
      Span s;
      s.name = "round";
      s.episode = episode;
      s.round = round;
      s.start = start;
      s.end = end;
      log->Add(s);
    }
    ++out_->attempted;
    Check(episode, round,
          HashMatches(results.matches(), kAllQueries, Corrupt(episode, round)),
          false, spec_.name);
    out_->peak_engine_bytes = std::max(
        out_->peak_engine_bytes, static_cast<double>(engine.EstimateMemoryUsage()));
    // The in-process consumer reads the result set itself: its buffer.
    AddResultBytes(static_cast<double>(results.EstimateMemoryUsage()),
                   results.size());
  }

  /// Keeps one round's paper quantities: for the printed table of the first
  /// episode, and for the per-layer cluster means when the episode is
  /// traced.
  void KeepCounts(const RoundCounts& c, bool traced) {
    if (traced) totals_->AddClusters(c);
    std::vector<RoundCounts>& table = out_->first_episode_counts;
    if (table.empty() || c.round > table.back().round) table.push_back(c);
  }

  /// Result bytes handed to consumers and the matches they carried.
  void AddResultBytes(double bytes, uint64_t matches) {
    result_bytes_ += bytes;
    result_matches_ += matches;
  }

  /// Closes an episode: its throughput over summed round time, its round
  /// latencies and its result bytes become one sample.
  void EndEpisode(bool traced, double round_seconds, uint32_t rounds,
                  uint32_t consumers) {
    EpisodeSample sample;
    sample.population = population_;
    sample.traced = traced;
    sample.updates_per_s =
        round_seconds > 0 ? static_cast<double>(in_->updates) / round_seconds
                          : 0.0;
    sample.round_ms = std::move(episode_round_ms_);
    episode_round_ms_.clear();
    out_->episode_samples.push_back(std::move(sample));
    if (!traced && rounds > 0 && result_matches_ > 0) {
      out_->result_bytes_per_round.push_back(result_bytes_ /
                                             (rounds * consumers));
      out_->result_bytes_per_match.push_back(result_bytes_ / result_matches_);
    }
    result_bytes_ = 0.0;
    result_matches_ = 0;
    ++out_->episodes;
  }

  /// Snapshot-and-restore recovery of a single engine into a fresh one,
  /// checked by state hash (in-process and run workloads).
  void RecoverSnapshot(uint32_t episode, const ScubaOptions& so,
                       EngineHandle* live, bool traced) {
    const std::string dir =
        opt_.work_dir + "/snapshot-" + std::to_string(episode);
    std::filesystem::remove_all(dir);
    Status st = live->scuba->Checkpoint(dir);
    if (!st.ok()) {
      out_->Fail("checkpoint: " + st.ToString());
      return;
    }
    const uint64_t want = live->StateHash();
    const Clock::time_point t0 = Clock::now();
    Result<EngineHandle> fresh = scuba::MakeEngine(so);
    if (fresh.ok()) st = fresh->scuba->Restore(dir);
    const bool same = fresh.ok() && st.ok() && fresh->StateHash() == want;
    const Clock::time_point t1 = Clock::now();
    ++out_->attempted;
    if (!same) out_->Fail("snapshot restore does not reproduce the live state");
    if (!traced) out_->recover_s.push_back(Seconds(t0, t1));
    std::filesystem::remove_all(dir);
  }

  LayerTotals& totals() { return *totals_; }
  const Inputs& inputs() const { return *in_; }

 private:
  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  LayerTotals* totals_;
  RunResult* out_;
  uint32_t population_ = 0;
  const Inputs* in_ = nullptr;
  const Reference* ref_ = nullptr;
  double result_bytes_ = 0.0;
  uint64_t result_matches_ = 0;
  std::vector<double> episode_round_ms_;
};

// ---------------------------------------------------------------------------
// paper-20k / scale-50k-par: in-memory batches, quarantine screening, one
// engine driven directly.

void RunInProcess(const WorkloadSpec& spec, Runner* runner, uint32_t ep,
                  bool traced, RunResult* out, SpanLog* main_log) {
  const Inputs& in = runner->inputs();
  const ScubaOptions so = EngineOptions(spec, in.region);
  ValidatorConfig vc;
  vc.policy = BadUpdatePolicy::kQuarantine;
  vc.bounds = in.region;
  vc.check_bounds = true;
  vc.node_count = in.network.NodeCount();
  LayerTotals& totals = runner->totals();

  std::vector<std::vector<LocationUpdate>> objects(kDelta);
  std::vector<std::vector<QueryUpdate>> queries(kDelta);
  SpanLog* log = traced ? main_log : nullptr;
  // Set-up takes tens of microseconds here; repeating it gives the
  // set-up median enough samples. The last engine is the one driven.
  Result<EngineHandle> handle = Status::Internal("no engine");
  std::optional<UpdateValidator> validator;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point s0 = Clock::now();
    handle = scuba::MakeEngine(so);
    validator.emplace(vc);
    const Clock::time_point s1 = Clock::now();
    if (!traced) out->setup_s.push_back(Seconds(s0, s1));
  }
  if (!handle.ok()) {
    out->Fail("engine: " + handle.status().ToString());
    return;
  }

  RoundCounts counts;
  CounterSampler sampler;
  TracedEngine wrapper(handle->engine.get(), log, "round", 0, ep, nullptr);
  QueryProcessor* engine = traced ? &wrapper : handle->engine.get();
  ResultSet results;
  double round_seconds = 0.0;
  uint32_t round = 0;
  for (size_t first = 0; first + kDelta <= in.trace.TickCount();
       first += kDelta) {
    ++round;
    for (Timestamp k = 0; k < kDelta; ++k) {
      objects[k] = in.trace.batch(first + k).object_updates;
      queries[k] = in.trace.batch(first + k).query_updates;
    }
    const Clock::time_point t0 = Clock::now();
    Status st;
    for (Timestamp k = 0; k < kDelta && st.ok(); ++k) {
      const Timestamp time = in.trace.batch(first + k).time;
      {
        ScopedSpan span(log, "stream.screen", "round", ep, round, 0, false);
        st = validator->ScreenBatch(time, &objects[k], &queries[k]);
      }
      if (st.ok()) st = engine->IngestBatch(objects[k], queries[k]);
    }
    if (st.ok()) {
      st = engine->Evaluate(in.trace.batch(first + kDelta - 1).time,
                            &results);
    }
    const Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      out->Fail(std::string(spec.name) + ": " + st.ToString());
      return;
    }
    round_seconds += Seconds(t0, t1);
    runner->Round(ep, round, t0, t1, results, *handle->engine, log);
    if (traced || ep == 0) {
      counts.round = round;
      counts.round_ms = 1e3 * Seconds(t0, t1);
      SampleClusters(*handle, &counts);
      sampler.Sample(handle->engine->stats(), results.size(), &counts);
      runner->KeepCounts(counts, traced);
    }
  }
  totals.rejected += validator->stats().TotalRejected();
  if (traced) {
    totals.rounds += round;
    ++totals.episodes;
    totals.AddStats(handle->engine->stats());
  }
  out->rounds_per_episode = round;
  runner->EndEpisode(traced, round_seconds, round, 1);
  runner->RecoverSnapshot(ep, so, &*handle, traced);
}

// ---------------------------------------------------------------------------
// run-20k: the `scuba_cli run` path, strict: trace text → Trace::Parse →
// MakeEngine → ReplayTrace.

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  f << text;
  f.close();
  return f ? Status::OK() : Status::IoError("cannot write " + path);
}

Result<std::string> ReadText(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void RunTraceReplay(const WorkloadSpec& spec, Runner* runner, uint32_t ep,
                    bool traced, RunResult* out, SpanLog* main_log) {
  const Inputs& in = runner->inputs();
  const ScubaOptions so = EngineOptions(spec, in.region);
  LayerTotals& totals = runner->totals();
  const std::string& path = in.trace_path;
  totals.input_bytes = in.trace_bytes;

  const Clock::time_point s0 = Clock::now();
  Result<std::string> text = ReadText(path);
  const Clock::time_point p0 = Clock::now();
  Result<Trace> trace =
      text.ok() ? Trace::Parse(*text) : Result<Trace>(text.status());
  const Clock::time_point p1 = Clock::now();
  Result<EngineHandle> handle = scuba::MakeEngine(so);
  const Clock::time_point s1 = Clock::now();
  if (!trace.ok() || !handle.ok()) {
    out->Fail("setup: " + (trace.ok() ? handle.status() : trace.status())
                              .ToString());
    return;
  }
  out->setup_s.push_back(Seconds(s0, s1));
  totals.parse_s.push_back(Seconds(p0, p1));

  // A replay takes about a tenth of the parse; several replays of one
  // parsed trace, each into a fresh engine, give the round and throughput
  // figures enough samples. Each replay is an episode of its own.
  for (int rep = 0; rep < kReplaysPerParse; ++rep, ++ep) {
    if (rep > 0) handle = scuba::MakeEngine(so);
    if (!handle.ok()) {
      out->Fail("engine: " + handle.status().ToString());
      return;
    }
    SpanLog* log = traced ? main_log : nullptr;
    RoundCounts counts;
    CounterSampler sampler;
    TracedEngine wrapper(handle->engine.get(), log, "round", 0, ep, nullptr);
    QueryProcessor* engine = traced ? &wrapper : handle->engine.get();
    double round_seconds = 0.0;
    uint32_t round = 0;
    Clock::time_point round_start;
    // The sink's own bookkeeping falls between rounds: the next round
    // starts when the sink returns.
    const scuba::ResultSink sink = [&](Timestamp, const ResultSet& results) {
      const Clock::time_point end = Clock::now();
      ++round;
      round_seconds += Seconds(round_start, end);
      runner->Round(ep, round, round_start, end, results, *handle->engine,
                    log);
      if (traced || ep == 0) {
        counts.round = round;
        counts.round_ms = 1e3 * Seconds(round_start, end);
        SampleClusters(*handle, &counts);
        sampler.Sample(handle->engine->stats(), results.size(), &counts);
        runner->KeepCounts(counts, traced);
      }
      round_start = Clock::now();
    };
    round_start = Clock::now();
    Status st = scuba::ReplayTrace(*trace, engine, kDelta, sink);
    if (!st.ok()) {
      out->Fail(std::string(spec.name) + ": " + st.ToString());
      return;
    }
    if (traced) {
      totals.rounds += round;
      ++totals.episodes;
      totals.AddStats(handle->engine->stats());
    }
    out->rounds_per_episode = round;
    runner->EndEpisode(traced, round_seconds, round, 1);
    runner->RecoverSnapshot(ep, so, &*handle, traced);
  }
}

// ---------------------------------------------------------------------------
// serve-20k-durable: loopback server on 4 stripes with WAL + checkpoints;
// one sender, one subscribe-all and one slice subscriber.

/// Fold progress of the subscriber threads; `mu` also guards the
/// subscribers' fold_time, fold_hash and folded_matches.
struct FoldBoard {
  std::mutex mu;
  std::condition_variable cv;
  uint32_t done[2] = {0, 0};
  bool failed = false;
};

struct Subscriber {
  explicit Subscriber(scuba::serve::ScubaClient c) : client(std::move(c)) {}
  scuba::serve::ScubaClient client;
  QueryId slice_end = kAllQueries;
  std::vector<Clock::time_point> fold_time;  ///< By round - 1.
  std::vector<uint64_t> fold_hash;
  uint64_t folded_matches = 0;  ///< Summed fold sizes over the rounds.
  Status error;
};

void SubscriberLoop(Subscriber* sub, int index, uint32_t rounds,
                    bool corrupt_round2, FoldBoard* board) {
  for (uint32_t r = 1; r <= rounds; ++r) {
    while (sub->client.last_round() < r) {
      Result<uint64_t> got = sub->client.PumpRound();
      if (!got.ok()) {
        sub->error = got.status();
        std::lock_guard<std::mutex> lock(board->mu);
        board->failed = true;
        board->cv.notify_all();
        return;
      }
    }
    const Clock::time_point folded = Clock::now();
    const uint64_t hash = HashMatches(sub->client.folded().matches(),
                                      sub->slice_end, corrupt_round2 && r == 2);
    std::lock_guard<std::mutex> lock(board->mu);
    sub->fold_time.push_back(folded);
    sub->fold_hash.push_back(hash);
    sub->folded_matches += sub->client.folded().size();
    board->done[index] = r;
    board->cv.notify_all();
  }
}

void RunServe(const WorkloadSpec& spec, const RunOptions& opt, Runner* runner,
              uint32_t ep, bool traced, RunResult* out,
              SpanLog* main_log) {
  namespace sv = scuba::serve;
  const Inputs& in = runner->inputs();
  const ScubaOptions so = EngineOptions(spec, in.region);
  LayerTotals& totals = runner->totals();
  const QueryId slice_end = spec.queries / 4;
  const uint32_t rounds = static_cast<uint32_t>(in.trace.TickCount() / kDelta);

  std::vector<sv::UpdateBatchMsg> batches(in.trace.TickCount());
  for (size_t i = 0; i < batches.size(); ++i) {
    batches[i].time = in.trace.batch(i).time;
    batches[i].evaluate = (i + 1) % kDelta == 0;
    batches[i].objects = in.trace.batch(i).object_updates;
    batches[i].queries = in.trace.batch(i).query_updates;
  }
  std::vector<QueryId> slice;
  for (QueryId q = 0; q < slice_end; ++q) slice.push_back(q);

  SpanLog* log = traced ? main_log : nullptr;
  const std::string dir = opt.work_dir + "/serve-" + std::to_string(ep);
  std::filesystem::remove_all(dir);

  const Clock::time_point s0 = Clock::now();
  Result<EngineHandle> handle = scuba::MakeEngine(so);
  if (!handle.ok()) {
    out->Fail("engine: " + handle.status().ToString());
    return;
  }
  Result<scuba::DurabilityHandle> durability = scuba::OpenDurability(
      dir, so, &*handle, nullptr, ValidatorConfig{});
  if (!durability.ok()) {
    out->Fail("durability: " + durability.status().ToString());
    return;
  }
  SpanLog server_log;
  std::vector<RoundCounts> server_counts;
  CounterSampler sampler;
  EngineHandle* h = &*handle;
  TracedEngine engine(h->engine.get(), traced ? &server_log : nullptr,
                      "serve.rtt", 1, ep, [&] {
                        if (!traced && ep != 0) return;
                        RoundCounts c;
                        SampleClusters(*h, &c);
                        sampler.Sample(h->engine->stats(), 0, &c);
                        server_counts.push_back(c);
                      });
  // Untraced, the wrappers record no spans; they only forward (and keep
  // the memory peak the server reads after every round).
  TracedSink sink(durability->sink.get(), &engine);
  sv::ServerDeps deps;
  deps.engine = &engine;
  deps.durability = &sink;
  sv::ServeOptions sopt;
  Result<std::unique_ptr<sv::ScubaServer>> server =
      sv::ScubaServer::Create(sopt, deps);
  if (!server.ok()) {
    out->Fail("server: " + server.status().ToString());
    return;
  }
  if (Status st = (*server)->Start(); !st.ok()) {
    out->Fail("server start: " + st.ToString());
    return;
  }
  const uint16_t port = (*server)->port();
  // Stops the server on every exit path below; Wait() joins its thread.
  auto stop_server = [&] {
    (*server)->RequestStop();
    return (*server)->Wait();
  };
  std::vector<std::unique_ptr<Subscriber>> subs;
  Status st;
  for (int i = 0; i < 2 && st.ok(); ++i) {
    Result<sv::ScubaClient> c = sv::ScubaClient::Connect(port);
    if (!c.ok()) {
      st = c.status();
      break;
    }
    subs.push_back(std::make_unique<Subscriber>(std::move(c).value()));
    subs.back()->slice_end = i == 0 ? kAllQueries : slice_end;
    st = i == 0 ? subs.back()->client.SubscribeAll()
                : subs.back()->client.Subscribe(slice);
  }
  Result<sv::ScubaClient> sender =
      st.ok() ? sv::ScubaClient::Connect(port) : Result<sv::ScubaClient>(st);
  if (!sender.ok()) {
    stop_server();
    out->Fail("connect: " + sender.status().ToString());
    return;
  }
  FoldBoard board;
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back(SubscriberLoop, subs[i].get(), i, rounds,
                         runner->Corrupt(ep, 2), &board);
  }
  const Clock::time_point s1 = Clock::now();
  if (!traced) out->setup_s.push_back(Seconds(s0, s1));

  double round_seconds = 0.0;
  uint64_t degraded = 0;
  std::vector<Clock::time_point> round_end;
  std::vector<double> round_ms;
  std::vector<uint64_t> matches;
  uint32_t round = 0;
  for (size_t first = 0; first + kDelta <= batches.size(); first += kDelta) {
    ++round;
    const Clock::time_point t0 = Clock::now();
    Result<sv::TickAckMsg> ack = sv::TickAckMsg{};
    for (Timestamp k = 0; k < kDelta && ack.ok(); ++k) {
      ack = sender->SendBatch(batches[first + k]);
    }
    const Clock::time_point t_ack = Clock::now();
    if (!ack.ok()) {
      st = ack.status();
      break;
    }
    if (ack->degraded) ++degraded;
    std::unique_lock<std::mutex> lock(board.mu);
    board.cv.wait(lock, [&] {
      return board.failed || (board.done[0] >= round && board.done[1] >= round);
    });
    if (board.failed) break;
    const Clock::time_point t1 = std::max(
        {t_ack, subs[0]->fold_time[round - 1], subs[1]->fold_time[round - 1]});
    const uint64_t hashes[2] = {subs[0]->fold_hash[round - 1],
                                subs[1]->fold_hash[round - 1]};
    lock.unlock();
    round_seconds += Seconds(t0, t1);
    round_end.push_back(t1);
    runner->RoundLatency(1e3 * Seconds(t0, t1));
    if (log != nullptr) {
      Span s;
      s.episode = ep;
      s.round = round;
      s.name = "round";
      s.start = t0;
      s.end = t1;
      log->Add(s);
      s.parent = "round";
      s.name = "serve.rtt";
      s.end = t_ack;
      log->Add(s);
      s.name = "serve.fold_wait";
      s.start = t_ack;
      s.end = t1;
      log->Add(s);
    }
    for (int i = 0; i < 2; ++i) {
      ++out->attempted;
      runner->Check(ep, round, hashes[i], i == 1,
                    i == 0 ? "subscriber-all" : "subscriber-slice");
    }
    round_ms.push_back(1e3 * Seconds(t0, t1));
    matches.push_back(ack->matches);
  }
  if (!st.ok() || board.failed) {
    // Closing the server ends the subscribers' blocking reads.
    stop_server();
    for (std::thread& t : threads) t.join();
    out->Fail("serve: " + (st.ok() ? std::string("subscriber failed")
                                   : st.ToString()));
    for (auto& s : subs) {
      if (!s->error.ok()) out->Fail("subscriber: " + s->error.ToString());
    }
    return;
  }
  for (std::thread& t : threads) t.join();
  (void)sender->Bye();
  for (auto& s : subs) (void)s->client.Bye();
  if (Status ws = stop_server(); !ws.ok()) {
    out->Fail("server: " + ws.ToString());
    return;
  }
  const sv::ServerStats ss = (*server)->stats();
  out->peak_engine_bytes = std::max(out->peak_engine_bytes,
                                    static_cast<double>(engine.peak_bytes()));
  for (auto& s : subs) {
    runner->AddResultBytes(
        static_cast<double>(s->client.result_bytes_received()),
        s->folded_matches);
  }
  if (traced) {
    totals.rounds += round;
    ++totals.episodes;
    totals.AddStats(h->engine->stats());
    totals.ghosts += h->sharded->ghosts_published();
    totals.handoffs += h->sharded->handoffs();
    totals.degraded_rounds += degraded;
    totals.deltas += ss.deltas_pushed;
    totals.coalesces += ss.coalesces;
    totals.disconnects += ss.disconnects;
    for (auto& s : subs) {
      // The subscribe acknowledgement is a snapshot too; count the rest.
      totals.snapshots += s->client.snapshots_received() - 1;
    }

    const auto& eval_end = engine.evaluate_end();
    for (size_t r = 0; r < eval_end.size() && r < round_end.size(); ++r) {
      totals.fanout_ms.push_back(1e3 * Seconds(eval_end[r], round_end[r]));
    }

    out->span_logs.push_back(std::move(server_log));
  }
  for (uint32_t r = 0; r < round && r < server_counts.size(); ++r) {
    RoundCounts c = server_counts[r];
    c.round = r + 1;
    c.round_ms = round_ms[r];
    c.results = matches[r];
    runner->KeepCounts(c, traced);
  }
  out->rounds_per_episode = round;
  runner->EndEpisode(traced, round_seconds, round,
                     static_cast<uint32_t>(subs.size()));

  // Recovery: the live server's state against a fresh engine rebuilt from
  // the durable directory.
  const uint64_t want = h->StateHash();
  server->reset();
  durability->sink.reset();
  const Clock::time_point r0 = Clock::now();
  Result<EngineHandle> fresh = scuba::MakeEngine(so);
  Result<scuba::ShardedRecoveryReport> report =
      fresh.ok() ? scuba::RecoverShardedEngine(dir, fresh->sharded, nullptr,
                                               nullptr)
                 : Result<scuba::ShardedRecoveryReport>(fresh.status());
  const bool same = report.ok() && fresh->StateHash() == want;
  const Clock::time_point r1 = Clock::now();
  ++out->attempted;
  if (!same) {
    out->Fail("recovery does not reproduce the live server state" +
              (report.ok() ? std::string()
                           : ": " + report.status().ToString()));
  } else if (traced) {
    totals.replayed_batches += report->batches_replayed;
    ++totals.recoveries;
  }
  if (!traced) out->recover_s.push_back(Seconds(r0, r1));
  std::filesystem::remove_all(dir);
}

void SetLayers(const WorkloadSpec& spec, const RunOptions& opt,
               const LayerTotals& t, RunResult* out) {
  std::vector<const SpanLog*> logs;
  for (const SpanLog& l : out->span_logs) logs.push_back(&l);
  const Ledger ledger(logs);
  const double rounds = t.rounds > 0 ? static_cast<double>(t.rounds) : 1.0;
  auto set = [&](const char* name, double value, const char* unit) {
    out->layers[name] = LayerMetric{value, unit};
  };
  auto per_round = [&](const std::string& layer) {
    return ledger.layer(layer).self_seconds / rounds;
  };
  const LayerRow& ingest = ledger.layer("core.ingest");
  const LayerRow& eval = ledger.layer("core.evaluate");
  const double cpu_wall = ingest.cpu_wall_seconds + eval.cpu_wall_seconds;

  set("gen.parse_s", Median(t.parse_s), "s");
  set("gen.input_bytes", static_cast<double>(t.input_bytes), "bytes");
  set("stream.screen_s", per_round("stream.screen"), "s/round");
  set("stream.rejected", static_cast<double>(t.rejected), "count");
  set("core.ingest_s", per_round("core.ingest"), "s/round");
  set("core.evaluate_s", per_round("core.evaluate"), "s/round");
  set("core.ingest_cpu_s", ingest.cpu_seconds / rounds, "s/round");
  set("core.evaluate_cpu_s", eval.cpu_seconds / rounds, "s/round");
  set("core.parallelism",
      cpu_wall > 0 ? (ingest.cpu_seconds + eval.cpu_seconds) / cpu_wall : 0.0,
      "ratio");
  const EvalStats& s = t.stats;
  set("core.comparisons", static_cast<double>(s.comparisons) / rounds,
      "count/round");
  set("core.bounds_checks", static_cast<double>(s.bounds_checks) / rounds,
      "count/round");
  set("core.results", static_cast<double>(s.total_results) / rounds,
      "count/round");
  set("core.hit_ratio",
      s.comparisons > 0
          ? static_cast<double>(s.total_results) / s.comparisons
          : 0.0,
      "ratio");
  set("core.pairs_tested", static_cast<double>(s.cluster_pairs_tested) / rounds,
      "count/round");
  set("core.pairs_pruned_ratio",
      s.cluster_pairs_tested > 0
          ? 1.0 - static_cast<double>(s.cluster_pairs_overlapping) /
                      s.cluster_pairs_tested
          : 0.0,
      "ratio");
  const double samples =
      t.cluster_samples > 0 ? static_cast<double>(t.cluster_samples) : 1.0;
  set("cluster.count", t.clusters / samples, "count");
  set("cluster.members_mean", t.members_per_cluster / samples, "count");
  set("shard.ghosts_per_round", static_cast<double>(t.ghosts) / rounds,
      "count/round");
  set("shard.handoffs_per_round", static_cast<double>(t.handoffs) / rounds,
      "count/round");
  set("shard.degraded_rounds", static_cast<double>(t.degraded_rounds), "count");
  set("persist.wal_append_s", per_round("persist.wal_append"), "s/round");
  set("persist.wal_bytes", static_cast<double>(s.wal_bytes_appended) / rounds,
      "bytes/round");
  set("persist.wal_fsyncs", static_cast<double>(s.wal_fsyncs) / rounds,
      "count/round");
  set("persist.checkpoint_s", per_round("persist.checkpoint"), "s/round");
  set("persist.checkpoints",
      t.episodes > 0 ? static_cast<double>(s.checkpoints_written) / t.episodes
                     : 0.0,
      "count/episode");
  set("persist.replayed_batches",
      t.recoveries > 0 ? static_cast<double>(t.replayed_batches) / t.recoveries
                       : 0.0,
      "count/recovery");
  set("serve.batch_rtt_s", ledger.layer("serve.rtt").busy_seconds / rounds,
      "s/round");
  set("serve.self_s", per_round("serve.rtt") + per_round("serve.fold_wait"),
      "s/round");
  set("serve.fanout_ms_p50", Median(t.fanout_ms), "ms");
  set("serve.deltas", static_cast<double>(t.deltas) / rounds, "count/round");
  set("serve.snapshots", static_cast<double>(t.snapshots), "count");
  set("serve.coalesces", static_cast<double>(t.coalesces), "count");
  set("serve.disconnects", static_cast<double>(t.disconnects), "count");
  set("serve.result_bytes_per_round",
      spec.shape == Shape::kServe ? Median(out->result_bytes_per_round) : 0.0,
      "bytes");
  set("ledger.other_s", per_round("other"), "s/round");
  set("ledger.sum_error", ledger.SumError(), "ratio");
  auto quiet_rate = [&](bool traced) {
    std::vector<double> v;
    for (const EpisodeSample* e : QuietEpisodes(*out, traced)) {
      v.push_back(e->updates_per_s);
    }
    return Median(v);
  };
  const double untraced = quiet_rate(false);
  set("trace.overhead", untraced > 0 ? 1.0 - quiet_rate(true) / untraced : 0.0,
      "ratio");

  constexpr double kMaxSumError = 0.05;
  if (ledger.SumError() > kMaxSumError) {
    out->Fail("ledger: layer self times miss the round wall by " +
              std::to_string(100.0 * ledger.SumError()) + "%");
  }
  std::printf("ledger %s (%llu traced rounds):\n%s", spec.name,
              static_cast<unsigned long long>(ledger.rounds()),
              ledger.Format().c_str());
  const std::string path =
      opt.work_dir + "/spans-" + spec.name + "-seed" + std::to_string(opt.seed) +
      ".jsonl";
  if (ledger.WriteJsonl(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    out->Fail("cannot write " + path);
  }
}


/// What a run keeps of each population between preparing it and running it.
struct Population {
  uint64_t seed = 0;
  uint64_t updates = 0;
  Reference ref;
  std::string trace_path;  ///< run-20k: its trace text, written once.
  uint64_t trace_bytes = 0;
  Status status;
};

/// Generates every population and replays it into the exact reference,
/// on a few threads, before any clock starts. Only the reference hashes
/// are kept (and, for run-20k, the trace text on disk): the others
/// regenerate their batches just before they run, which takes a tenth of
/// the reference's time.
std::vector<Population> PreparePopulations(const WorkloadSpec& spec,
                                           const RunOptions& opt) {
  std::vector<Population> pops(spec.populations);
  for (size_t i = 0; i < pops.size(); ++i) {
    pops[i].seed = opt.seed * kMaxPopulations + i;
  }
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < pops.size(); i = next++) {
      Population& p = pops[i];
      Inputs in;
      p.status = MakeCity(&in);
      if (p.status.ok()) p.status = MakeTrace(spec, p.seed, &in);
      if (p.status.ok() && spec.shape == Shape::kRunTrace) {
        // The run path reads text: the reference sees what parsing yields.
        const std::string text = in.trace.Serialize();
        p.trace_path =
            opt.work_dir + "/population-" + std::to_string(i) + ".trace";
        p.trace_bytes = text.size();
        p.status = WriteText(p.trace_path, text);
        Result<Trace> parsed = Trace::Parse(text);
        if (!parsed.ok()) p.status = parsed.status();
        if (p.status.ok()) in.trace = std::move(parsed).value();
      }
      if (!p.status.ok()) continue;
      p.updates = in.trace.TotalUpdates();
      Result<Reference> ref = ComputeReference(in, spec.queries / 4);
      if (ref.ok()) {
        p.ref = std::move(ref).value();
      } else {
        p.status = ref.status();
      }
    }
  };
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return pops;
}

}  // namespace

std::vector<const EpisodeSample*> QuietEpisodes(const RunResult& result,
                                                bool traced) {
  std::map<uint32_t, std::vector<const EpisodeSample*>> by_population;
  for (const EpisodeSample& e : result.episode_samples) {
    if (e.traced == traced) by_population[e.population].push_back(&e);
  }
  std::vector<const EpisodeSample*> quiet;
  for (auto& [population, episodes] : by_population) {
    std::sort(episodes.begin(), episodes.end(),
              [](const EpisodeSample* a, const EpisodeSample* b) {
                return a->updates_per_s > b->updates_per_s;
              });
    quiet.insert(quiet.end(), episodes.begin(),
                 episodes.begin() + (episodes.size() + 1) / 2);
  }
  return quiet;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadSpec& s : kSpecs) n.push_back(s.name);
    return n;
  }();
  return names;
}


RunResult RunWorkload(const RunOptions& opt) {
  RunResult out;
  const WorkloadSpec* spec = FindSpec(opt.workload);
  if (spec == nullptr) {
    out.Fail("unknown workload " + opt.workload);
    return out;
  }
  out.entities = spec->objects + spec->queries;
  const Clock::time_point g0 = Clock::now();
  std::vector<Population> pops = PreparePopulations(*spec, opt);
  std::printf("prepared %zu populations (seeds %llu..%llu) in %.3f s\n",
              pops.size(),
              static_cast<unsigned long long>(pops.front().seed),
              static_cast<unsigned long long>(pops.back().seed),
              Seconds(g0, Clock::now()));
  Inputs in;
  if (Status st = MakeCity(&in); !st.ok()) out.Fail("city: " + st.ToString());
  for (const Population& p : pops) {
    if (!p.status.ok()) out.Fail("population: " + p.status.ToString());
  }

  // Passes over the populations, one episode each, until the time is spent:
  // a population's repetitions spread over the whole run, so the faster half
  // of them can miss a slow spell of the host. A trace run alternates
  // untraced and traced passes.
  LayerTotals totals;
  SpanLog main_log;
  Runner runner(*spec, opt, &totals, &out);
  const uint32_t min_passes = opt.trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  uint32_t ep = 0;
  for (uint32_t pass = 0; out.failed == 0; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    for (uint32_t p = 0; p < pops.size() && out.failed == 0; ++p) {
      if (pass >= min_passes && Seconds(start, Clock::now()) >= opt.seconds) {
        break;
      }
      const Population& pop = pops[p];
      if (spec->shape != Shape::kRunTrace) {
        // Regenerating takes a tenth of an episode; keeping every
        // population's batches would take hundreds of megabytes.
        if (Status st = MakeTrace(*spec, pop.seed, &in); !st.ok()) {
          out.Fail("population: " + st.ToString());
          break;
        }
      }
      in.updates = pop.updates;
      in.trace_path = pop.trace_path;
      in.trace_bytes = pop.trace_bytes;
      out.updates_per_episode = in.updates;
      runner.SetPopulation(p, &in, &pop.ref);
      switch (spec->shape) {
        case Shape::kInProcess:
          RunInProcess(*spec, &runner, ep++, traced, &out, &main_log);
          break;
        case Shape::kRunTrace:
          RunTraceReplay(*spec, &runner, ep, traced, &out, &main_log);
          ep += kReplaysPerParse;
          break;
        case Shape::kServe:
          RunServe(*spec, opt, &runner, ep++, traced, &out, &main_log);
          break;
      }
    }
    if (pass + 1 >= min_passes && Seconds(start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  for (const Population& p : pops) {
    if (!p.trace_path.empty()) std::filesystem::remove(p.trace_path);
  }
  if (opt.trace && out.failed == 0) {
    out.span_logs.push_back(std::move(main_log));
    SetLayers(*spec, opt, totals, &out);
  }
  return out;
}

}  // namespace perfbench
