// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             --work-dir DIR [--self-check] [--commit SHA] [--source SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics and the ledger. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is 0 only when every round matched the exact reference.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Args {
  RunOptions run;
  std::string commit = "unknown";
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args->run.self_check = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->run.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->run.trace = value == "1";
    } else if (flag == "--work-dir") {
      args->run.work_dir = value;
      have_dir = true;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source") {
      args->source = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && have_dir;
}

/// End-to-end metrics and the samples behind them.
struct Report {
  std::map<std::string, Metric> metrics;
  size_t quiet_episodes = 0;
  size_t untraced_episodes = 0;
  size_t rounds = 0;
  double tail_p = 50.0;
};

// Durations are the lower quartile of their repetitions and rates come from
// the faster half of each population's episodes: slowdowns from other
// tenants of a shared host only ever add time (see QuietEpisodes).
Report EndToEnd(const RunResult& r) {
  Report rep;
  std::vector<double> rates;
  std::vector<double> rounds;
  for (const EpisodeSample* e : QuietEpisodes(r, false)) {
    rates.push_back(e->updates_per_s);
    rounds.insert(rounds.end(), e->round_ms.begin(), e->round_ms.end());
  }
  for (const EpisodeSample& e : r.episode_samples) {
    if (!e.traced) ++rep.untraced_episodes;
  }
  rep.quiet_episodes = rates.size();
  rep.rounds = rounds.size();
  rep.tail_p = TailPercentile(rounds.size());
  auto& m = rep.metrics;
  m["setup_s"] = {Quantile(r.setup_s, 0.25), "s"};
  m["updates_per_s"] = {Median(rates), "1/s"};
  m["round_ms_p50"] = {Percentile(rounds, 50.0), "ms"};
  m["round_ms_tail"] = {Percentile(rounds, rep.tail_p), "ms"};
  m["engine_mb"] = {r.peak_engine_bytes / 1e6, "MB"};
  m["recover_s"] = {Quantile(r.recover_s, 0.25), "s"};
  m["result_bytes_per_match"] = {Median(r.result_bytes_per_match), "bytes"};
  return rep;
}

void PrintContext(const Args& args, const RunResult& r, const Report& rep) {
  const char* build = PERFBENCH_BUILD_TYPE;
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
      "build=%s compiler=\"%s\" commit=%s source=%s\n",
      args.run.workload.c_str(),
      static_cast<unsigned long long>(args.run.seed), args.run.seconds,
      args.run.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), build,
      __VERSION__, args.commit.c_str(), args.source.c_str());
  if (std::strcmp(build, "Release") != 0) {
    std::printf("WARNING: build type %s is not Release; timings are not "
                "comparable with Release runs\n",
                build);
  }
  std::printf(
      "run: entities=%llu episodes=%u rounds/episode=%u updates/episode=%llu\n"
      "samples: setup_s q25 of n=%zu; updates_per_s median of the faster "
      "half, n=%zu of %zu episodes; round_ms over their n=%zu rounds, tail "
      "p%g (%.0f beyond); recover_s q25 of n=%zu\n",
      static_cast<unsigned long long>(r.entities), r.episodes,
      r.rounds_per_episode,
      static_cast<unsigned long long>(r.updates_per_episode), r.setup_s.size(),
      rep.quiet_episodes, rep.untraced_episodes, rep.rounds, rep.tail_p,
      std::floor(static_cast<double>(rep.rounds) * (1.0 - rep.tail_p / 100)),
      r.recover_s.size());
}

void PrintCounts(const RunResult& r) {
  if (r.first_episode_counts.empty()) return;
  std::printf("per-round counts (first episode):\n");
  std::printf("%6s %10s %9s %12s %10s %12s %10s\n", "round", "round_ms",
              "clusters", "members/cl", "pruned", "comparisons", "results");
  for (const RoundCounts& c : r.first_episode_counts) {
    std::printf("%6u %10.3f %9llu %12.2f %10.4f %12llu %10llu\n", c.round,
                c.round_ms, static_cast<unsigned long long>(c.clusters),
                c.members_per_cluster, c.pairs_pruned_ratio,
                static_cast<unsigned long long>(c.comparisons),
                static_cast<unsigned long long>(c.results));
  }
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  char buf[160];
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    out += buf;
    first = false;
  }
  return out + "}";
}

/// Runs one workload in one mode; returns its metrics (prefixed when
/// `prefix` is set) and accumulates the counts.
std::map<std::string, Metric> RunOne(const Args& args, const std::string& prefix,
                                     uint64_t* attempted, uint64_t* failed,
                                     bool* correct) {
  RunResult r = RunWorkload(args.run);
  const Report rep = EndToEnd(r);
  PrintContext(args, r, rep);
  std::map<std::string, Metric> metrics;
  const std::map<std::string, Metric>& e2e = rep.metrics;
  if (!args.run.trace) {
    metrics = e2e;
  } else {
    for (const auto& [name, m] : r.layers) metrics[name] = {m.value, m.unit};
  }
  PrintCounts(r);
  const double ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("end-to-end%s:", args.run.trace ? " (untraced episodes)" : "");
  for (const auto& [name, m] : e2e) {
    std::printf(" %s=%.6g %s;", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(" failed_ratio=%.6g (%llu/%llu)\n", ratio,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("updates_per_s by episode (population:value, t = traced):");
  for (const EpisodeSample& e : r.episode_samples) {
    std::printf(" %u:%s%.4g", e.population, e.traced ? "t" : "",
                e.updates_per_s);
  }
  std::printf("\n");
  for (const std::string& e : r.errors) std::printf("FAILED: %s\n", e.c_str());
  *attempted += std::max<uint64_t>(r.attempted, 1);
  *failed += r.failed;
  if (r.failed > 0 || r.attempted == 0) *correct = false;
  std::map<std::string, Metric> out;
  for (const auto& [name, m] : metrics) out[prefix + name] = m;
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME|all --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--self-check] [--commit SHA] "
                 "[--source SHA]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.run.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.run.work_dir.c_str());
    return 2;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  if (args.run.workload == "all") {
    // Every workload untraced, then traced.
    for (const std::string& name : WorkloadNames()) {
      for (bool trace : {false, true}) {
        Args one = args;
        one.run.workload = name;
        one.run.trace = trace;
        auto m = RunOne(one, name + (trace ? "/trace/" : "/"), &attempted,
                        &failed, &correct);
        metrics.insert(m.begin(), m.end());
      }
    }
  } else {
    metrics = RunOne(args, "", &attempted, &failed, &correct);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
