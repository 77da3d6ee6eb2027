// Parallel stable-model search bench: wall time of the branch-tree engine
// (src/search/) at 1/2/4/8 worker threads, per workload. This is the bench
// behind the `search` axis of BENCH_ablation_axis.json: tools/run_benches.sh
// stores the report as BENCH_search.json and distills per-workload thread
// rows (speedup over the 1-thread run, which takes the exact sequential
// in-line path of the work pool), and tools/check_ablation_axis.py gates CI
// on the flagship 4-thread speedup.
//
// Like bench_scale this binary is self-timed and prints a native JSON
// report on stdout. Each (workload, threads, variant) config is repeated
// kRepetitions times, every repetition in its own forked child so
// allocator and registry state never leak between timings; the
// repetitions of one workload run in rounds over all its configs, so a
// slow spell of a shared host hits every thread count alike. A child runs
// the engine once to warm its pools, then times kTimedRuns further runs
// and reports their median (enumeration is deterministic, so every run
// does identical work, and one enumeration takes only milliseconds). A
// row records the median of the repetitions as `wall_ms` (the figure the
// checker reads), the fastest as `wall_ms_min`, and `spread` =
// (max - min) / median, all over the per-fork medians.
//
// Every row carries the model count, the node count, the S_P evaluations
// of the whole enumeration (`sp_calls`, leaf stability checks included),
// and an FNV-1a hash of
// the full emission sequence (model set AND order), so the distiller can
// assert that every thread count produced the bit-identical enumeration —
// the subsystem's core contract — before any wall-clock ratio is trusted.
//
// Workloads: EvenCycleClusters(k, chain_len) — k independent even negative
// cycles (2^k stable models, a full depth-k branch tree) with a chain of
// chain_len alternating atoms per cluster so each node's propagation does
// real per-node fixpoint work. The `seeded` variant rows re-run the
// 1-thread flagship with the root propagation seeded from a precomputed
// well-founded model (the Solver::StableModels warm path); info only, not
// gated.

#include <unistd.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "workload/programs.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  const char* workload;
  int clusters;
  int chain_len;
};

// The flagship row is EvenCycleClusters/12x24: 4096 stable models over a
// 4096-leaf branch tree, ~300 atoms of per-node propagation. The second
// row trades tree width for per-node propagation depth.
constexpr Config kConfigs[] = {
    {"EvenCycleClusters/12x24", 12, 24},
    {"EvenCycleClusters/9x48", 9, 48},
};

constexpr int kThreadCounts[] = {1, 2, 4, 8};

/// Forked repetitions per config; the row reports their median.
constexpr int kRepetitions = 5;
/// Timed enumerations per forked repetition; the fork reports their
/// median, so one descheduled enumeration cannot move a row.
constexpr int kTimedRuns = 41;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             b - a)
      .count();
}

/// FNV-1a over the emission sequence: model index boundaries and the set
/// bits of each model, in order. Identical across thread counts iff the
/// enumeration (set and order) is identical.
std::uint64_t HashModels(const std::vector<afp::Bitset>& models) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const afp::Bitset& m : models) {
    mix(0xFFFFFFFFFFFFFFFFull);  // model boundary
    m.ForEach([&](std::size_t a) { mix(a); });
  }
  return h;
}

/// Runs one repetition of a (workload, threads, variant) config and
/// returns "<wall_ms> <JSON fields>", the fields without the timing ones.
/// Called in a forked child; must not touch the parent's report state.
std::string RunConfig(const Config& cfg, int threads, bool seeded) {
  afp::Program program =
      afp::workload::EvenCycleClusters(cfg.clusters, cfg.chain_len);
  afp::GroundOptions gopts;
  gopts.mode = afp::GroundMode::kFull;
  auto ground = afp::Grounder::Ground(program, gopts);
  if (!ground.ok()) {
    std::fprintf(stderr, "bench_search: %s: %s\n", cfg.workload,
                 ground.status().ToString().c_str());
    return {};
  }
  afp::GroundProgram gp = std::move(ground).value();

  afp::ParallelSearchOptions popts;
  popts.num_threads = threads;
  afp::ParallelStableSearch engine(gp, popts);
  if (seeded) {
    // The Solver warm path: root propagation replaced by the session's
    // cached well-founded model. Computed outside the timed region.
    afp::AfpResult wfs = afp::AlternatingFixpoint(gp);
    engine.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
  }

  // A warm-up run, then the timed ones on the warm engine.
  engine.Enumerate();
  afp::ParallelSearchResult result;
  std::vector<double> times;
  for (int run = 0; run < kTimedRuns; ++run) {
    result = afp::ParallelSearchResult();  // frees the last run's models
    const auto t0 = Clock::now();
    result = engine.Enumerate();
    times.push_back(Ms(t0, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  const double wall_ms = times[times.size() / 2];

  const afp::StableSearchStats& s = result.search;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%.6f \"models\": %llu, \"nodes\": %llu, \"afp_calls\": %llu, "
      "\"sp_calls\": %llu, \"implied_atoms\": %llu, \"steals\": %llu, "
      "\"idle_waits\": %llu, \"model_hash\": \"%016llx\"",
      wall_ms, static_cast<unsigned long long>(s.models),
      static_cast<unsigned long long>(s.nodes),
      static_cast<unsigned long long>(s.afp_calls),
      static_cast<unsigned long long>(result.eval.sp_calls),
      static_cast<unsigned long long>(s.implied_atoms),
      static_cast<unsigned long long>(s.steals),
      static_cast<unsigned long long>(s.idle_waits),
      static_cast<unsigned long long>(HashModels(result.models)));
  return buf;
}

/// Forks a child to run one repetition; the child writes its sample to a
/// pipe and exits without running atexit handlers. Returns the sample, or
/// "" on any child failure (reported on stderr by the child).
std::string RunConfigForked(const Config& cfg, int threads, bool seeded) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("bench_search: pipe");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_search: fork");
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string row = RunConfig(cfg, threads, seeded);
    std::size_t off = 0;
    while (off < row.size()) {
      const ssize_t n = write(fds[1], row.data() + off, row.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(row.empty() ? 1 : 0);
  }
  close(fds[1]);
  std::string row;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    row.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return row;
}

/// One forked repetition's result: its median wall time and the JSON
/// counter fields.
struct Sample {
  double wall_ms;
  std::string fields;
};

/// The JSON row of one config from its kRepetitions samples: the timing
/// summary plus the counters of the median repetition (the enumeration
/// counters are identical in every repetition; steals and idle waits are
/// not).
std::string Summarize(const Config& cfg, int threads, bool seeded,
                      std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.wall_ms < b.wall_ms;
            });
  const Sample& median = samples[samples.size() / 2];
  const double spread =
      median.wall_ms > 0
          ? (samples.back().wall_ms - samples.front().wall_ms) / median.wall_ms
          : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"threads\": %d, "
                "\"variant\": \"%s\", \"wall_ms\": %.2f, "
                "\"wall_ms_min\": %.2f, \"spread\": %.3f, "
                "\"repetitions\": %d, \"timed_runs\": %d, ",
                cfg.workload, threads, seeded ? "seeded" : "unseeded",
                median.wall_ms, samples.front().wall_ms, spread,
                kRepetitions, kTimedRuns);
  return buf + median.fields + "}";
}

}  // namespace

int main() {
  // Per workload: the unseeded thread counts, then the seeded-root info
  // row (the Solver warm path) at 1 thread.
  struct Variant {
    int threads;
    bool seeded;
  };
  std::vector<Variant> variants;
  for (int threads : kThreadCounts) variants.push_back({threads, false});
  variants.push_back({1, true});

  std::vector<std::string> rows;
  for (const Config& cfg : kConfigs) {
    // Repetitions run in rounds over every variant, so a slow spell of a
    // shared host lands on all thread counts alike rather than on one.
    std::vector<std::vector<Sample>> samples(variants.size());
    for (int rep = 0; rep < kRepetitions; ++rep) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        const std::string out =
            RunConfigForked(cfg, variants[v].threads, variants[v].seeded);
        char* end = nullptr;
        const double ms = std::strtod(out.c_str(), &end);
        if (out.empty() || end == out.c_str()) {
          std::fprintf(stderr, "bench_search: config %s/%d%s failed\n",
                       cfg.workload, variants[v].threads,
                       variants[v].seeded ? " seeded" : "");
          return 1;
        }
        samples[v].push_back({ms, std::string(end + 1)});
      }
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
      rows.push_back(Summarize(cfg, variants[v].threads, variants[v].seeded,
                               std::move(samples[v])));
    }
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_search\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("    %s%s\n", rows[i].c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
