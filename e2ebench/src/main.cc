// End-to-end benchmark binary: one workload in this process.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--graph-seed <n>] [--size full|tiny] [--spans-out <path>]
//            [--git-rev <rev>]
//
// After set-up the workload's loop runs for --seconds: the first tenth is
// a warm-up whose timings are dropped, the rest is measured.
// Untraced (--trace 0): reports the end-to-end metrics setup_s,
// peak_rss_mb and op_us_p50 (the workload's main operation).
// Traced (--trace 1): a span around every call into a library layer;
// reports the per-layer metrics, self times and the tracing overhead, and
// writes the spans to --spans-out.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it records seeds, program shape and an
// environment stamp. Exit status 1 when any oracle disagrees.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.h"
#include "util/rss.h"
#include "workloads.h"

namespace {

using e2e::MetricMap;
using e2e::Segment;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Layers whose self time the traced run reports (span layer names).
constexpr const char* kLayers[] = {"parser", "ground", "analysis", "core",
                                   "exec",   "search", "afp"};

constexpr MetricSpec kPerLayer[] = {
    {"parser.parse_ms", "ms"},
    {"parser.mb_per_s", "MB/s"},
    {"parser.resolve_us_p50", "us"},
    {"ground.ground_ms", "ms"},
    {"ground.atoms", "count"},
    {"ground.rules", "count"},
    {"ground.probes_per_atom", "ratio"},
    {"ground.rules_reground_per_op", "count"},
    {"analysis.condense_ms", "ms"},
    {"analysis.components", "count"},
    {"analysis.graph_rebuilds", "count"},
    {"core.solve_ms", "ms"},
    {"core.sp_calls", "count"},
    {"core.rules_rescanned", "count"},
    {"core.select_ms", "ms"},
    {"core.repair_us_p50", "us"},
    {"core.repair_us_p99", "us"},
    {"core.components_resolved_per_update", "count"},
    {"core.components_downstream_per_update", "count"},
    {"core.kernel_components", "count"},
    {"exec.wavefront_noop_ms", "ms"},
    {"exec.workpool_noop_ms", "ms"},
    {"exec.max_wavefront_width", "count"},
    {"exec.idle_waits", "count"},
    {"exec.steals", "count"},
    {"search.nodes", "count"},
    {"search.afp_calls", "count"},
    {"search.steals", "count"},
    {"search.idle_waits", "count"},
    {"search.worker_imbalance", "ratio"},
    {"search.useful_ratio", "ratio"},
    {"afp.update_self_us_p50", "us"},
    {"afp.query_us_p50", "us"},
    {"afp.query_us_p99", "us"},
    {"afp.rule_update_us_p50", "us"},
    {"parser.self_ms", "ms"},
    {"ground.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"exec.self_ms", "ms"},
    {"search.self_ms", "ms"},
    {"afp.self_ms", "ms"},
    {"trace.residual_ms", "ms"},
    {"trace.residual_pct", "%"},
    {"trace.overhead_pct", "%"},
};

constexpr std::uint64_t kDefaultGraphSeed = 1;
// Share of --seconds run as a warm-up before the measured part.
constexpr double kWarmupShare = 0.1;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest round-trip text of `v` (all its digits); non-finite as 0.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

// Moves the calling thread onto the first allowed CPU and unpins it again;
// the scheduler then leaves it there. Without this the kernel started the
// main thread on a different CPU each run, and on a 4-vCPU KVM guest the
// update p99 (the main thread spawns the repair workers) came out 2x apart
// between CPU 0 and the others.
void StartOnFirstCpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_yield();
      sched_setaffinity(0, sizeof(all), &all);
    }
    return;
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--graph-seed <n>] [--size "
               "full|tiny] [--spans-out <path>] [--git-rev <rev>]\n",
               msg);
  return 2;
}

bool ParseU64(const char* s, std::uint64_t* out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_out, git_rev = "unknown";
  std::uint64_t seed = 0, trace = 0, graph_seed = kDefaultGraphSeed;
  bool have_seed = false;
  double seconds = 0.0;
  e2e::Size size = e2e::Size::kFull;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = have_seed = ParseU64(value, &seed);
    } else if (flag == "--graph-seed") {
      ok = ParseU64(value, &graph_seed);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value, &end);
      ok = end && *end == '\0' && seconds > 0 && seconds <= 3600;
    } else if (flag == "--trace") {
      ok = ParseU64(value, &trace) && trace <= 1;
    } else if (flag == "--size") {
      const std::string v = value;
      ok = v == "full" || v == "tiny";
      size = v == "full" ? e2e::Size::kFull : e2e::Size::kTiny;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag).c_str());
  }
  if (std::find(std::begin(e2e::kWorkloadNames), std::end(e2e::kWorkloadNames),
                workload) == std::end(e2e::kWorkloadNames)) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed) return Usage("--seed is required");
  if (!(seconds > 0)) return Usage("--seconds is required");

  const int nproc = Nproc();
  StartOnFirstCpu();
  e2e::SpanRecorder recorder;
  e2e::RunConfig cfg;
  cfg.size = size;
  // --seed drives the op streams. The graphs are fixed instances unless
  // --graph-seed is given: between instances of these shapes the repair
  // cost moves by more than the metrics' bounds.
  cfg.graph_seed = graph_seed;
  cfg.op_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  // Sessions keep the library's default of one thread, except the stable
  // search, which is the parallel path this benchmark measures. With
  // num_threads = 4 a fact update was 7x slower than with 1 and spread
  // 0.38 between runs on a 4-vCPU guest (README.md).
  cfg.threads = std::min(4, nproc);
  cfg.rec = trace ? &recorder : nullptr;

  std::unique_ptr<e2e::Workload> w = e2e::MakeWorkload(workload, cfg);
  w->Run(seconds * kWarmupShare);
  w->DropSamples();
  w->Run(seconds * (1 - kWarmupShare));
  Segment seg = w->Finish();
  w.reset();
  const double peak_rss_mb =
      static_cast<double>(afp::PeakRssBytes()) / (1024.0 * 1024.0);

  MetricMap& layer_metrics = seg.layer;
  if (trace) {
    const std::vector<e2e::SpanRecord> spans = recorder.Records();
    const e2e::SelfTimes self = e2e::ComputeSelfTimes(spans);
    const double iters = static_cast<double>(std::max<std::size_t>(1, self.iterations));
    for (const char* layer : kLayers) {
      const auto it = self.layer_ms.find(layer);
      layer_metrics[std::string(layer) + ".self_ms"] = e2e::Metric{
          it == self.layer_ms.end() ? 0.0 : it->second / iters, "ms"};
    }
    const auto residual = self.layer_ms.find("e2e");
    const double residual_ms =
        residual == self.layer_ms.end() ? 0.0 : residual->second;
    layer_metrics["trace.residual_ms"] = e2e::Metric{residual_ms / iters, "ms"};
    layer_metrics["trace.residual_pct"] = e2e::Metric{
        self.e2e_ms > 0 ? residual_ms / self.e2e_ms * 100.0 : 0.0, "%"};
    if (!spans_out.empty() && !recorder.WriteTsv(spans_out)) {
      std::fprintf(stderr, "e2ebench: could not write %s\n", spans_out.c_str());
    }
  }

  // Result: untraced, the end-to-end metrics;
  // traced, every per-layer metric (0 where the workload does not touch
  // the layer).
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value,
                        const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layer_metrics.find(spec.name);
      add(spec.name, it == layer_metrics.end() ? 0.0 : it->second.value,
          spec.unit);
    }
  } else {
    seg.e2e["peak_rss_mb"] = e2e::Metric{peak_rss_mb, "MB"};
    for (const auto& [name, m] : seg.e2e) add(name, m.value, m.unit);
  }
  const e2e::Tally& tally = seg.tally;
  const bool correct = tally.failed == 0 && tally.attempted > 0;

  std::string info = "{\"workload\": " + JsonString(workload) +
                     ", \"size\": " +
                     JsonString(size == e2e::Size::kFull ? "full" : "tiny") +
                     ", \"trace\": " + std::to_string(trace) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"graph_seed\": " + std::to_string(graph_seed) +
                     ", \"op_seed\": " + std::to_string(cfg.op_seed) +
                     ", \"setup_reps\": " + std::to_string(e2e::kSetupReps);
  info += ", \"env\": {\"nproc\": " + std::to_string(nproc) +
          ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"threads\": " + std::to_string(cfg.threads) +
          ", \"cpu_model\": " + JsonString(CpuModel()) +
          ", \"compiler\": " + JsonString(E2E_COMPILER) +
          ", \"build_type\": " + JsonString(E2E_BUILD_TYPE) +
          ", \"git_rev\": " + JsonString(git_rev) + "}";
  info += ", \"shape\": {";
  bool first = true;
  for (const auto& [k, v] : seg.shape) {
    info += (first ? "" : ", ") + JsonString(k) + ": " + JsonNumber(v);
    first = false;
  }
  info += "}, \"notes\": [";
  for (std::size_t i = 0; i < tally.notes.size(); ++i) {
    info += (i ? ", " : "") + JsonString(tally.notes[i]);
  }
  info += "]}";
  std::printf("%s\n", info.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
