// The three workloads of the end-to-end benchmark. Each one builds its
// inputs from the seeds it is given, sets its session up kSetupReps
// times, drives the library's public API in a loop, checks the answers
// against the oracles in common.h, and reports the end-to-end metrics for
// its own main operation (plus the per-layer metrics when a span recorder
// is given). See e2ebench/README.md for why each workload exists.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common.h"

namespace e2e {

/// Input scale: kFull is the measured configuration, kTiny the self-check
/// size.
enum class Size { kFull, kTiny };

/// Set-ups per process; setup_s is their median.
inline constexpr int kSetupReps = 9;

struct RunConfig {
  Size size = Size::kFull;
  std::uint64_t graph_seed = 1;  // input generator seed
  std::uint64_t op_seed = 2;     // op-stream seed
  int threads = 1;  // search_threads of the stable session, exec probes
  SpanRecorder* rec = nullptr;   // set: traced run, per-layer metrics
};

struct Segment {
  MetricMap e2e;    // setup_s and op_us_p50
  MetricMap layer;  // per-layer metrics (traced run only)
  /// Program-shape parameters that drive cost (Lonc & Truszczyński):
  /// atoms, ground rules, negative-literal occurrences, components, and
  /// S_P calls of one full solve.
  std::map<std::string, double> shape;
  Tally tally;
};

/// One workload with its session set up. Run() is called twice, for the
/// warm-up and for the measured part, with DropSamples() in between;
/// Finish() once at the end.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Drives the loop for `seconds` more (at least one operation).
  virtual void Run(double seconds) = 0;
  /// Forgets the timings taken so far; answers stay checked and counted.
  virtual void DropSamples() = 0;
  /// Runs the end-of-run checks and returns the metrics.
  virtual Segment Finish() = 0;
};

inline constexpr const char* kWorkloadNames[] = {
    "cold_winmove_er", "update_clustered", "stable_even_clusters"};

/// Builds the named workload (one of kWorkloadNames) and runs its set-up.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
