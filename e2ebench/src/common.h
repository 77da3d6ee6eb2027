// Shared pieces of the end-to-end benchmark: clock and sample statistics,
// the span recorder of the traced run, seeded input generators, and the
// independent correctness oracles. Nothing here calls into the library
// except to hand it generated text or ids.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (q in [0, 1]); reorders `v`. 0 when empty.
double Percentile(std::vector<double>& v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// The percentile a run reports over all of its samples: the mean of the
/// samples ranked within half a percentage point of q, which keeps digits
/// below the clock's nanosecond. 0 when empty.
double BandPercentile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Metrics and the pass/fail tally of one run.

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Ops attempted and failed; a failure is a non-OK Status or an answer
/// that disagrees with an oracle. The first few failures are kept as text.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what);
  /// Counts one attempted op that fails when `ok` is false.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

// ---------------------------------------------------------------------------
// Span recorder (traced run only). A span is one call into a library layer
// made by the benchmark: its layer (the per-layer metric prefix), the call,
// start and end, the enclosing span and the iteration it belongs to. Spans
// stay in memory and are written out at exit. Thread-safe: each thread
// keeps its own open-span stack; finished spans go to one locked list.

struct SpanRecord {
  const char* layer = "";
  const char* call = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the record list, -1 for a root
  std::int64_t iteration = -1;
  int thread = 0;
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  /// Opens a span; returns its index. Spans close in LIFO order per thread.
  std::int64_t Open(const char* layer, const char* call,
                    std::int64_t iteration);
  void Close(std::int64_t index);

  /// Copy of every span recorded so far (call after worker threads joined).
  std::vector<SpanRecord> Records() const;
  /// Writes every span as one tab-separated line; false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;  // guarded by mu_
  std::map<std::thread::id, std::vector<std::int64_t>> open_;  // per thread
};

/// RAII span; a null recorder makes it a no-op, so traced and untraced
/// code paths are the same code.
class Span {
 public:
  Span(SpanRecorder* rec, const char* layer, const char* call,
       std::int64_t iteration)
      : rec_(rec), index_(rec ? rec->Open(layer, call, iteration) : -1) {}
  ~Span() {
    if (rec_) rec_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  std::int64_t index_;
};

/// Self time per layer (span duration minus the part its children cover),
/// summed over every span whose root is a span of layer "e2e".
struct SelfTimes {
  std::map<std::string, double> layer_ms;  // includes "e2e": the residual
  double e2e_ms = 0.0;                     // summed root durations
  std::size_t iterations = 0;              // root spans
};
SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans);

/// Durations (µs) of every span with the given layer and call.
std::vector<double> SpanDurationsUs(const std::vector<SpanRecord>& spans,
                                    const char* layer, const char* call);

// ---------------------------------------------------------------------------
// Seeded inputs. SplitMix64 keeps every stream identical across platforms
// and standard libraries.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n); n > 0.
  std::uint32_t Below(std::uint32_t n) {
    return static_cast<std::uint32_t>((Next() >> 32) * n >> 32);
  }

 private:
  std::uint64_t state_;
};

/// A seeded stream of single-edge toggles that keeps the move graph
/// stationary: it retracts random present edges until `depth` are out,
/// then alternates between re-asserting the oldest retracted edge and
/// retracting a new one. Metrics then do not drift with run length.
class ToggleStream {
 public:
  struct Toggle {
    std::size_t edge = 0;
    bool retract = false;
  };
  ToggleStream(std::size_t num_edges, std::size_t depth, std::uint64_t seed)
      : rng_(seed), present_(num_edges, true), depth_(depth) {}
  /// The next toggle; present() reflects it on return.
  Toggle Next();
  /// Edge presence after every toggle returned so far.
  const std::vector<bool>& present() const { return present_; }

 private:
  Rng rng_;
  std::vector<bool> present_;
  std::deque<std::size_t> out_;  // retracted edges, oldest first
  std::size_t depth_;
};

struct Graph {
  int n = 0;
  std::vector<std::pair<int, int>> edges;  // distinct, no self-loops
};

/// G(n, m): m distinct directed edges drawn uniformly, no self-loops.
Graph ErdosRenyi(int n, int m, std::uint64_t seed);
/// `clusters` clusters of `size` nodes: a Hamiltonian cycle plus `intra`
/// random edges inside each, and `inter` random edges from a lower cluster
/// to a higher one (the condensation stays a DAG of cluster SCCs).
Graph ClusteredScc(int clusters, int size, int intra, int inter,
                   std::uint64_t seed);

inline std::string Node(int i) {
  std::string s = "n";
  s += std::to_string(i);
  return s;
}
inline std::string WinsAtom(int i) { return "wins(" + Node(i) + ")"; }
inline std::string MoveAtom(int u, int v) {
  return "move(" + Node(u) + "," + Node(v) + ")";
}
/// The win-move program (wins(X) :- move(X,Y), not wins(Y).) over `g`.
std::string WinMoveText(const Graph& g);

/// k even negative cycles a_i/b_i, each with a negation chain
/// c_i_0. c_i_j :- not c_i_{j-1}. of length `chain`: 2^k stable models.
std::string EvenCycleClustersText(int k, int chain);

// ---------------------------------------------------------------------------
// Oracles.

enum class GameValue : std::uint8_t { kDrawn, kWon, kLost };

/// Retrograde labelling of the move graph restricted to edges whose
/// `present` flag is set (all edges when `present` is empty): a position
/// with no move is lost, one with a move to a lost position is won, one
/// whose moves all reach won positions is lost, the rest are drawn.
/// won/lost/drawn is wins(X) true/false/undefined in the well-founded model.
std::vector<GameValue> RetrogradeLabels(const Graph& g,
                                        const std::vector<bool>& present);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
