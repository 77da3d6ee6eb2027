#ifndef AFP_STABLE_BACKTRACKING_H_
#define AFP_STABLE_BACKTRACKING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "util/bitset.h"

namespace afp {

/// Options for the backtracking stable-model search.
struct StableSearchOptions {
  /// Stop after this many models (SIZE_MAX = all).
  std::size_t max_models = static_cast<std::size_t>(-1);
  /// Propagate with the full well-founded (alternating fixpoint) deduction
  /// at every search node. When false, only the positive Horn closure is
  /// propagated — close in spirit to the Saccà–Zaniolo backtracking
  /// fixpoint the paper cites (§2.4), whose running time "may be
  /// unpleasant". bench_stable_np compares the two.
  bool wfs_propagation = true;
  HornMode horn_mode = HornMode::kCounting;
  /// Enablement recomputation strategy for every S_P evaluation the search
  /// performs (node propagation and leaf stability checks).
  SpMode sp_mode = SpMode::kDelta;
};

/// Per-run controls of a stable-model search, separate from the
/// construction-time StableSearchOptions so one engine (with its warm
/// worker pools) serves many differently-bounded runs.
struct StableSearchControl {
  /// Stop after this many models (SIZE_MAX = all). The emitted set is
  /// exactly the first max_models models of the canonical (sequential
  /// depth-first) enumeration order at every thread count.
  std::size_t max_models = static_cast<std::size_t>(-1);
  /// Wall-clock budget; zero = none. On expiry the run stops expanding
  /// and returns the models emitted so far — always a prefix of the
  /// canonical order, but how long a prefix is timing-dependent
  /// (StableSearchStats::complete reports the cut).
  std::chrono::nanoseconds timeout{0};
  /// Optional external cancellation token, read with relaxed loads at
  /// node granularity. Same prefix semantics as timeout.
  const std::atomic<bool>* cancel = nullptr;
};

/// Search statistics. Shared by the sequential StableModelSearch and the
/// parallel branch-tree engine (src/search/stable_search.h); on sequential
/// runs the pool fields stay at their one-worker defaults.
struct StableSearchStats {
  std::size_t nodes = 0;        // search tree nodes visited
  std::size_t leaves = 0;       // total candidates reached
  std::size_t stable_checks = 0;
  std::size_t models = 0;
  /// Alternating-fixpoint propagations run — one per node under
  /// wfs_propagation, minus a root seeded from a session's cached model.
  std::size_t afp_calls = 0;
  /// Atoms decided by per-node propagation beyond the assumptions
  /// themselves — the paper's pruning at work: every implied atom halves
  /// the subtree a blind guess-and-check would have explored.
  std::size_t implied_atoms = 0;
  /// Nodes cut without branching or a leaf check (positive-closure
  /// conflicts under wfs_propagation = false).
  std::size_t pruned_nodes = 0;
  /// Sum over the nodes whose propagation ran of the rules it ran over:
  /// the node's residual in ParallelStableSearch, where a node evaluates
  /// only the rules its parent's model leaves open (the whole program at
  /// the root and under wfs_propagation = false). Zero on sequential runs.
  std::size_t residual_rules = 0;
  /// Nodes a worker expanded below the root of a subtree it claimed from
  /// the pool, with no lock; nodes - inline_nodes is the number of
  /// subtrees run. Zero on sequential runs.
  std::size_t inline_nodes = 0;
  /// Parallel-run receipt (ParallelStableSearch): pool shape and
  /// work-sharing behavior of the run that produced these counts.
  std::size_t num_workers = 1;
  std::size_t steals = 0;
  std::size_t idle_waits = 0;
  std::vector<std::size_t> per_worker_nodes;
  std::vector<std::size_t> per_worker_steals;
  /// Whether the root node's propagation was seeded from the session's
  /// cached well-founded model instead of being re-derived.
  bool seeded = false;
  /// False when the run stopped early on timeout or external cancellation
  /// (exhausting max_models still counts as complete).
  bool complete = true;
};

/// Conditions `base` on an assumption pair into `*out` (cleared here):
/// atoms in `assumed_true` become facts; when `delete_false_heads`, rules
/// whose head is in `assumed_false` are deleted (making those atoms
/// unfounded in the conditioned program). The one conditioning routine
/// used by the sequential search below; the parallel branch-tree engine
/// conditions by masks over one shared index instead (SpMask), and the
/// differential tests pin the two to the same tree.
void ConditionOnAssumptions(const RuleView& base, const Bitset& assumed_true,
                            const Bitset& assumed_false,
                            bool delete_false_heads, OwnedRules* out);

/// Constructs stable models by backtracking search over assumed literals.
///
/// At each node the program is conditioned on the assumptions (assumed-true
/// atoms become facts; rules for assumed-false atoms are deleted), the
/// well-founded model of the conditioned program is computed via the
/// alternating fixpoint, and the search branches on an atom left undefined.
/// Every total leaf is verified against the original program with the
/// Gelfond–Lifschitz condition. Since every stable model extends the
/// well-founded partial model (§2.4), the WFS propagation prunes the
/// search without losing models.
///
/// All per-node scratch — the conditioned rule buffer, its occurrence
/// indexes, and the fixpoint working sets — cycles through one EvalContext
/// owned by the search, so visiting a node allocates nothing once the
/// context is warm.
///
/// Every node's fixpoint starts from Ĩ_0 = ∅ on a rewritten copy of the
/// program, on purpose: this is the from-scratch oracle that the parallel
/// engine (which evaluates each node as a residual delta over its
/// parent's model) is checked against, models, order and tree counters
/// alike.
class StableModelSearch {
 public:
  explicit StableModelSearch(const GroundProgram& gp,
                             StableSearchOptions options = {});

  /// Runs the search; returns the stable models found (as positive-atom
  /// sets), in search order.
  std::vector<Bitset> Enumerate();

  /// Counts stable models without storing them.
  std::size_t Count();

  const StableSearchStats& stats() const { return stats_; }
  /// Cumulative evaluation work across all runs of this search object.
  const EvalStats& eval_stats() const { return ctx_.stats(); }

 private:
  void Search(const Bitset& assumed_true, const Bitset& assumed_false,
              std::vector<Bitset>* out);
  bool done() const {
    return stats_.models >= options_.max_models;
  }

  const GroundProgram& gp_;
  StableSearchOptions options_;
  EvalContext ctx_;  // must outlive the solvers/evaluators drawing from it
  HornSolver base_solver_;
  SpEvaluator base_sp_;      // leaf stability checks, delta-driven
  Bitset statically_false_;  // atoms underivable under any assumptions
  StableSearchStats stats_;
};

}  // namespace afp

#endif  // AFP_STABLE_BACKTRACKING_H_
