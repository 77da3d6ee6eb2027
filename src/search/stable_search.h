#ifndef AFP_SEARCH_STABLE_SEARCH_H_
#define AFP_SEARCH_STABLE_SEARCH_H_

/// \file
/// Parallel stable-model search: the guess-and-check branch tree as a
/// work-sharing pool workload.
///
/// The sequential StableModelSearch (stable/backtracking.h) conditions the
/// program on an assumed-literal set at every node, runs the alternating
/// fixpoint of the conditioned program as its pruning propagation, and
/// branches on the first atom the fixpoint left undecided. Those per-node
/// fixpoints dominate the cost and are mutually independent once a node's
/// assumptions are fixed — which makes the branch tree a natural workload
/// for the worker-pool machinery in exec/scheduler.
///
/// ParallelStableSearch decomposes the tree into work units: one unit =
/// one branch node, carrying its assumed-true / assumed-false sets (the
/// residual frontier — the undecided atoms — is implicit: whatever the
/// node's own propagation leaves open). Units flow through a work-sharing
/// LIFO deque (WorkPool); each worker owns a persistent EvalContext slot
/// in an EvalContextRegistry plus a rebindable even/odd SpEvaluator pair
/// (the SCC engine's ComponentSolver pattern), so expanding a node
/// allocates nothing once the pools are warm. Leaves are verified with
/// the same incremental IsStableModel path the sequential search uses.
///
/// Determinism argument. Enumeration is bit-identical — model set AND
/// emission order — at every thread count because
///   (1) the branch tree itself is thread-count independent: a node's
///       decided sets depend only on its assumptions (same conditioning
///       as the sequential search; the seeded fixpoint lands on the same
///       least fixpoint — see the seeding contract), the branch atom is
///       canonically the first undecided atom, and children are ordered
///       assume-false before assume-true;
///   (2) workers record results into an explicit tree (node states, never
///       an output list), and a single emission cursor walks that tree in
///       sequential depth-first order under the tree mutex, emitting a
///       leaf model only once every leaf to its left has been resolved.
/// The cursor also makes max_models prefix-exact: the run cancels only
/// after the whole depth-first prefix up to model #max_models is
/// resolved, so the emitted set is exactly the first max_models models of
/// the sequential order regardless of how many workers raced ahead.
///
/// Seeding contract. The root node's propagation — the alternating
/// fixpoint under empty assumptions — IS the program's well-founded
/// model. A session that already holds that model (solved once, or kept
/// current by incremental repair) passes it to SeedRoot and the engine
/// copies it instead of re-deriving it. Running with the root unseeded is
/// the pinned ablation baseline (bench_search measures both). The root
/// seed must be THE well-founded model of the engine's program: Solver
/// guarantees this by dropping its cached engine whenever the ground
/// program mutates.
///
/// Every deeper node starts its alternating fixpoint from its parent's
/// negative conclusions: Ĩ_0 = the parent's decided-false set instead of
/// ∅. This is sound by a monotonicity lemma. A child conditions its
/// parent's program Q on one atom b undefined in WFS(Q) — Q ∪ {b.} or Q
/// minus b's rules — and in both cases WFS(Q) ≤ WFS(child) (induction over
/// the W_P stages: b is in neither T_Q nor U_Q at any stage). The seeded
/// iteration computes lfp(X ↦ A(X ∪ S)), which equals lfp(A) for every
/// S ⊆ lfp(A), so each node's decided sets — hence its branch atom, the
/// tree, and the models and their order — are exactly the unseeded ones.
/// StableSearchStats::afp_calls is unchanged; EvalStats::sp_calls falls,
/// because a child only derives what its one new assumption adds. The
/// positive-closure ablation (wfs_propagation = false) seeds nothing.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "exec/scheduler.h"
#include "ground/ground_program.h"
#include "stable/backtracking.h"
#include "util/bitset.h"

namespace afp {

/// Construction-time options of a ParallelStableSearch; per-run bounds
/// (max_models, timeout, cancellation) travel in StableSearchControl.
struct ParallelSearchOptions {
  /// Worker threads. <= 1 expands every node inline on the calling thread
  /// (no threads spawned); any value yields the same models in the same
  /// order.
  int num_threads = 1;
  /// Per-node propagation: full well-founded deduction (default) or the
  /// positive-Horn-closure-only Saccà–Zaniolo flavor (the ablation of
  /// stable/backtracking.h, kept comparable here).
  bool wfs_propagation = true;
  SpMode sp_mode = SpMode::kDelta;
  HornMode horn_mode = HornMode::kCounting;
  /// Per-worker contexts. Pass a session's registry to share warm pools
  /// with the SCC engine's workers; null = engine-private registry.
  EvalContextRegistry* registry = nullptr;
};

/// Result of one Enumerate / Count run.
struct ParallelSearchResult {
  /// The stable models (positive-atom sets) in canonical depth-first
  /// order; empty on Count runs.
  std::vector<Bitset> models;
  StableSearchStats search;
  /// Evaluation work across every worker context, folded through
  /// EvalStats::Accumulate.
  EvalStats eval;
};

/// The work-sharing branch-tree engine. One instance binds to one ground
/// program and keeps its worker state (contexts, base solvers, evaluator
/// pairs) warm across any number of runs; it must be discarded when the
/// program mutates (Solver keys this on GroundProgram::mutation_epoch).
/// Not movable and not thread-safe itself — one caller drives runs, the
/// parallelism lives inside Enumerate/Count.
class ParallelStableSearch {
 public:
  explicit ParallelStableSearch(const GroundProgram& gp,
                                ParallelSearchOptions options = {});
  ~ParallelStableSearch();

  ParallelStableSearch(const ParallelStableSearch&) = delete;
  ParallelStableSearch& operator=(const ParallelStableSearch&) = delete;

  /// Installs the session's well-founded model as the root node's
  /// propagation result (copied here). Both bitsets must span the
  /// program's atom universe, and the pair must BE the program's
  /// well-founded model — seeding anything else changes the answer.
  void SeedRoot(const Bitset& wf_true, const Bitset& wf_false);
  void ClearSeed();
  bool seeded() const { return seeded_; }

  /// Runs the search; models in canonical order. Re-entrant across calls
  /// (worker pools stay warm), not concurrently.
  ParallelSearchResult Enumerate(const StableSearchControl& control = {});

  /// As Enumerate without materializing models (the tree is still walked
  /// and every leaf checked; only the O(models × atoms) storage is
  /// skipped).
  ParallelSearchResult Count(const StableSearchControl& control = {});

  /// The program this engine is bound to (Solver's staleness check
  /// compares addresses after a session move).
  const GroundProgram& ground() const { return gp_; }

 private:
  /// One branch node. Assumption sets are node-owned plain bitsets,
  /// written at creation (under the tree mutex) and read only by the
  /// node's own expansion task; they are dropped as soon as the node
  /// resolves. `seed_false` is the parent's decided-false set (see the
  /// seeding contract above), written with the assumptions and moved out
  /// by the expansion task when it claims the node, so it lives only
  /// while the node is pending. `model` exists only in state kLeafModel,
  /// until the emission cursor moves it out.
  struct Node {
    enum class State : std::uint8_t {
      kPending,    // created, expansion not finished
      kExpanded,   // interior: children valid
      kLeafModel,  // stable-model leaf, model not yet emitted
      kLeafDone,   // resolved leaf with nothing (left) to emit
      kPruned,     // cut by positive-closure conflict
    };
    State state = State::kPending;
    /// Which child of `parent` this node is: 0 = assume-false (emitted
    /// first), 1 = assume-true.
    std::uint8_t which = 0;
    std::uint32_t parent = 0;
    std::uint32_t children[2] = {0, 0};
    Bitset assumed_true;
    Bitset assumed_false;
    /// Pooled scratch in transit between two workers' contexts; empty
    /// (universe 0) at the root and under wfs_propagation = false.
    Bitset seed_false;
    Bitset model;
  };

  /// Per-worker persistent state, indexed by pool worker id. The base
  /// solver/evaluator serve leaf stability checks against the original
  /// program; the even/odd pair is rebound to each node's conditioned
  /// solver (ComponentSolver pattern: zero construction per node).
  struct Worker {
    EvalContext* ctx = nullptr;
    std::optional<HornSolver> base_solver;
    std::optional<SpEvaluator> base_sp;
    std::optional<SpEvaluator> even;
    std::optional<SpEvaluator> odd;
    // Per-run counters, folded into StableSearchStats after the join.
    std::size_t nodes = 0;
    std::size_t afp_calls = 0;
    std::size_t implied_atoms = 0;
    std::size_t leaves = 0;
    std::size_t stable_checks = 0;
    std::size_t pruned = 0;
    EvalStats start;
  };

  static constexpr std::uint32_t kRootNode = 0;

  ParallelSearchResult Run(const StableSearchControl& control,
                           bool count_only);
  /// The work-unit body: condition + propagate (seeded from the parent's
  /// decided-false set) + branch or leaf-check one node, then record the
  /// outcome in the tree; an interior node hands its own decided-false set
  /// to both children as their seed.
  void ExpandNode(WorkPool& pool, std::uint32_t id, std::uint32_t worker);
  /// Checks the run's cancellation token and deadline; cancels the pool
  /// and returns true when either fired.
  bool ShouldStop(WorkPool& pool);
  /// Marks a node resolved with no subtree and advances the cursor.
  void ResolveWithoutModel(WorkPool& pool, std::uint32_t id,
                           Node::State state);
  /// Walks the emission cursor forward through resolved nodes (tree mutex
  /// held), emitting leaf models in depth-first order; cancels the pool
  /// once max_models have been emitted.
  void AdvanceEmissionLocked(WorkPool& pool);

  const GroundProgram& gp_;
  ParallelSearchOptions options_;
  std::unique_ptr<EvalContextRegistry> own_registry_;
  EvalContextRegistry* registry_ = nullptr;
  /// Atoms underivable under any assumptions (positive-closure mode only).
  Bitset statically_false_;

  bool seeded_ = false;
  Bitset seed_true_;
  Bitset seed_false_;

  /// Worker roster; grows to the pool size on first use and persists
  /// across runs (deque: Worker holds non-movable evaluators).
  std::deque<Worker> workers_;

  // --- Per-run tree state. nodes_ is a deque for reference stability:
  // workers append children under tree_mu_ and read their own node's
  // assumption sets lock-free through a pointer fetched under tree_mu_
  // (the pool's mutex sequences creation before the child task runs).
  std::mutex tree_mu_;
  std::deque<Node> nodes_;
  std::vector<Bitset> models_;
  std::uint32_t cursor_ = kRootNode;
  std::size_t emitted_ = 0;
  std::size_t max_models_ = 0;
  bool finished_ = false;
  bool count_only_ = false;
  bool use_seed_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace afp

#endif  // AFP_SEARCH_STABLE_SEARCH_H_
