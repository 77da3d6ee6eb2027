#ifndef AFP_SEARCH_STABLE_SEARCH_H_
#define AFP_SEARCH_STABLE_SEARCH_H_

/// \file
/// Parallel stable-model search: the guess-and-check branch tree as a
/// work-sharing pool workload, each node a residual delta over its parent.
///
/// The sequential StableModelSearch (stable/backtracking.h) conditions a
/// copy of the program on an assumed-literal set at every node, runs the
/// alternating fixpoint of the copy as its pruning propagation, and
/// branches on the first atom the fixpoint left undecided. It stays that
/// way as the oracle. This engine grows the same tree, but a node costs
/// what its one new assumption adds, not the whole program.
///
/// Node representation. A node is its parent's Frame plus one branch
/// literal. The frame holds the parent's decided-true set T and
/// decided-false set F (the parent's well-founded model), the parent's
/// branch atom b, and the residual R: the rules of the parent's own
/// residual whose head is undecided in (T, F) and is not b, with no
/// positive body atom in F and no negative body atom in T. The root's
/// frame is the empty model with R = every rule. There is no program
/// copy and no HornSolver per node: one index over the program is built
/// at construction and shared read-only by every worker, and a node
/// conditions its worker's evaluators by masks (SpMask): rules R, given
/// atoms T, plus b as a fact in the assume-true child. Its alternating
/// fixpoint starts from Ĩ_0 = F. Both children of a node share its
/// frame; b's rules are left out of R because the assume-false child
/// deletes them and the assume-true child makes them redundant.
///
/// Inheritance proof. Let Q be a node's conditioned program (the base
/// program with its assumed-true atoms as facts and the rules of its
/// assumed-false atoms deleted) with WFS(Q) = (T, F), and let Q' be a
/// child's: Q ∪ {b.} or Q minus b's rules, for b undefined in WFS(Q).
///   (1) WFS(Q) ≤ WFS(Q'), by induction over the W_P stages: b is in
///       neither T_Q nor U_Q at any stage.
///   (2) For every Ĩ with F ⊆ Ĩ ⊆ H̄ − T: T ⊆ S_Q'(Ĩ) ⊆ H̄ − F. At Q's
///       fixpoint T = S_Q(F) and H̄ − F = S_Q(H̄ − T). Since b ∉ S_Q(F),
///       deleting b's rules leaves S_Q(F) alone; since b ∈ S_Q(H̄ − T),
///       adding the fact b leaves S_Q(H̄ − T) alone. In both cases
///       S_Q'(F) ⊇ T and S_Q'(H̄ − T) ⊆ H̄ − F, and S is monotone in Ĩ.
///   (3) The fixpoint seeded with Ĩ_0 = F computes lfp(X ↦ A(X ∪ F)),
///       which equals lfp(A_Q') because F ⊆ lfp(A_Q') by (1). By (2)
///       S̃_Q' maps the interval [F, H̄ − T] into itself, so every S_P
///       argument of the run lies in it.
///   (4) Inside the interval, S_Q'(Ĩ) is T plus the least model of R
///       under the mask: the atoms of T are derived anyway; a rule whose
///       head is in F never fires, by (2); a rule with a positive body
///       atom in F never fires and one with a negative body atom in T is
///       never enabled, since Ĩ ∩ T = ∅; positive atoms in T and negative
///       atoms in F hold throughout, so the mask's countdown drops them.
///       Every rule of Q' outside R is one of these or one of b's: the
///       ancestors that dropped a rule decided less than (T, F), and
///       their branch atoms are decided in (T, F).
/// So every S_P call returns exactly S_Q'(Ĩ), and each node's decided
/// sets are those of conditioning on its assumptions alone. Conditioning
/// on (T, F) plus the branch literal gives the same well-founded model
/// as conditioning on the assumptions alone (the stable_test lemma tests
/// both). The branch atoms, the tree, the models and their order, and
/// StableSearchStats::afp_calls and EvalStats::sp_calls are the
/// ones of a node-by-node rebuild; rules_rescanned falls to the residual.
///
/// Leaf checks. A total leaf M is verified against the original program
/// with IsStableModel over the root's residual: M extends WFS(P) =
/// (T0, F0), so Ĩ = H̄ − M lies in [F0, H̄ − T0] and (4) with Q = P gives
/// S_P(Ĩ) = T0 plus the masked least model of the rules whose head WFS(P)
/// leaves undecided and whose body it does not falsify. The positive-
/// closure ablation (wfs_propagation = false) decides less than WFS(P),
/// so its leaves are checked over the whole program, unmasked. Its nodes
/// use the same masks: rules = the whole program, given = the node's
/// assumed-true atoms, Ĩ = its assumed-false atoms, and its frames carry
/// the assumptions rather than decided sets.
///
/// Branch cursor. A child's decided sets contain its parent's, and every
/// atom before b was decided in the parent, so the first undecided atom
/// is searched from b on instead of from atom 0.
///
/// Splitting. A pool item is the subtree under one node, and a worker
/// expands it inline, depth first, on a per-worker stack of frames (one
/// per depth, reused from node to node: no copy and no lock per node). A
/// run starts as one item, the whole tree, which the calling thread
/// claims at once. While fewer items are outstanding (queued or running)
/// than there are workers, a worker that has just expanded an interior
/// node splits off the shallowest assume-true child still due on its
/// path, the largest subtree it has left, as a new item carrying a copy of
/// that child's parent frame (the worker reuses its own once it climbs
/// past the node). So the tree is carved up on demand: one worker holds
/// it all, and a subtree moves only to a worker that has run out, which
/// balances workers of unequal speed, and there is no serial top to lay
/// out before the others start. With one worker nothing is ever split.
///
/// Determinism argument. Enumeration is bit-identical — model set AND
/// emission order — at every thread count because
///   (1) the branch tree itself is thread-count independent: a node's
///       decided sets depend only on its assumptions (the proof above),
///       the branch atom is canonically the first undecided atom, and
///       children are ordered assume-false before assume-true;
///   (2) workers record models into segments, never into an output list.
///       A segment is a stretch of the canonical order one worker fills
///       in depth-first order, and the segments form one list in that
///       order: splitting node X off a worker writing segment S links two
///       new segments in after S — the split-off subtree's, then the
///       worker's own for its models after X (it moves to that one once
///       it climbs past X). Everything the worker still finds under X's
///       assume-false child precedes X's assume-true subtree, and
///       everything after X follows it. A single emission cursor walks
///       the list under the emission mutex, emitting a segment's models
///       only once every segment before it has been finished.
/// The cursor also makes max_models prefix-exact: the run stops only
/// after the whole depth-first prefix up to model #max_models is
/// resolved, so the emitted set is exactly the first max_models models of
/// the sequential order regardless of how many workers raced ahead. A
/// worker stops a segment after max_models models of its own, and on
/// cancellation or timeout (checked at every node); a segment stopped
/// early is finished as cut, and the cursor emits its models — the first
/// ones of that stretch — and halts there, so a stopped run still returns
/// a prefix of the canonical order. The emission mutex is taken per
/// split and per finished segment, the pool's per item: a few dozen times
/// a run, not per node.
///
/// Memory. Inline nodes keep their frames in the worker's reused stack,
/// so a frame's residual lives only while its subtree is being expanded.
/// A split-off item's frame copy is an ordinary allocation, freed with
/// the run's items when the run ends; nothing per run enters the pools.
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

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "ground/ground_program.h"
#include "stable/backtracking.h"
#include "util/bitset.h"

namespace afp {

class WorkPool;

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
/// program and keeps its index and worker state (contexts, evaluators,
/// frame stacks) warm across any number of runs; it must be discarded
/// when the program mutates (Solver keys this on
/// GroundProgram::mutation_epoch). Not movable and not thread-safe
/// itself — one caller drives runs, the parallelism lives inside
/// Enumerate/Count.
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
  /// What a node hands both of its children (see the file comment). Under
  /// wfs_propagation the sets are the node's decided sets and `residual`
  /// its children's rules; under positive closure they are the node's
  /// assumptions and `residual` is unused. The root has no parent frame.
  struct Frame {
    Bitset true_set;
    Bitset false_set;
    std::vector<std::uint32_t> residual;
    AtomId branch = kInvalidAtom;
  };

  /// How a node's evaluation ended.
  enum class Outcome : std::uint8_t {
    kNoModel,   // pruned, or a leaf that is not stable
    kModel,     // a stable leaf; the model is handed to the caller
    kInterior,  // undecided atoms remain; the node's frame is filled
  };

  /// A stretch of the canonical order whose models one worker collects,
  /// in depth-first order. Segments form one list in canonical order;
  /// `next` is written under emit_mu_ (a split links two segments in after
  /// its worker's current one), the rest by the owning worker until it
  /// finishes the segment, and by the cursor after that.
  struct alignas(64) Segment {
    Segment* next = nullptr;
    bool pending = true;
    /// The segment stopped early: the cursor halts after its models.
    bool cut = false;
    /// Models to emit; on count-only runs only model_count is kept.
    std::size_t model_count = 0;
    std::vector<Bitset> models;
  };

  /// A pool item: the subtree under one node, expanded inline by whichever
  /// worker claims it. The root item has no parent frame; a split-off one
  /// carries a copy of the split node's frame.
  struct Item {
    bool has_parent = false;
    Frame parent;
    bool assume_true = false;
    std::uint32_t depth = 0;
    Segment* out = nullptr;
  };

  /// An interior node on a worker's current path: whether its
  /// assume-true child is still due here, and — once that child was split
  /// off — the segment this worker's models go to after the node.
  struct Open {
    bool true_due = true;
    Segment* resume = nullptr;
  };

  /// Per-worker persistent state, indexed by pool worker id. All three
  /// evaluators are bound to the shared index: the even/odd pair is
  /// re-masked per node, `leaf` (stability checks) once per run under
  /// wfs_propagation. `frames[d]` is the frame of the node this worker
  /// evaluates at depth d.
  struct Worker {
    EvalContext* ctx = nullptr;
    std::optional<SpEvaluator> even;
    std::optional<SpEvaluator> odd;
    std::optional<SpEvaluator> leaf;
    bool leaf_masked = false;
    std::deque<Frame> frames;
    std::vector<Open> path;
    // Per-run counters, folded into StableSearchStats after the join.
    std::size_t nodes = 0;
    std::size_t afp_calls = 0;
    std::size_t implied_atoms = 0;
    std::size_t leaves = 0;
    std::size_t stable_checks = 0;
    std::size_t pruned = 0;
    std::size_t residual_rules = 0;
    std::size_t inline_nodes = 0;
    EvalStats start;
  };

  ParallelSearchResult Run(const StableSearchControl& control,
                           bool count_only);
  /// The work-unit body: expands one item inline.
  void ExpandItem(WorkPool& pool, Item* item, std::uint32_t worker);
  /// Depth-first expansion of an item's subtree in worker-local state,
  /// splitting subtrees off while workers are short of items; its models
  /// land in its segments in canonical order.
  void ExpandInline(WorkPool& pool, Worker& w, std::uint32_t worker,
                    const Item& item);
  /// Hands the shallowest assume-true child still due on `w`'s path
  /// (interior nodes from depth `base` on, writing `seg`) to the pool.
  void Split(WorkPool& pool, Worker& w, std::uint32_t worker,
             std::uint32_t base, Segment* seg);
  /// Marks a segment resolved and advances the emission cursor.
  void Finish(Segment* seg);
  /// Evaluates one node: propagates under the masks of its parent's frame
  /// (`parent` null at the root) and its literal, then leaf-checks it or
  /// fills `self` for its children. A stable leaf's model is moved into
  /// `*model`.
  Outcome Evaluate(Worker& w, const Frame* parent, bool assume_true,
                   std::uint32_t depth, Frame* self, Bitset* model);
  /// Hands a stable leaf's model to `seg` (or only counts it).
  void Collect(EvalContext& ctx, Bitset&& model, Segment* seg) const;
  /// True once the run must stop: max_models emitted, the cancellation
  /// token set, or the deadline passed (the last two are latched here).
  bool ShouldStop();
  /// Walks the emission cursor forward through resolved segments (emit_mu_
  /// held), emitting their models in canonical order; stops the run once
  /// max_models have been emitted.
  void AdvanceEmissionLocked();

  const GroundProgram& gp_;
  ParallelSearchOptions options_;
  std::unique_ptr<EvalContextRegistry> own_registry_;
  EvalContextRegistry* registry_ = nullptr;
  /// The one index over the program, shared read-only by every worker
  /// (its negative-occurrence index is built up front).
  HornSolver index_;
  AfpOptions afp_options_;
  /// The root's residual: every rule id, ascending.
  std::vector<std::uint32_t> all_rules_;
  /// The empty set over the program's atoms: the root's given atoms and
  /// its Ĩ_0 when unseeded.
  Bitset no_atoms_;
  /// Atoms underivable under any assumptions (positive-closure mode only).
  Bitset statically_false_;
  /// The leaf checks' mask for the current run under wfs_propagation: the
  /// root's residual and decided-true set, written while evaluating the
  /// root, before any other node exists.
  std::vector<std::uint32_t> leaf_rules_;
  Bitset leaf_given_;

  bool seeded_ = false;
  Bitset seed_true_;
  Bitset seed_false_;

  /// Worker roster; grows to the pool size on first use and persists
  /// across runs (deque: Worker holds non-movable evaluators).
  std::deque<Worker> workers_;

  // --- Per-run state. Deques for reference stability: workers hold
  // pointers to segments and items while others append under emit_mu_.
  std::deque<Segment> segments_;
  std::deque<Item> items_;
  std::size_t num_workers_ = 1;
  /// Items submitted and not yet finished: a worker splits a subtree off
  /// while this is below num_workers_ (a hint; races only over-split).
  std::atomic<std::size_t> outstanding_{0};
  std::size_t max_models_ = 0;
  bool count_only_ = false;
  bool use_seed_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::atomic<bool> stop_{false};
  std::mutex emit_mu_;
  std::vector<Bitset> models_;
  /// The first segment not yet emitted; null once every one was.
  Segment* cursor_ = nullptr;
  std::size_t emitted_ = 0;
  bool finished_ = false;
};

}  // namespace afp

#endif  // AFP_SEARCH_STABLE_SEARCH_H_
