#ifndef AFP_SERVING_SERVING_SOLVER_H_
#define AFP_SERVING_SERVING_SOLVER_H_

/// \file
/// The concurrent serving front end: many reader threads query an
/// immutable model snapshot while one background writer applies batched
/// EDB mutations and repairs the model incrementally.
///
/// The alternating fixpoint is the expensive step (computing the
/// well-founded model is the whole subject of the cost analyses in
/// PAPERS.md); serving amortizes it. Reads never block on repairs: a
/// reader's whole world is one `ModelSnapshot` grabbed atomically, and a
/// completed repair swings the snapshot pointer rather than mutating
/// anything a reader can see. Writes are coalesced: a burst of
/// Assert/Retract calls drains into ONE `Solver::UpdateFactsById` pass
/// (last write per atom wins), so repair cost scales with the union
/// change frontier, not the call count.
///
/// Thread roles (the full contract is in docs/ARCHITECTURE.md):
///   * readers — snapshot() / Resolve / Query / QueryBatch*: any thread,
///     any number, lock-free against the writer up to the shared_ptr
///     load;
///   * producers — AssertFacts / RetractFacts (+ById): any thread;
///     enqueue only, bounded queue, blocks when the writer falls behind
///     (backpressure, counted in ServingStats);
///   * the writer — one background thread owned by this object (or the
///     caller of Pump() when background is off) drains the queue,
///     repairs through the wrapped Solver, and publishes.
///
///   auto srv = afp::ServingSolver::FromText("p :- not q. q :- e.");
///   auto snap = (*srv)->snapshot();           // version-stamped model
///   (*srv)->Query("p");                       // lookup on current snap
///   (*srv)->AssertFacts({"e"});               // enqueued; repaired in bg
///   (*srv)->Flush();                          // wait for publication

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>
#include <version>

#include "afp/solver.h"
#include "serving/snapshot.h"
#include "util/status.h"

/// libstdc++ ≥ 11 / MSVC ≥ 19.28 provide std::atomic<std::shared_ptr>;
/// elsewhere snapshot publication falls back to a tiny mutex around the
/// pointer swap (readers still copy the shared_ptr once per batch, so the
/// critical section is a refcount bump either way).
#if defined(__cpp_lib_atomic_shared_ptr)
#define AFP_SERVING_ATOMIC_SNAPSHOT 1
#else
#define AFP_SERVING_ATOMIC_SNAPSHOT 0
#endif

namespace afp::serving {

/// Construction-time knobs of the serving layer.
struct ServingOptions {
  /// Bound on queued-but-unapplied mutations. Producers enqueueing past
  /// the bound block until the writer drains (backpressure) — the queue
  /// can never grow without bound under a slow repair. With `background`
  /// off the bound instead triggers an inline Pump() on the producer.
  std::size_t max_pending_updates = 4096;
  /// Start the background writer thread. Off → updates apply only when
  /// some thread calls Pump() or Flush() (deterministic tests drive
  /// coalescing this way).
  bool background = true;
  /// Test/observability hook, called on the publishing thread immediately
  /// after each snapshot becomes current (including version 0 and
  /// RestoreState publications). Flush() returns only after the callback
  /// for the snapshot it waited on has returned. Must be cheap and must
  /// not call back into the writer API.
  std::function<void(const SnapshotPtr&)> on_publish;
};

/// Counters of the serving session (monotone; read with Stats()).
struct ServingStats {
  /// Mutations accepted into the queue (one per atom per call).
  std::uint64_t updates_enqueued = 0;
  /// Mutations drained and folded into a repair pass.
  std::uint64_t updates_applied = 0;
  /// Mutations superseded inside a drained batch (last write per atom
  /// wins) — updates_applied counts them, the repair pass never saw them.
  std::uint64_t updates_coalesced = 0;
  /// Repair passes run (== snapshots published minus initial/restores).
  std::uint64_t repair_passes = 0;
  /// Largest single drained batch, in mutations.
  std::uint64_t max_batch = 0;
  /// Times a producer blocked on the full queue (backpressure events).
  std::uint64_t enqueue_blocks = 0;
  /// Snapshots made current (initial solve + repairs + restores).
  std::uint64_t snapshots_published = 0;
  /// Cumulative facts actually added/removed by repair passes.
  std::uint64_t facts_changed = 0;
  /// Rule mutations accepted into the queue (AddRule/RemoveRule).
  std::uint64_t rule_ops_enqueued = 0;
  /// Rule mutations applied by the writer.
  std::uint64_t rule_ops_applied = 0;
  /// Rule mutations the wrapped Solver rejected (parse error, no live
  /// match, simplify precondition). The failed op is dropped; the last
  /// failure's status is retained in last_rule_error.
  std::uint64_t rule_ops_failed = 0;
  /// Status of the most recent failed rule op (Ok when none ever failed).
  Status last_rule_error;
};

/// The serving facade. Owns the wrapped Solver session, the update queue,
/// the background writer, and the current snapshot. Neither copyable nor
/// movable (live thread + condition variables); hold it by unique_ptr as
/// the factories return it.
class ServingSolver {
 public:
  /// Parses, grounds, and fully solves `program_text`, then starts
  /// serving with that model as snapshot version 0.
  static StatusOr<std::unique_ptr<ServingSolver>> FromText(
      std::string_view program_text, SolverOptions solver_options = {},
      ServingOptions serving_options = {});

  /// Wraps an existing session (solved or not; an unsolved one is solved
  /// here). The Solver must not be touched by the caller afterwards.
  static std::unique_ptr<ServingSolver> Wrap(
      Solver solver, ServingOptions serving_options = {});

  /// Drains every queued mutation, publishes the final snapshot, and
  /// joins the writer thread.
  ~ServingSolver();

  ServingSolver(const ServingSolver&) = delete;
  ServingSolver& operator=(const ServingSolver&) = delete;

  /// --- Reader API (any thread, never blocks on repairs) -------------

  /// The current snapshot. Grab once per logical read batch; everything
  /// answered from one SnapshotPtr is consistent at one version.
  SnapshotPtr snapshot() const;

  /// Resolves atom text to its id in the grounded base (kInvalidAtom →
  /// outside the universe, i.e. false closed-world). Ids are stable for
  /// the session lifetime; resolve once, query by id forever. Rule
  /// mutations can GROW the universe, so resolution synchronizes with the
  /// writer (a brief lock); the id-based query path below stays
  /// lock-free.
  StatusOr<AtomId> Resolve(const std::string& atom_text) const;

  /// Truth value of `id` in the current snapshot (kInvalidAtom → false).
  /// An id interned after the snapshot was published (a concurrent rule
  /// op grew the universe) reads false — the closed-world answer at that
  /// snapshot's version.
  TruthValue Query(AtomId id) const;

  /// As Query(AtomId) for atom text (parse errors surface; unknown atoms
  /// are false, closed world).
  StatusOr<TruthValue> Query(const std::string& atom_text) const;

  /// Batch lookups against ONE snapshot grab — the cheap hot path.
  std::vector<TruthValue> QueryBatchIds(std::span<const AtomId> ids) const;
  std::vector<StatusOr<TruthValue>> QueryBatch(
      const std::vector<std::string>& atom_texts) const;

  /// --- Producer API (any thread; enqueue + backpressure) ------------

  /// Enqueues fact mutations. The call returns once the mutations are
  /// accepted (NOT applied — Flush() to wait for publication); any
  /// unknown atom fails the whole call before anything is enqueued.
  Status AssertFacts(const std::vector<std::string>& atoms);
  Status RetractFacts(const std::vector<std::string>& atoms);

  /// Pre-resolved variants (ids from Resolve; kInvalidAtom is the
  /// caller's bug, excluded by Resolve-then-check).
  void AssertFactsById(std::span<const AtomId> ids);
  void RetractFactsById(std::span<const AtomId> ids);

  /// Enqueues a rule mutation (Solver::AddRule / RemoveRule semantics:
  /// non-fact rules, session grounded with simplify=false). The call
  /// returns once the op is ACCEPTED; the writer applies it as a
  /// coalescing barrier — fact ops on either side of a rule op in the
  /// queue are coalesced within their side only, and application order
  /// (facts, rule, facts, ...) is preserved, so a retract enqueued after
  /// an AddRule is never folded into the state the rule was grounded
  /// against. Application errors (parse, no live match, simplify
  /// precondition) surface through Stats().rule_ops_failed /
  /// last_rule_error, not here; validate rule text on the producer side
  /// when rejection must be synchronous.
  void AddRule(std::string rule_text);
  void RemoveRule(std::string rule_text);

  /// Blocks until every mutation enqueued before the call is applied and
  /// its snapshot published. With `background` off, drains inline.
  void Flush();

  /// Drains the queue once on the calling thread (coalesce → repair →
  /// publish); returns whether any work was done. The manual writer for
  /// `background == false` sessions; safe (but pointless) alongside the
  /// background writer.
  bool Pump();

  /// --- Warm restart --------------------------------------------------

  /// Serializes the current model + version (flushes first so the image
  /// reflects every accepted mutation). The portable checkpoint idiom:
  /// everything needed to serve again without re-running the fixpoint.
  std::string SaveState();

  /// Restores a SaveState image: validates it against this session's
  /// program (universe size, consistency, rule satisfaction — restoring
  /// against a different program fails), adopts the model, and publishes
  /// it as the next snapshot version. Queued mutations are flushed
  /// first; concurrent producers during a restore see their updates
  /// applied on top of the restored model.
  Status RestoreState(std::string_view state);

  /// --- Introspection --------------------------------------------------

  ServingStats Stats() const;
  const ServingOptions& serving_options() const { return opts_; }
  /// The wrapped session — for introspection (ground(), options());
  /// calling its mutating API directly bypasses the serving contract.
  const Solver& solver() const { return solver_; }

 private:
  struct Op {
    enum class Kind : std::uint8_t { kAssert, kRetract, kAddRule, kRemoveRule };
    Kind kind;
    AtomId id = kInvalidAtom;  // fact ops only
    std::string rule_text;     // rule ops only
    bool is_rule() const {
      return kind == Kind::kAddRule || kind == Kind::kRemoveRule;
    }
  };

  ServingSolver(Solver solver, ServingOptions opts);

  void EnqueueOps(std::span<const AtomId> ids, bool add);
  void EnqueueRuleOp(Op op);
  /// Applies one drained batch — fact segments coalesced last-write-wins,
  /// rule ops as in-order barriers between them — then publishes ONE
  /// snapshot. Runs on the writer thread or inside Pump().
  void ApplyBatch(std::vector<Op>& batch);
  /// Publishes the solver's current model (solver_mu_ must be held).
  void PublishLocked(const UpdateStats& up, std::uint64_t batch_ops);
  void StoreSnapshot(SnapshotPtr snap);
  void WriterLoop();

  ServingOptions opts_;
  /// Serializes solver access: the writer's repair passes, Pump(),
  /// RestoreState(), and — because rule mutations grow the atom table —
  /// every text-resolution read (Resolve and the producers' strict
  /// resolution). Id-based readers never take it.
  mutable std::mutex solver_mu_;
  Solver solver_;

  /// Queue state under mu_: pending ops, sequence numbers, counters.
  mutable std::mutex mu_;
  std::condition_variable cv_work_;      // writer: ops available / stop
  std::condition_variable cv_not_full_;  // producers: queue drained
  std::condition_variable cv_flushed_;   // Flush: publication advanced
  std::vector<Op> pending_;
  std::uint64_t enqueued_seq_ = 0;   // ops ever accepted
  std::uint64_t published_seq_ = 0;  // ops published, on_publish run
  std::uint64_t next_version_ = 0;
  ServingStats stats_;
  bool stop_ = false;

#if AFP_SERVING_ATOMIC_SNAPSHOT
  std::atomic<SnapshotPtr> snapshot_;
#else
  mutable std::mutex snapshot_mu_;
  SnapshotPtr snapshot_;
#endif

  std::thread writer_;
};

}  // namespace afp::serving

namespace afp {
/// The serving layer's public names, re-exported at namespace scope like
/// the rest of the facade API.
using serving::ModelSnapshot;
using serving::ServingOptions;
using serving::ServingSolver;
using serving::ServingStats;
using serving::SnapshotPtr;
}  // namespace afp

#endif  // AFP_SERVING_SERVING_SOLVER_H_
