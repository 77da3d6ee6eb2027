#ifndef AFP_EXEC_SCHEDULER_H_
#define AFP_EXEC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

namespace afp {

/// A DAG in CSR form, edges pointing dependency -> dependent: the
/// successors of node u are the nodes that must wait for u. The SCC
/// engine passes AtomDependencyGraph's condensation here; tests pass
/// hand-built shapes (diamond, chain, antichain).
///
/// The referenced vectors must outlive the Run call; `offsets` has
/// num_nodes + 1 entries and `targets` has offsets->back() entries.
struct DagView {
  std::size_t num_nodes = 0;
  const std::vector<std::uint32_t>* offsets = nullptr;
  const std::vector<std::uint32_t>* targets = nullptr;
  /// Optional precomputed in-degrees (one per node, consistent with the
  /// CSR above). When set, the scheduler copies these instead of
  /// recounting from `targets` — the SCC engine passes
  /// AtomDependencyGraph::condensation_in_degrees() here.
  const std::vector<std::uint32_t>* in_degrees = nullptr;
};

/// What one scheduler run looked like. The wavefront widths are a static
/// property of the DAG (deterministic); the queue/idle counters describe
/// the actual execution and vary run to run under contention.
struct SchedulerStats {
  std::size_t num_nodes = 0;
  std::size_t num_workers = 0;
  /// Kahn layering of the DAG: wavefront_widths[d] is the number of nodes
  /// whose longest dependency chain from a root has length d. The widths
  /// are the parallelism profile — max width bounds the useful worker
  /// count, and sum(widths) == num_nodes.
  std::vector<std::uint32_t> wavefront_widths;
  /// Widest ready set observed while dispatching (<= max wavefront width;
  /// equality when workers drain a whole antichain before any completes).
  std::size_t max_ready = 0;
  /// Times a worker found the ready queue empty and blocked on the
  /// condition variable while work was still in flight.
  std::size_t idle_waits = 0;
  /// Tasks executed by a different worker than the one whose completion
  /// made them ready — the shared-queue analogue of steals. Roots count
  /// as readied by the caller, so on a pure antichain every task a
  /// worker runs is a "steal" from the caller.
  std::size_t steals = 0;

  std::size_t MaxWavefrontWidth() const {
    std::size_t w = 0;
    for (std::uint32_t x : wavefront_widths) w = w > x ? w : x;
    return w;
  }
};

/// Options for a scheduler run.
struct SchedulerOptions {
  /// Worker threads. <= 1 runs every task inline on the calling thread in
  /// deterministic Kahn FIFO order (no threads are spawned); the SCC
  /// engine's single-threaded path does not even reach the scheduler, so
  /// this inline mode exists for the generic users (query batches, tests).
  /// The effective pool is clamped to min(num_threads, num_nodes, 256) —
  /// workers beyond the node count can never hold work, and the hard cap
  /// keeps an absurd request from aborting in std::thread construction.
  /// SchedulerStats::num_workers reports the clamped value.
  int num_threads = 1;
};

/// Runs `task(node, worker)` once per DAG node, never before all of the
/// node's predecessors have returned. Workers are indexed 0..num_threads-1
/// (inline mode uses worker 0 throughout); a task may use its worker index
/// to address per-thread state (an EvalContextRegistry slot) without
/// locking.
///
/// Scheduling discipline: a mutex-protected ready deque with condition-
/// variable parking. The lock is NOT on the hot path — a worker claims a
/// CHUNK of ready nodes per acquisition (its fair share of the ready set,
/// capped), runs them all, then reports their completions under one more
/// acquisition; everything in between runs lock-free on worker-owned
/// state, and the lock traffic scales with wavefronts rather than tasks.
/// Completion decrements each successor's in-degree (computed here from
/// the DagView) and enqueues those that reach zero, in successor order,
/// so the readying ORDER is deterministic even though the interleaving
/// across workers is not. Tasks must not throw.
///
/// Determinism contract: the scheduler guarantees only predecessor-
/// completion ordering. Any task function whose output depends solely on
/// its own node and its predecessors' published results therefore
/// produces the same results at every thread count — the argument the
/// parallel SCC engine's differential tests pin down.
SchedulerStats RunWavefront(const DagView& dag, const SchedulerOptions& options,
                            const std::function<void(std::uint32_t node,
                                                     std::uint32_t worker)>& task);

/// What one dynamic work-pool run looked like (RunWorkPool) — the
/// discovered-tree counterpart of SchedulerStats. Unlike the wavefront
/// scheduler there is no static DAG: tasks create tasks, so these counters
/// describe the tree the run actually grew rather than a shape known up
/// front.
struct WorkPoolStats {
  std::size_t num_workers = 0;
  std::size_t items_run = 0;
  /// Items executed by a different worker than the one that submitted them
  /// (roots count as submitted by the caller, mirroring the wavefront
  /// scheduler's steal convention). Zero in inline mode.
  std::size_t steals = 0;
  /// Times a worker found the deque empty and parked while items were
  /// still in flight on other workers (in-flight items may submit more).
  std::size_t idle_waits = 0;
  /// Deepest the shared deque ever got.
  std::size_t max_queue = 0;
  /// True when Cancel() stopped the run before the deque drained.
  bool cancelled = false;
  std::vector<std::size_t> per_worker_items;
  std::vector<std::size_t> per_worker_steals;
  std::vector<std::size_t> per_worker_idle_waits;
};

class WorkPool;

/// Runs a dynamic work-sharing pool until the deque drains (and no item is
/// still executing) or the pool is cancelled. `roots` seeds the deque; the
/// task receives the pool handle so it can Submit the items it discovers
/// (branch-tree children) and check cancellation. Workers are indexed
/// 0..num_workers-1 exactly like RunWavefront's, so tasks address
/// per-thread state (an EvalContextRegistry slot) by worker index without
/// locking; SchedulerOptions::num_threads <= 1 runs everything inline on
/// the calling thread as worker 0 — the exact order a one-worker pool
/// would use, with no threads spawned. With more workers the calling
/// thread is still worker 0, and it claims the last root before the
/// others start. Tasks must not throw.
///
/// Determinism contract: the pool guarantees nothing about execution
/// order across workers (LIFO claiming is a locality heuristic, not a
/// promise). A caller that needs a deterministic RESULT must make its
/// task outputs order-independent — the parallel stable-model search does
/// this with an explicit tree + ordered emission cursor (src/search/).
WorkPoolStats RunWorkPool(std::span<const std::uint64_t> roots,
                          const SchedulerOptions& options,
                          const std::function<void(WorkPool& pool,
                                                   std::uint64_t item,
                                                   std::uint32_t worker)>& task);

/// The dynamic companion to RunWavefront's static DAG: a mutex-protected
/// LIFO deque of caller-defined 64-bit work items, with condition-variable
/// parking, cancellation, and steal accounting. Construction is private —
/// a pool only exists inside a RunWorkPool call, which hands it to the
/// task by reference.
class WorkPool {
 public:
  /// Submitter id for items not enqueued by a worker (RunWorkPool tags the
  /// roots with this; the steal counters treat such items as stolen).
  static constexpr std::uint32_t kExternalSubmitter = 0xFFFFFFFFu;

  /// Enqueues an item. LIFO claiming means the most recently submitted
  /// item is picked up next, so with tree-shaped work each worker dives
  /// depth-first and the deque stays shallow. `submitter` is the calling
  /// worker's index (steal accounting only). No-op after Cancel.
  void Submit(std::uint64_t item, std::uint32_t submitter);

  /// Stops the run: drops every queued item and wakes all workers. Items
  /// already executing finish normally; their Submits are dropped.
  /// Idempotent; callable from any task or from outside the pool.
  void Cancel();

  /// Relaxed peek, cheap enough for a per-item check inside tasks.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  friend WorkPoolStats RunWorkPool(
      std::span<const std::uint64_t> roots, const SchedulerOptions& options,
      const std::function<void(WorkPool&, std::uint64_t, std::uint32_t)>&
          task);

  WorkPool() = default;

  struct Item {
    std::uint64_t payload = 0;
    std::uint32_t submitter = 0;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> deque_;
  std::size_t in_flight_ = 0;
  std::atomic<bool> cancelled_{false};
  WorkPoolStats stats_;
};

/// The Kahn layering alone (wavefront widths + a topological check).
/// Returns false if the "DAG" has a cycle (some node never becomes
/// ready); RunWavefront asserts this in debug builds and would deadlock
/// on a cyclic input otherwise, so callers constructing DAGs from
/// untrusted data should pre-check.
bool ComputeWavefronts(const DagView& dag,
                       std::vector<std::uint32_t>* widths);

}  // namespace afp

#endif  // AFP_EXEC_SCHEDULER_H_
