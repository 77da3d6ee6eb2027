#include "exec/scheduler.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace afp {

namespace {

/// UINT32_MAX marks "readied by the caller" (a root) in the steal
/// accounting.
constexpr std::uint32_t kCallerWorker = UINT32_MAX;

std::vector<std::uint32_t> InDegrees(const DagView& dag) {
  if (dag.in_degrees != nullptr) return *dag.in_degrees;
  std::vector<std::uint32_t> indeg(dag.num_nodes, 0);
  for (std::uint32_t t : *dag.targets) ++indeg[t];
  return indeg;
}

}  // namespace

namespace {

/// Kahn layering over a caller-supplied in-degree array (consumed
/// destructively), so RunWavefront computes in-degrees once and shares
/// them between the stats pass and the run.
bool ComputeWavefrontsFromIndeg(const DagView& dag,
                                std::vector<std::uint32_t> indeg,
                                std::vector<std::uint32_t>* widths) {
  widths->clear();
  if (dag.num_nodes == 0) return true;
  // depth[v] = longest dependency chain from a root; processed in Kahn
  // order so every predecessor's depth is final when v is popped.
  std::vector<std::uint32_t> depth(dag.num_nodes, 0);
  std::deque<std::uint32_t> queue;
  for (std::uint32_t v = 0; v < dag.num_nodes; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    std::uint32_t v = queue.front();
    queue.pop_front();
    ++processed;
    if (depth[v] >= widths->size()) widths->resize(depth[v] + 1, 0);
    ++(*widths)[depth[v]];
    for (std::uint32_t k = (*dag.offsets)[v]; k < (*dag.offsets)[v + 1];
         ++k) {
      std::uint32_t w = (*dag.targets)[k];
      if (depth[w] < depth[v] + 1) depth[w] = depth[v] + 1;
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }
  return processed == dag.num_nodes;
}

}  // namespace

bool ComputeWavefronts(const DagView& dag,
                       std::vector<std::uint32_t>* widths) {
  return ComputeWavefrontsFromIndeg(dag, InDegrees(dag), widths);
}

SchedulerStats RunWavefront(
    const DagView& dag, const SchedulerOptions& options,
    const std::function<void(std::uint32_t, std::uint32_t)>& task) {
  SchedulerStats stats;
  stats.num_nodes = dag.num_nodes;
  // Clamp the pool: more workers than nodes can never hold work, and the
  // hard cap keeps a runaway request from aborting in std::thread
  // construction (see SchedulerOptions::num_threads).
  constexpr int kMaxWorkers = 256;
  int num_workers = options.num_threads < 1 ? 1 : options.num_threads;
  if (num_workers > kMaxWorkers) num_workers = kMaxWorkers;
  if (dag.num_nodes > 0 &&
      static_cast<std::size_t>(num_workers) > dag.num_nodes) {
    num_workers = static_cast<int>(dag.num_nodes);
  }
  stats.num_workers = static_cast<std::size_t>(num_workers);
  std::vector<std::uint32_t> indeg = InDegrees(dag);
  [[maybe_unused]] bool acyclic =
      ComputeWavefrontsFromIndeg(dag, indeg, &stats.wavefront_widths);
  assert(acyclic && "RunWavefront requires an acyclic dependency graph");
  if (dag.num_nodes == 0) return stats;

  if (num_workers == 1) {
    // Inline path: plain Kahn FIFO on the calling thread, bit-identical
    // run to run. No mutex, no threads.
    std::deque<std::uint32_t> ready;
    for (std::uint32_t v = 0; v < dag.num_nodes; ++v) {
      if (indeg[v] == 0) ready.push_back(v);
    }
    stats.steals = 0;
    while (!ready.empty()) {
      if (ready.size() > stats.max_ready) stats.max_ready = ready.size();
      std::uint32_t v = ready.front();
      ready.pop_front();
      task(v, 0);
      for (std::uint32_t k = (*dag.offsets)[v]; k < (*dag.offsets)[v + 1];
           ++k) {
        if (--indeg[(*dag.targets)[k]] == 0) {
          ready.push_back((*dag.targets)[k]);
        }
      }
    }
    return stats;
  }

  // Parallel path. All shared mutable state below is touched only under
  // `mu`, except the task bodies themselves: the mutex around completion
  // (release) and the next pop (acquire) is what sequences a task after
  // its predecessors, so task bodies need no ordering of their own beyond
  // whatever publication discipline their shared outputs use.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint32_t> ready;
  std::vector<std::uint32_t> readied_by(dag.num_nodes, kCallerWorker);
  std::size_t remaining = dag.num_nodes;
  for (std::uint32_t v = 0; v < dag.num_nodes; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }

  // Chunked dispatch: a worker claims up to this many ready nodes per
  // lock acquisition (scaled down so a wide antichain still spreads
  // across the pool). Condensations are dominated by trivial singleton
  // components — EDB facts — whose tasks run in well under a lock's
  // contention cost; amortizing the mutex over a chunk keeps the
  // scheduling overhead proportional to wavefronts, not tasks. Chunking
  // cannot violate ordering: everything in the ready deque already has
  // all predecessors complete.
  constexpr std::size_t kMaxChunk = 64;

  auto worker = [&](std::uint32_t me) {
    std::vector<std::uint32_t> chunk;
    chunk.reserve(kMaxChunk);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      while (ready.empty() && remaining > 0) {
        ++stats.idle_waits;
        cv.wait(lock);
      }
      if (ready.empty()) return;  // remaining == 0: all done
      if (ready.size() > stats.max_ready) stats.max_ready = ready.size();
      std::size_t take = (ready.size() + stats.num_workers - 1) /
                         stats.num_workers;
      take = std::min({take, ready.size(), kMaxChunk});
      chunk.clear();
      for (std::size_t i = 0; i < take; ++i) {
        std::uint32_t v = ready.front();
        ready.pop_front();
        if (readied_by[v] != me) ++stats.steals;
        chunk.push_back(v);
      }
      lock.unlock();

      for (std::uint32_t v : chunk) task(v, me);

      lock.lock();
      bool woke_someone = false;
      for (std::uint32_t v : chunk) {
        for (std::uint32_t k = (*dag.offsets)[v];
             k < (*dag.offsets)[v + 1]; ++k) {
          std::uint32_t w = (*dag.targets)[k];
          if (--indeg[w] == 0) {
            readied_by[w] = me;
            ready.push_back(w);
            woke_someone = true;
          }
        }
        --remaining;
      }
      if (woke_someone || remaining == 0) {
        // notify_all rather than counting sleepers: completion is rare
        // (once per chunk) and spurious wakeups just re-check the queue.
        cv.notify_all();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    pool.emplace_back(worker, static_cast<std::uint32_t>(w));
  }
  for (std::thread& t : pool) t.join();
  return stats;
}

void WorkPool::Submit(std::uint64_t item, std::uint32_t submitter) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    deque_.push_back(Item{item, submitter});
    if (deque_.size() > stats_.max_queue) stats_.max_queue = deque_.size();
  }
  cv_.notify_one();
}

void WorkPool::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_.store(true, std::memory_order_relaxed);
    deque_.clear();
    stats_.cancelled = true;
  }
  cv_.notify_all();
}

WorkPoolStats RunWorkPool(
    std::span<const std::uint64_t> roots, const SchedulerOptions& options,
    const std::function<void(WorkPool&, std::uint64_t, std::uint32_t)>&
        task) {
  // Same clamp rationale as RunWavefront, minus the node-count bound (the
  // work set is discovered dynamically, so there is no static count to
  // clamp against).
  constexpr int kMaxWorkers = 256;
  int num_workers = options.num_threads < 1 ? 1 : options.num_threads;
  if (num_workers > kMaxWorkers) num_workers = kMaxWorkers;

  WorkPool pool;
  WorkPoolStats& stats = pool.stats_;
  stats.num_workers = static_cast<std::size_t>(num_workers);
  stats.per_worker_items.assign(stats.num_workers, 0);
  stats.per_worker_steals.assign(stats.num_workers, 0);
  stats.per_worker_idle_waits.assign(stats.num_workers, 0);
  for (std::uint64_t r : roots) pool.Submit(r, WorkPool::kExternalSubmitter);

  if (num_workers == 1) {
    // Inline path: LIFO on the calling thread — exactly the order a lone
    // pool worker would use, no threads spawned, no steals counted.
    while (true) {
      WorkPool::Item it;
      {
        std::lock_guard<std::mutex> lock(pool.mu_);
        if (pool.deque_.empty() ||
            pool.cancelled_.load(std::memory_order_relaxed)) {
          break;
        }
        it = pool.deque_.back();
        pool.deque_.pop_back();
      }
      task(pool, it.payload, 0);
      ++stats.items_run;
      ++stats.per_worker_items[0];
    }
    return stats;
  }

  auto worker = [&pool, &task, &stats](std::uint32_t me,
                                       std::unique_lock<std::mutex> lock) {
    while (true) {
      while (pool.deque_.empty() && pool.in_flight_ > 0 &&
             !pool.cancelled_.load(std::memory_order_relaxed)) {
        ++stats.idle_waits;
        ++stats.per_worker_idle_waits[me];
        pool.cv_.wait(lock);
      }
      if (pool.deque_.empty() ||
          pool.cancelled_.load(std::memory_order_relaxed)) {
        // Drained (nothing queued, nothing in flight) or cancelled;
        // in-flight tasks on other workers finish on their own threads.
        return;
      }
      WorkPool::Item it = pool.deque_.back();
      pool.deque_.pop_back();
      if (it.submitter != me) {
        ++stats.steals;
        ++stats.per_worker_steals[me];
      }
      ++pool.in_flight_;
      lock.unlock();

      task(pool, it.payload, me);

      lock.lock();
      --pool.in_flight_;
      ++stats.items_run;
      ++stats.per_worker_items[me];
      if (pool.in_flight_ == 0 && pool.deque_.empty()) {
        // Nothing left anywhere: wake parked workers so they can exit.
        pool.cv_.notify_all();
      }
    }
  };

  // The calling thread is worker 0 and holds the lock while the others
  // spawn, so it claims the first item at once instead of waiting for a
  // thread to start.
  std::unique_lock<std::mutex> lock(pool.mu_);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_workers - 1));
  for (int w = 1; w < num_workers; ++w) {
    threads.emplace_back([&worker, &pool, w] {
      worker(static_cast<std::uint32_t>(w),
             std::unique_lock<std::mutex>(pool.mu_));
    });
  }
  worker(0, std::move(lock));
  for (std::thread& t : threads) t.join();
  return stats;
}

}  // namespace afp
