#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "common/sync.h"

namespace dap::common {

namespace {

/// Hard cap on pool size: oversubscribing beyond this is never useful
/// and bounds the resources a bad --threads value can claim.
constexpr std::size_t kMaxThreads = 256;

// The hooks and the thread-count override are process-wide configuration
// for the parallel engine itself. The hooks are written by obs's static
// initializer and read once per parallel_for (snapshotted into the job),
// both under g_hooks_mu; the override is a plain atomic.
Mutex g_hooks_mu;                               // lint: allow(global-state): engine-wide config lock
ShardHooks g_hooks DAP_GUARDED_BY(g_hooks_mu);  // lint: allow(global-state): guarded engine config
std::atomic<std::size_t> g_thread_override{0};  // lint: allow(global-state): atomic engine config

thread_local bool tls_in_parallel_region = false;

struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One parallel_for invocation: the chunk list, one deque of chunk ids
/// per participant (work-stealing victims), and the join bookkeeping.
///
/// Sharing discipline, field by field: `body`, `chunks`, `hooks`, and
/// the `queues` vector itself are filled in by parallel_for BEFORE the
/// job is published to the pool and never written afterwards; `shards`
/// slots are written by exactly one executor each (index-addressed by
/// chunk id) and only read after the join; the join counters are
/// atomics; everything else is guarded by the mutex named in its
/// annotation.
struct Job {
  const std::function<void(std::size_t)>* body =  // lint: allow(guarded-fields): immutable once published
      nullptr;
  std::vector<Chunk> chunks;   // lint: allow(guarded-fields): immutable once published
  ShardHooks hooks;            // lint: allow(guarded-fields): immutable once published
  std::vector<void*> shards;   // lint: allow(guarded-fields): one writer per index-addressed slot

  struct Queue {
    Mutex mu;
    std::deque<std::size_t> chunk_ids DAP_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Queue>> queues;  // lint: allow(guarded-fields): vector immutable once published

  std::atomic<std::size_t> unfinished_chunks{0};
  std::atomic<std::size_t> active_workers{0};
  std::atomic<bool> failed{false};
  Mutex error_mu;
  std::exception_ptr error DAP_GUARDED_BY(error_mu);

  Mutex join_mu;
  CondVar join_cv;

  void note_failure(std::exception_ptr err) {
    {
      const LockGuard lock(error_mu);
      if (error == nullptr) error = std::move(err);
    }
    failed.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] std::exception_ptr take_error() {
    const LockGuard lock(error_mu);
    return std::exchange(error, nullptr);
  }

  void note_chunk_done() {
    // Decrementing outside join_mu is safe here (unlike in
    // note_worker_exit): a pool worker running this still holds its
    // active_workers slot, so run() cannot pass its final wait — and
    // destroy the job — until the worker reaches note_worker_exit; the
    // caller's own chunks run on the thread that later destroys the job.
    if (unfinished_chunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const LockGuard lock(join_mu);
      join_cv.notify_all();
    }
  }
  void note_worker_exit() {
    // The decrement MUST happen under join_mu: run()'s final wait
    // destroys the job (join_mu and join_cv included) as soon as its
    // predicate sees active_workers == 0, so dropping the count before
    // taking the lock would let a spuriously-waking caller free the
    // condvar this thread is about to lock and notify.
    const LockGuard lock(join_mu);
    active_workers.fetch_sub(1, std::memory_order_acq_rel);
    join_cv.notify_all();
  }
};

/// Unbinds the shard even when the body throws.
class ShardActivation {
 public:
  ShardActivation(const ShardHooks& hooks, void* shard)
      : hooks_(hooks), shard_(shard) {
    if (shard_ != nullptr && hooks_.activate != nullptr) {
      hooks_.activate(shard_);
    }
    tls_in_parallel_region = true;
  }
  ShardActivation(const ShardActivation&) = delete;
  ShardActivation& operator=(const ShardActivation&) = delete;
  ~ShardActivation() {
    tls_in_parallel_region = false;
    if (shard_ != nullptr && hooks_.deactivate != nullptr) {
      hooks_.deactivate(shard_);
    }
  }

 private:
  const ShardHooks& hooks_;
  void* shard_;
};

void execute_chunk(Job& job, std::size_t chunk_id) {
  void* shard = job.hooks.create != nullptr ? job.hooks.create() : nullptr;
  job.shards[chunk_id] = shard;
  {
    const ShardActivation activation(job.hooks, shard);
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        const Chunk& chunk = job.chunks[chunk_id];
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          (*job.body)(i);
        }
      } catch (...) {
        job.note_failure(std::current_exception());
      }
    }
  }
  job.note_chunk_done();
}

/// Drains the job's queues as participant `self`: own deque from the
/// front, then steal from the back of the other participants' deques.
void participate(Job& job, std::size_t self) {
  const std::size_t participants = job.queues.size();
  for (;;) {
    std::size_t chunk_id = 0;
    bool found = false;
    {
      Job::Queue& own = *job.queues[self];
      const LockGuard lock(own.mu);
      if (!own.chunk_ids.empty()) {
        chunk_id = own.chunk_ids.front();
        own.chunk_ids.pop_front();
        found = true;
      }
    }
    for (std::size_t offset = 1; !found && offset < participants; ++offset) {
      Job::Queue& victim = *job.queues[(self + offset) % participants];
      const LockGuard lock(victim.mu);
      if (!victim.chunk_ids.empty()) {
        chunk_id = victim.chunk_ids.back();
        victim.chunk_ids.pop_back();
        found = true;
      }
    }
    if (!found) return;
    execute_chunk(job, chunk_id);
  }
}

/// Lazily grown pool of sleeping workers. A parallel_for publishes its
/// job with a claim budget; each woken worker claims a participant slot,
/// drains the job, and goes back to sleep. Workers persist across calls.
class WorkStealingPool {
 public:
  static WorkStealingPool& instance() {
    // The pool is the engine's own machinery, torn down at process exit.
    static WorkStealingPool pool;  // lint: allow(global-state): process-wide worker pool
    return pool;
  }

  /// Runs `job` with `threads` participants (the caller is participant
  /// 0). Returns after every chunk completed AND every claimed worker
  /// left the job, so `job` can live on the caller's stack.
  void run(Job& job, std::size_t threads) {
    ensure_workers(threads - 1);
    {
      const LockGuard lock(mu_);
      ++generation_;
      current_job_ = &job;
      claims_available_ = threads - 1;
      next_slot_ = 1;
    }
    cv_.notify_all();
    participate(job, 0);
    {
      UniqueLock lock(job.join_mu);
      while (job.unfinished_chunks.load(std::memory_order_acquire) != 0) {
        job.join_cv.wait(lock);
      }
    }
    // Close the claim window BEFORE waiting for workers to leave. Claims
    // happen under mu_ (including the active_workers increment), so once
    // current_job_ is cleared here no late-waking worker can attach to
    // this job, and active_workers already counts every claim that did —
    // the wait below therefore covers all of them. Waiting on the
    // combined predicate first instead would let a worker claim after
    // the caller observed active_workers == 0, touching the
    // stack-allocated job after run() returned.
    {
      const LockGuard lock(mu_);
      current_job_ = nullptr;
      claims_available_ = 0;
    }
    {
      UniqueLock lock(job.join_mu);
      while (job.active_workers.load(std::memory_order_acquire) != 0) {
        job.join_cv.wait(lock);
      }
    }
  }

 private:
  WorkStealingPool() = default;
  ~WorkStealingPool() {
    std::vector<std::thread> workers;
    {
      const LockGuard lock(mu_);
      stop_ = true;
      workers.swap(workers_);
    }
    cv_.notify_all();
    for (std::thread& worker : workers) worker.join();
  }

  void ensure_workers(std::size_t wanted) {
    const LockGuard lock(mu_);
    while (workers_.size() < wanted && workers_.size() < kMaxThreads - 1) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    std::uint64_t last_generation = 0;
    for (;;) {
      Job* job = nullptr;
      std::size_t slot = 0;
      {
        UniqueLock lock(mu_);
        while (!(stop_ || (current_job_ != nullptr && claims_available_ > 0 &&
                           generation_ != last_generation))) {
          cv_.wait(lock);
        }
        if (stop_) return;
        last_generation = generation_;
        --claims_available_;
        slot = next_slot_++;
        job = current_job_;
        job->active_workers.fetch_add(1, std::memory_order_acq_rel);
      }
      participate(*job, slot);
      job->note_worker_exit();
    }
  }

  Mutex mu_;
  CondVar cv_;
  std::vector<std::thread> workers_ DAP_GUARDED_BY(mu_);
  Job* current_job_ DAP_GUARDED_BY(mu_) = nullptr;
  std::size_t claims_available_ DAP_GUARDED_BY(mu_) = 0;
  std::size_t next_slot_ DAP_GUARDED_BY(mu_) = 1;
  std::uint64_t generation_ DAP_GUARDED_BY(mu_) = 0;
  bool stop_ DAP_GUARDED_BY(mu_) = false;
};

void run_serial(std::size_t n, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) body(i);
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_threads() noexcept {
  const std::size_t override_threads =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_threads != 0) return override_threads;
  if (const char* env = std::getenv("DAP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= kMaxThreads) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return hardware_threads();
}

void set_default_threads(std::size_t n) noexcept {
  g_thread_override.store(n > kMaxThreads ? kMaxThreads : n,
                          std::memory_order_relaxed);
}

bool in_parallel_region() noexcept { return tls_in_parallel_region; }

void set_shard_hooks(const ShardHooks& hooks) noexcept {
  const LockGuard lock(g_hooks_mu);
  g_hooks = hooks;
}

ShardHooks shard_hooks() noexcept {
  const LockGuard lock(g_hooks_mu);
  return g_hooks;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelOptions& options) {
  if (n == 0) return;
  std::size_t threads =
      options.threads != 0 ? options.threads : default_threads();
  if (threads > kMaxThreads) threads = kMaxThreads;
  if (threads > n) threads = n;
  // Inside a parallel region the telemetry shard for the outer chunk is
  // already bound; running inline keeps the shard accounting (and the
  // serial-equivalence argument) simple.
  if (threads <= 1 || in_parallel_region()) {
    run_serial(n, body);
    return;
  }

  // Several chunks per participant so stealing can rebalance uneven
  // per-item cost; chunk boundaries depend only on (n, threads, grain).
  std::size_t grain = options.grain;
  if (grain == 0) {
    const std::size_t target_chunks = threads * 4;
    grain = (n + target_chunks - 1) / target_chunks;
    if (grain == 0) grain = 1;
  }
  const std::size_t chunk_count = (n + grain - 1) / grain;

  Job job;
  job.body = &body;
  job.hooks = shard_hooks();
  job.chunks.reserve(chunk_count);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    job.chunks.push_back(Chunk{begin, begin + grain < n ? begin + grain : n});
  }
  DAP_INVARIANT(job.chunks.size() == chunk_count,
                "parallel_for: chunk layout must match the computed count");
  job.shards.assign(job.chunks.size(), nullptr);
  job.unfinished_chunks.store(job.chunks.size(), std::memory_order_relaxed);
  job.queues.reserve(threads);
  for (std::size_t q = 0; q < threads; ++q) {
    job.queues.push_back(std::make_unique<Job::Queue>());
  }
  // Round-robin initial placement; stealing corrects any imbalance. The
  // queues are not shared until run() publishes the job, but the
  // analysis has no "pre-publication" notion — taking the (uncontended)
  // lock here keeps the invariant checkable instead of suppressed.
  for (std::size_t chunk_id = 0; chunk_id < job.chunks.size(); ++chunk_id) {
    Job::Queue& queue = *job.queues[chunk_id % threads];
    const LockGuard lock(queue.mu);
    queue.chunk_ids.push_back(chunk_id);
  }

  WorkStealingPool::instance().run(job, threads);

  // Merge shards on the calling thread in chunk order: fixed order makes
  // the merged registry reproducible for a fixed configuration.
  for (void* shard : job.shards) {
    if (shard == nullptr) continue;
    if (job.hooks.merge != nullptr) job.hooks.merge(shard);
    if (job.hooks.destroy != nullptr) job.hooks.destroy(shard);
  }
  if (std::exception_ptr error = job.take_error()) {
    std::rethrow_exception(error);
  }
}

}  // namespace dap::common
