/**
 * @file
 * A fixed-size worker-thread pool.
 *
 * Deliberately simple — a mutex-guarded task queue, no work stealing —
 * because the workloads it serves (one task per attention head, a handful
 * of heads per layer, row bands of a GEMM) are coarse enough that queue
 * contention is noise. What the rest of the runtime relies on is the
 * dense worker numbering: every task body receives the index of the
 * worker executing it, in [0, size()), which is how MultiHeadAttention
 * hands each thread its own AttentionContext without locks or
 * thread-local state.
 *
 * Intra-GEMM parallelism: the most recently constructed live pool
 * serves as the Gemm parallel runner (tensor/gemm.h), so dense GEMMs
 * issued from non-worker threads — the encoder's dense stages — fan
 * microkernel-aligned row bands across the workers. The runner reports
 * width 1 from inside a pool task (any pool's), which keeps the
 * attention items on (image, head) parallelism: a GEMM inside a pool
 * task runs sequentially instead of oversubscribing the pool or
 * deadlocking on nested parallelFor.
 *
 * Destruction ordering: ~ThreadPool first hands the runner role to the
 * newest remaining live pool (or un-installs it), then *blocks until
 * every multiply already fanned out through this pool's runner has
 * drained* — a multiply that snapshotted the runner concurrently with
 * destruction degrades to sequential execution on its own thread
 * instead of touching the dead pool. What remains a caller bug, and is
 * asserted in checked builds (-DVITALITY_CHECKED=ON, base/check.h), is
 * destroying a pool while another thread is inside one of its
 * parallelFor() calls directly.
 *
 * The VITALITY_THREADS environment variable overrides the default
 * worker count (ThreadPool(0)) and also caps the GEMM band fan-out
 * (Gemm::maxThreads); explicit constructor counts are never overridden.
 */

#ifndef VITALITY_RUNTIME_THREAD_POOL_H
#define VITALITY_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "tensor/gemm.h"

namespace vitality {

/** Fixed pool of worker threads with a shared FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 means the process thread
     * override if set — Gemm::maxThreads(), i.e. VITALITY_THREADS or a
     * Gemm::setMaxThreads() call — else hardware_concurrency() (at
     * least 1).
     */
    explicit ThreadPool(size_t num_threads = 0);

    /**
     * Drains nothing: pending tasks are completed before joining.
     * Blocks until multiplies fanned out through this pool's GEMM
     * runner have drained (see the file comment); direct parallelFor
     * callers must have returned already (checked-build contract).
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /**
     * True when the calling thread is a worker of any ThreadPool. The
     * GEMM runner uses this to refuse nested fan-out (parallelFor from
     * a worker would deadlock); callers can use it for the same
     * purpose.
     */
    static bool onWorkerThread();

    /**
     * Enqueue a task; returns immediately. The task receives the index of
     * the worker that runs it. There is no completion handle — use
     * parallelFor() when the caller must wait.
     */
    void submit(std::function<void(size_t worker)> task);

    /**
     * Run body(index, worker) for every index in [begin, end) across the
     * pool and block until all complete. Indices are handed out through a
     * shared counter, so an expensive index does not stall the others.
     * The first exception thrown by any body is rethrown on the calling
     * thread after the loop drains.
     *
     * Must not be called from a pool worker (the caller blocks on the
     * workers, so nesting would deadlock); checked builds assert this.
     *
     * Single-worker pools and single-index loops run the bodies inline
     * on the calling thread (worker index 0) without touching the task
     * queue: no heap allocation, no handoff latency. The steady-state
     * encoder paths rely on this for their zero-allocation contract
     * (tests/test_alloc.cpp), which is also why this is a template —
     * the inline path must not materialize a std::function.
     */
    template <class Body>
    void
    parallelFor(size_t begin, size_t end, Body &&body)
    {
        if (begin >= end)
            return;
        if (workers_.size() == 1 || end - begin == 1) {
            for (size_t i = begin; i < end; ++i)
                body(i, size_t{0});
            return;
        }
        parallelForImpl(begin, end, std::ref(body));
    }

  private:
    /**
     * Shared between the pool and the Gemm runner closures it installs,
     * and the one piece of pool state allowed to outlive the pool: a
     * multiply can snapshot the runner just before ~ThreadPool
     * un-installs it and invoke run() after. run() holds `gate` shared
     * while fanning out; the destructor takes it exclusively and nulls
     * `pool`, which (a) waits out every in-flight fan-out and (b) makes
     * any later run() call execute its bands sequentially on the
     * calling thread instead of dereferencing a dead pool.
     */
    struct RunnerState
    {
        std::shared_mutex gate;
        ThreadPool *pool = nullptr;
        size_t width = 0; ///< Worker count, immutable after construction.
    };

    void workerLoop(size_t worker);
    void parallelForImpl(size_t begin, size_t end,
                         const std::function<void(size_t index,
                                                  size_t worker)> &body);

    std::vector<std::thread> workers_;
    std::deque<std::function<void(size_t)>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    /** Direct parallelFor() calls currently fanned out on this pool. */
    std::atomic<size_t> inFlightLoops_{0};
    std::shared_ptr<RunnerState> runnerState_;
    /** The Gemm runner this pool installed, or nullptr. */
    std::shared_ptr<const Gemm::ParallelRunner> gemmRunner_;
};

} // namespace vitality

#endif // VITALITY_RUNTIME_THREAD_POOL_H
