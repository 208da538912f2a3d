#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "base/check.h"

namespace vitality {

namespace {

// Set inside workerLoop; lets the GEMM runner (and callers) detect that
// the current thread belongs to some pool, where nested fan-out must
// collapse to sequential execution.
thread_local bool t_onWorkerThread = false;

// Live pools in construction order. The newest live pool serves as the
// process's GEMM runner; when it is destroyed the role falls back to
// the previous live pool instead of silently leaving every later
// multiply sequential. The mutex also serializes the check-then-install
// so two pools constructed concurrently cannot both claim the role.
std::mutex g_poolRegistryMutex;
std::vector<ThreadPool *> g_livePools;

size_t
defaultThreadCount()
{
    // VITALITY_THREADS overrides the default worker count through the
    // same resolver that caps the GEMM band fan-out (Gemm::maxThreads,
    // 0 = unset), so one knob with one parse pins the whole process to
    // N threads.
    const size_t override = Gemm::maxThreads();
    if (override > 0)
        return override;
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0)
        num_threads = defaultThreadCount();
    workers_.reserve(num_threads);
    for (size_t w = 0; w < num_threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });

    // The newest pool becomes the process's intra-GEMM runner. Width 1
    // from a worker thread keeps nested GEMMs sequential (the
    // (image, head) attention items already fill the pool); Gemm
    // additionally applies the VITALITY_THREADS cap and its size
    // heuristic.
    //
    // The closures capture `state`, never `this`: a multiply can hold a
    // snapshot of this runner past the pool's destruction (see
    // RunnerState in the header), so everything they touch must stay
    // valid until the last snapshot drops.
    runnerState_ = std::make_shared<RunnerState>();
    runnerState_->pool = this;
    runnerState_->width = workers_.size();

    auto runner = std::make_shared<Gemm::ParallelRunner>();
    runner->width = [state = runnerState_]() -> size_t {
        // width is advisory (a band count, not an execution promise),
        // so the immutable worker count serves without taking the
        // gate: if the pool dies between here and run(), run() simply
        // executes that many bands sequentially.
        return onWorkerThread() ? 1 : state->width;
    };
    runner->run = [state = runnerState_](
                      size_t tasks, const std::function<void(size_t)> &fn) {
        std::shared_lock<std::shared_mutex> gate(state->gate);
        if (state->pool != nullptr) {
            state->pool->parallelFor(0, tasks,
                                     [&fn](size_t i, size_t) { fn(i); });
        } else {
            // The pool died after this runner was snapshotted: degrade
            // to sequential execution rather than fail the multiply.
            for (size_t i = 0; i < tasks; ++i)
                fn(i);
        }
    };
    gemmRunner_ = std::move(runner);
    {
        std::lock_guard<std::mutex> lock(g_poolRegistryMutex);
        g_livePools.push_back(this);
        Gemm::setParallelRunner(gemmRunner_);
    }
}

ThreadPool::~ThreadPool()
{
    // Un-install the runner before the workers go away so no later
    // multiply fans out into a dead pool; if another pool is still
    // alive, hand the role to the newest of them instead of dropping
    // intra-GEMM parallelism for the rest of the process.
    {
        std::lock_guard<std::mutex> lock(g_poolRegistryMutex);
        g_livePools.erase(
            std::find(g_livePools.begin(), g_livePools.end(), this));
        if (Gemm::parallelRunner() == gemmRunner_) {
            Gemm::setParallelRunner(
                g_livePools.empty() ? nullptr
                                    : g_livePools.back()->gemmRunner_);
        }
    }
    // Wait out multiplies that snapshotted our runner before the
    // un-install above: run() holds the gate shared for the duration of
    // its fan-out, so taking it exclusively blocks until they drain.
    // Nulling `pool` sends any *later* snapshot-holder down run()'s
    // sequential branch instead of into a joined pool.
    {
        std::unique_lock<std::shared_mutex> gate(runnerState_->gate);
        runnerState_->pool = nullptr;
    }
    // Runner-driven loops have drained above, so a nonzero count here
    // is a genuine caller bug: another thread is still inside a direct
    // parallelFor() on this pool while we tear it down.
    VITALITY_CHECK(inFlightLoops_.load() == 0,
                   "~ThreadPool while %zu parallelFor call(s) in flight",
                   inFlightLoops_.load());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

bool
ThreadPool::onWorkerThread()
{
    return t_onWorkerThread;
}

void
ThreadPool::submit(std::function<void(size_t)> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop(size_t worker)
{
    t_onWorkerThread = true;
    for (;;) {
        std::function<void(size_t)> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(worker);
    }
}

void
ThreadPool::parallelForImpl(size_t begin, size_t end,
                            const std::function<void(size_t, size_t)> &body)
{
    VITALITY_CHECK(!onWorkerThread(),
                   "parallelFor from a pool worker would deadlock");

    // Belt-and-braces for release builds: if the pool is already
    // tearing down (a caller bug the checked build asserts on in the
    // destructor), run the loop inline rather than enqueue tasks no
    // worker may ever pop.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            for (size_t i = begin; i < end; ++i)
                body(i, 0);
            return;
        }
    }

    inFlightLoops_.fetch_add(1);

    // Shared loop state: a counter hands indices to whichever driver task
    // is free, and the last driver to finish wakes the caller.
    struct LoopState
    {
        std::atomic<size_t> next;
        std::atomic<size_t> pendingDrivers;
        std::exception_ptr error;
        std::mutex mutex;
        std::condition_variable done;
    };
    auto state = std::make_shared<LoopState>();
    state->next.store(begin);

    const size_t drivers = std::min(size(), end - begin);
    state->pendingDrivers.store(drivers);

    for (size_t d = 0; d < drivers; ++d) {
        submit([state, end, &body](size_t worker) {
            for (;;) {
                const size_t i = state->next.fetch_add(1);
                if (i >= end)
                    break;
                try {
                    body(i, worker);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->error)
                        state->error = std::current_exception();
                    // Drain remaining indices so the loop still ends.
                    state->next.store(end);
                    break;
                }
            }
            if (state->pendingDrivers.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->done.notify_all();
            }
        });
    }

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock,
                     [&] { return state->pendingDrivers.load() == 0; });
    inFlightLoops_.fetch_sub(1);
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace vitality
