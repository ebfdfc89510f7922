#include "util/shard.hh"

#include "util/logging.hh"

namespace imsim {
namespace util {

ShardPlan
ShardPlan::even(std::size_t units, std::size_t shards)
{
    ShardPlan plan;
    if (units == 0)
        return plan;
    const std::size_t n = std::min(units, shards == 0 ? 1 : shards);
    plan.bounds.reserve(n + 1);
    plan.bounds.push_back(0);
    for (std::size_t s = 0; s < n; ++s) {
        // units/n per shard, the first units%n shards one unit larger —
        // exact integer arithmetic, no accumulation drift.
        const std::size_t end = (units * (s + 1)) / n;
        plan.bounds.push_back(end);
    }
    return plan;
}

ShardPlan
ShardPlan::alignedTo(const std::vector<std::size_t> &group_begin,
                     std::size_t shards)
{
    ShardPlan plan;
    fatalIf(group_begin.size() < 2 || group_begin.front() != 0,
            "ShardPlan::alignedTo: need offsets [0, ..., units]");
    const std::size_t groups = group_begin.size() - 1;
    const std::size_t units = group_begin.back();
    if (units == 0)
        return plan;
    const std::size_t n =
        std::min(groups, std::min(units, shards == 0 ? 1 : shards));
    plan.bounds.reserve(n + 1);
    plan.bounds.push_back(0);
    // Greedy pack: shard s closes at the first group boundary at or
    // past the even split point, never splitting a group. Deterministic
    // in (group_begin, shards) alone.
    std::size_t g = 0;
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t target = (units * (s + 1)) / n;
        const std::size_t groups_left = groups - g;
        const std::size_t shards_left = n - s;
        // Leave at least one group for each remaining shard.
        std::size_t close = g + 1;
        while (close < groups - (shards_left - 1) &&
               group_begin[close] < target)
            ++close;
        fatalIf(groups_left < shards_left,
                "ShardPlan::alignedTo: internal shard/group imbalance");
        g = close;
        plan.bounds.push_back(group_begin[g]);
    }
    // The loop's leave-one-group guard guarantees the final shard
    // closes exactly at the last boundary.
    fatalIf(plan.bounds.back() != units,
            "ShardPlan::alignedTo: plan does not cover all units");
    return plan;
}

ShardRunner::ShardRunner(std::size_t threads)
    : threadCount(threads == 0 ? 1 : threads)
{
    workers.reserve(threadCount - 1);
    for (std::size_t i = 1; i < threadCount; ++i)
        workers.emplace_back([this]() { workerLoop(); });
}

ShardRunner::~ShardRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shuttingDown = true;
    }
    wakeup.notify_all();
    for (auto &worker : workers)
        worker.join();
}

std::size_t
ShardRunner::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
ShardRunner::workerLoop()
{
    std::uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
        wakeup.wait(lock, [&]() {
            return shuttingDown ||
                   (job.fn != nullptr && job.epoch != seen_epoch);
        });
        if (job.fn == nullptr || job.epoch == seen_epoch)
            return; // Shutting down, no job left to join.
        // A job is live and this worker has not joined it yet.
        // `active` is bumped under the lock, so the coordinator cannot
        // conclude the join while we are inside fn.
        seen_epoch = job.epoch;
        ++job.active;
        lock.unlock();
        drainShards();
        lock.lock();
        if (--job.active == 0)
            jobDone.notify_all();
    }
}

void
ShardRunner::drainShards()
{
    for (;;) {
        const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.count)
            return;
        try {
            job.fn(job.ctx, i);
        } catch (...) {
            // Never let an exception unwind through a worker (that
            // would terminate the process): stash the first one for
            // the coordinator and drag the cursor to the end so every
            // participant drains out promptly.
            std::lock_guard<std::mutex> lock(mutex);
            if (!job.error)
                job.error = std::current_exception();
            job.next.store(job.count, std::memory_order_relaxed);
            return;
        }
    }
}

void
ShardRunner::forkJoin(std::size_t count,
                      void (*fn)(void *ctx, std::size_t i), void *ctx)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        panicIf(job.fn != nullptr,
                "ShardRunner: nested/concurrent run() on one runner");
        job.fn = fn;
        job.ctx = ctx;
        job.count = count;
        job.next.store(0, std::memory_order_relaxed);
        ++job.epoch;
    }
    wakeup.notify_all();
    // The caller is a full participant: with W workers the job runs on
    // up to W+1 threads.
    drainShards();
    std::unique_lock<std::mutex> lock(mutex);
    jobDone.wait(lock, [&]() {
        return job.active == 0 &&
               job.next.load(std::memory_order_relaxed) >= job.count;
    });
    // Workers that never woke for this epoch see fn == nullptr and skip
    // it; the epoch guard keeps late wakers from re-joining a job that
    // already completed.
    job.fn = nullptr;
    job.ctx = nullptr;
    job.count = 0;
    if (job.error) {
        // A shard body threw (possibly on a worker). The join above
        // already completed, so the runner is idle and reusable;
        // surface the first failure on the calling thread.
        std::exception_ptr error = job.error;
        job.error = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

} // namespace util
} // namespace imsim
