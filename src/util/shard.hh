/**
 * @file
 * Intra-run sharding primitives: a deterministic partition of a
 * contiguous index range (ShardPlan) and a fork-join executor over it
 * (ShardRunner).
 *
 * Determinism contract (the FP-identity oracle the fleet layer tests):
 *
 *  - A plan's geometry is a pure function of the population it
 *    partitions (unit count, or group boundaries for aligned plans) —
 *    never of the thread count. Threads only *schedule* shards.
 *  - Shard bodies must write only their own [begin, end) slice of any
 *    shared columns (elementwise kernels qualify trivially).
 *  - Order-sensitive floating-point reductions are performed by the
 *    caller after run() returns, walking shards (or units) in fixed
 *    ascending order — never in completion order.
 *
 * Under those rules a sharded pass is bit-identical to the serial loop
 * for ANY shard count and ANY thread count, which is why
 * `--sim-threads 8` reproduces `--sim-threads 1` exactly.
 */

#ifndef IMSIM_UTIL_SHARD_HH
#define IMSIM_UTIL_SHARD_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace imsim {
namespace util {

/**
 * A partition of [0, units) into contiguous, ordered, non-empty
 * shards. Value type; cheap to copy and compare.
 */
class ShardPlan
{
  public:
    /** An empty plan over zero units (0 shards). */
    ShardPlan() = default;

    /**
     * Evenly split [0, units) into at most @p shards contiguous
     * ranges (fewer when units < shards; sizes differ by at most 1).
     * Deterministic: depends only on (units, shards).
     */
    static ShardPlan even(std::size_t units, std::size_t shards);

    /**
     * Split a grouped population on group boundaries: @p group_begin
     * holds the first unit index of each group plus a final
     * end-sentinel (the rack-offset convention: group g spans
     * [group_begin[g], group_begin[g+1])). Groups are packed greedily
     * toward units/shards per shard, and no group is ever split — the
     * property that keeps per-group FP sums (e.g. per-rack power
     * demand) bit-identical to the serial loop, because every group's
     * sum is still accumulated left-to-right by exactly one thread.
     */
    static ShardPlan alignedTo(const std::vector<std::size_t> &group_begin,
                               std::size_t shards);

    /** @return number of shards (0 for an empty plan). */
    std::size_t shards() const
    {
        return bounds.empty() ? 0 : bounds.size() - 1;
    }

    /** @return total units partitioned. */
    std::size_t units() const { return bounds.empty() ? 0 : bounds.back(); }

    /** @return first unit of shard @p s. */
    std::size_t begin(std::size_t s) const { return bounds[s]; }

    /** @return one-past-last unit of shard @p s. */
    std::size_t end(std::size_t s) const { return bounds[s + 1]; }

  private:
    /** shards()+1 ascending unit offsets; bounds[0] == 0. */
    std::vector<std::size_t> bounds;
};

/**
 * Fork-join executor for shard plans: the repo's one executor. The
 * fleet minute loop runs physics shards through it, and
 * exp::SweepRunner runs sweep points through it (one shard per point).
 *
 * threads == 1 runs every shard inline on the calling thread (no
 * workers, no synchronization — the serial path, bit-identical by
 * construction). threads == T > 1 owns T-1 worker threads for its
 * whole lifetime; run() executes the plan's shards on those workers
 * plus the calling thread and returns only when every shard is done
 * (the conservative barrier the minute loop places between physics
 * phases).
 *
 * Shards are claimed in ascending order through an atomic cursor, so
 * when shard s starts, every shard below s has already been claimed.
 *
 * run() is allocation-free (the job descriptor lives inside the
 * runner), so it is safe inside 0-allocs/op minute loops.
 *
 * Not reentrant: one run() at a time per runner, and a shard body must
 * not call run() on the runner executing it (panics on nesting). A body
 * may drive its own, separate ShardRunner — a sweep point stepping a
 * sharded minute loop does exactly that.
 *
 * Exception-safe: if a shard body throws (on any participating
 * thread), no further shards are claimed, the join completes, and the
 * first exception is rethrown on the calling thread. The runner stays
 * usable afterwards. Shards already in flight when the throw happens
 * still run to completion, so a throw means "some subset of the plan
 * ran". With one thread the first throw simply unwinds the inline
 * loop.
 */
class ShardRunner
{
  public:
    /**
     * @param threads Total compute threads run() may use, including
     *                the caller (0 is clamped to 1).
     */
    explicit ShardRunner(std::size_t threads);

    /** Join every worker. */
    ~ShardRunner();

    ShardRunner(const ShardRunner &) = delete;
    ShardRunner &operator=(const ShardRunner &) = delete;

    /** @return total compute threads (caller included). */
    std::size_t threads() const { return threadCount; }

    /**
     * Execute @p fn(shard, begin, end) for every shard of @p plan and
     * return when all have completed. Shard-to-thread assignment is
     * nondeterministic above 1 thread; results must not depend on it
     * (see the file-level contract).
     */
    template <typename F> void run(const ShardPlan &plan, F &&fn)
    {
        const std::size_t n = plan.shards();
        if (n == 0)
            return;
        if (workers.empty() || n == 1) {
            for (std::size_t s = 0; s < n; ++s)
                fn(s, plan.begin(s), plan.end(s));
            return;
        }
        using Fn = std::remove_reference_t<F>;
        struct Ctx
        {
            const ShardPlan &plan;
            Fn &fn;
        } ctx{plan, fn};
        // A stateless trampoline borrows the callable by reference, so
        // the fork never copies or allocates it.
        forkJoin(
            n,
            [](void *raw, std::size_t s) {
                Ctx &c = *static_cast<Ctx *>(raw);
                c.fn(s, c.plan.begin(s), c.plan.end(s));
            },
            &ctx);
    }

    /**
     * @return the usable hardware concurrency (>= 1 even when the
     *         runtime cannot determine it).
     */
    static std::size_t defaultThreads();

  private:
    /**
     * Run @p fn(ctx, i) for every i in [0, count) on the workers plus
     * the calling thread and return once all indices have completed.
     * Everything the caller wrote before the fork is visible inside
     * fn, and everything fn writes is visible to the caller after the
     * join.
     */
    void forkJoin(std::size_t count, void (*fn)(void *ctx, std::size_t i),
                  void *ctx);

    /** Worker loop: join each new job once, until shutdown. */
    void workerLoop();

    /** Claim and run indices until the current job is drained. */
    void drainShards();

    /**
     * The active forkJoin() job. All fields except `next` are written
     * under `mutex`; `next` is the atomic cursor the participating
     * threads bump lock-free.
     */
    struct ShardJob
    {
        void (*fn)(void *, std::size_t) = nullptr; ///< null = no job.
        void *ctx = nullptr;
        std::size_t count = 0;
        std::atomic<std::size_t> next{0}; ///< Next unclaimed index.
        std::size_t active = 0;   ///< Workers currently inside fn.
        std::uint64_t epoch = 0;  ///< Bumped per job so a worker joins
                                  ///< each job at most once.
        std::exception_ptr error; ///< First exception thrown by fn.
    };

    std::size_t threadCount;
    std::mutex mutex;
    std::condition_variable wakeup;
    std::condition_variable jobDone;
    ShardJob job;
    bool shuttingDown = false;
    /** threads-1 workers; empty when 1. Declared last: they use the
     *  members above from the moment they start. */
    std::vector<std::thread> workers;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_SHARD_HH
