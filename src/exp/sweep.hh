/**
 * @file
 * Parallel experiment engine: fans parameter-grid points and
 * Monte-Carlo seed replications across a util::ShardRunner, one shard
 * per point.
 *
 * Determinism contract: every sweep point i receives the substream
 * Rng(seed).split(i), which depends only on (seed, i) — never on
 * thread scheduling — and results are collected in point order. A
 * sweep therefore produces bit-identical output with --jobs 1 and
 * --jobs N, provided the point body itself is a pure function of
 * (point, rng).
 */

#ifndef IMSIM_EXP_SWEEP_HH
#define IMSIM_EXP_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/progress.hh"
#include "exp/report.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/shard.hh"

namespace imsim {
namespace exp {

/** Knobs shared by every sweep (typically filled from the CLI). */
struct SweepOptions
{
    std::size_t jobs = 0; ///< Compute threads, caller included;
                          ///< 0 = hardware concurrency.
    std::uint64_t seed = 0x1ce5eedULL; ///< Root seed for Rng::split.
    /** Optional observer (not owned); see progressFromCli. */
    ProgressMonitor *progress = nullptr;
};

/**
 * Raised when a sweep point's body throws: carries the *lowest* failed
 * point index and the original message, composed identically whether
 * the sweep ran on one thread or many — so failure reports do not
 * depend on --jobs.
 */
class SweepPointError : public FatalError
{
  public:
    SweepPointError(std::size_t index, const std::string &what_arg)
        : FatalError("SweepRunner: point " + std::to_string(index) +
                     " failed: " + what_arg),
          failedIndex(index)
    {}

    /** @return the failed sweep-point index. */
    std::size_t index() const { return failedIndex; }

  private:
    std::size_t failedIndex;
};

/**
 * Runs experiment bodies over index ranges or parameter grids, in
 * parallel, with per-point deterministic substreams.
 *
 * jobs == 1 executes every point inline on the calling thread, in
 * index order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** @return compute threads the runner fans across (caller included). */
    std::size_t jobs() const { return workerCount; }

    /** @return the root seed points are split from. */
    std::uint64_t seed() const { return rootSeed; }

    /**
     * Run @p fn(i, rng) for every i in [0, n) and return the results
     * in index order. @p fn must not touch shared mutable state.
     *
     * Failure semantics: when a body throws a std::exception, no
     * further points start and the call raises a SweepPointError for
     * the lowest failed index, with the same message under --jobs 1
     * and --jobs N (points already in flight are joined first).
     *
     * When options.progress is set, the monitor sees begin/started/
     * finished/end events; results are unaffected.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t n,
        const std::function<T(std::size_t, util::Rng &)> &fn) const
    {
        ProgressMonitor *mon = monitor;
        if (mon)
            mon->begin(n);
        std::vector<std::optional<T>> slots(n);
        std::vector<std::optional<std::string>> failures(n);
        try {
            util::ShardRunner(workerCount)
                .run(util::ShardPlan::even(n, n),
                     [&](std::size_t i, std::size_t, std::size_t) {
                         if (mon)
                             mon->pointStarted(i);
                         util::Rng rng = substream(i);
                         try {
                             slots[i].emplace(fn(i, rng));
                         } catch (const std::exception &e) {
                             failures[i] = e.what();
                             throw;
                         }
                         if (mon)
                             mon->pointFinished(i);
                     });
        } catch (...) {
            if (mon)
                mon->end();
            // Points are claimed in ascending order, so every index
            // below a recorded failure has run: the lowest one is the
            // failure a one-thread run stops at.
            for (std::size_t i = 0; i < n; ++i)
                if (failures[i])
                    throw SweepPointError(i, *failures[i]);
            throw;
        }
        if (mon)
            mon->end();
        std::vector<T> results;
        results.reserve(n);
        for (auto &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

    /**
     * Sweep a parameter grid and collect a structured report.
     *
     * @p fn fills one MetricSet per point, which the report stores
     * as-is: one record per grid point, in grid order. When a progress
     * monitor is attached, its wall-clock timing snapshot is stored as
     * the report's "timing" section (outside the result payload).
     */
    RunReport
    run(const std::string &name, const std::vector<Params> &grid,
        const std::function<void(const Params &, std::size_t, util::Rng &,
                                 MetricSet &)> &fn) const;

    /** @return the deterministic substream for point @p index. */
    util::Rng
    substream(std::size_t index) const
    {
        return util::Rng(rootSeed).split(index);
    }

  private:
    std::size_t workerCount;
    std::uint64_t rootSeed;
    ProgressMonitor *monitor;
};

/**
 * Cartesian product helper: one Params row per combination of
 * @p first x @p second, labelled with the given keys.
 */
std::vector<Params> paramGrid(const std::string &first_key,
                              const std::vector<std::string> &first,
                              const std::string &second_key,
                              const std::vector<std::string> &second);

} // namespace exp
} // namespace imsim

#endif // IMSIM_EXP_SWEEP_HH
