/**
 * @file
 * Unit tests for the util module: logging/error split, RNG determinism
 * and distribution moments, online statistics, percentile estimation,
 * sliding windows, table formatting, and the ShardPlan /
 * ShardRunner fork-join.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/ring.hh"
#include "util/shard.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace imsim {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(util::fatal("bad config"), FatalError);
    EXPECT_THROW(util::fatal("bad config"), Error);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(util::panic("broken invariant"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenConditionHolds)
{
    EXPECT_NO_THROW(util::fatalIf(false, "fine"));
    EXPECT_THROW(util::fatalIf(true, "not fine"), FatalError);
}

TEST(Logging, ErrorMessageIsPreserved)
{
    try {
        util::fatal("the message");
        FAIL() << "expected throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("the message"),
                  std::string::npos);
    }
}

TEST(Rng, SameSeedSameStream)
{
    util::Rng a(7);
    util::Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    util::Rng a(7);
    util::Rng b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRangeRespected)
{
    util::Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, ExponentialMeanConverges)
{
    util::Rng rng(2);
    util::OnlineStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
}

TEST(Rng, LognormalMeanCvMatchesParameters)
{
    util::Rng rng(3);
    util::OnlineStats stats;
    for (int i = 0; i < 300000; ++i)
        stats.add(rng.lognormalMeanCv(2.0, 1.5));
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_NEAR(stats.stddev() / stats.mean(), 1.5, 0.08);
}

// The hoisted draw path: (mu, sigma) computed once and drawn through
// lognormal() gives the same bits as lognormalMeanCv() every time.
TEST(Rng, LognormalParamsDrawMatchesMeanCvBitForBit)
{
    util::Rng by_mean_cv(17);
    util::Rng by_params(17);
    const util::Rng::LognormalParams p =
        util::Rng::lognormalParams(3.3e-3, 1.5);
    for (int i = 0; i < 10000; ++i) {
        const double a = by_mean_cv.lognormalMeanCv(3.3e-3, 1.5);
        const double b = by_params.lognormal(p.mu, p.sigma);
        ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "draw " << i;
    }
    EXPECT_THROW(util::Rng::lognormalParams(1.0, 0.0), FatalError);
    EXPECT_THROW(util::Rng::lognormalParams(0.0, 1.0), FatalError);
}

TEST(Rng, ParetoRespectsMinimum)
{
    util::Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.pareto(1.5, 2.5), 1.5);
}

TEST(Rng, PoissonMeanConverges)
{
    util::Rng rng(5);
    util::OnlineStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(rng.poisson(4.2)));
    EXPECT_NEAR(stats.mean(), 4.2, 0.05);
}

TEST(Rng, DiscretePicksByWeight)
{
    util::Rng rng(6);
    std::vector<double> weights{1.0, 3.0};
    int second = 0;
    for (int i = 0; i < 100000; ++i)
        if (rng.discrete(weights) == 1)
            ++second;
    EXPECT_NEAR(second / 100000.0, 0.75, 0.01);
}

TEST(Rng, InvalidParametersAreFatal)
{
    util::Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), FatalError);
    EXPECT_THROW(rng.uniform(5.0, 2.0), FatalError);
    EXPECT_THROW(rng.bernoulli(1.5), FatalError);
    EXPECT_THROW(rng.discrete({}), FatalError);
    EXPECT_THROW(rng.lognormalMeanCv(-1.0, 1.0), FatalError);
}

TEST(Rng, ChildStreamsAreIndependent)
{
    util::Rng parent(9);
    util::Rng c1 = parent.child();
    util::Rng c2 = parent.child();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (c1.uniform() == c2.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(OnlineStats, MeanVarianceMinMax)
{
    util::OnlineStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream)
{
    util::Rng rng(11);
    util::OnlineStats all;
    util::OnlineStats a;
    util::OnlineStats b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(1.0, 2.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.count(), all.count());
}

TEST(OnlineStats, EmptyIsSafe)
{
    util::OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(PercentileEstimator, ExactQuantiles)
{
    util::PercentileEstimator est;
    for (int i = 1; i <= 100; ++i)
        est.add(static_cast<double>(i));
    EXPECT_NEAR(est.p50(), 50.5, 0.01);
    EXPECT_NEAR(est.p95(), 95.05, 0.01);
    EXPECT_NEAR(est.p99(), 99.01, 0.01);
    EXPECT_DOUBLE_EQ(est.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(est.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(est.mean(), 50.5);
}

TEST(PercentileEstimator, SingleSampleAndEmpty)
{
    util::PercentileEstimator est;
    EXPECT_DOUBLE_EQ(est.p95(), 0.0);
    est.add(3.5);
    EXPECT_DOUBLE_EQ(est.p50(), 3.5);
    EXPECT_DOUBLE_EQ(est.p99(), 3.5);
}

TEST(PercentileEstimator, InterleavedAddAndQuery)
{
    util::PercentileEstimator est;
    est.add(1.0);
    est.add(2.0);
    EXPECT_DOUBLE_EQ(est.percentile(100.0), 2.0);
    est.add(10.0); // Must re-sort after a post-query insertion.
    EXPECT_DOUBLE_EQ(est.percentile(100.0), 10.0);
}

TEST(PercentileEstimator, OutOfRangeIsFatal)
{
    util::PercentileEstimator est;
    est.add(1.0);
    EXPECT_THROW(est.percentile(-1.0), FatalError);
    EXPECT_THROW(est.percentile(101.0), FatalError);
}

TEST(SlidingTimeWindow, TimeWeightedAverage)
{
    util::SlidingTimeWindow window(10.0);
    window.record(0.0, 0.0);
    window.record(5.0, 1.0);
    // Over [0, 10]: half at 0, half at 1.
    EXPECT_NEAR(window.average(10.0), 0.5, 1e-9);
}

TEST(SlidingTimeWindow, OldSegmentsLeaveTheWindow)
{
    util::SlidingTimeWindow window(10.0);
    window.record(0.0, 1.0);
    window.record(20.0, 0.0);
    // At t=35, the window [25, 35] only sees the 0 segment.
    EXPECT_NEAR(window.average(35.0), 0.0, 1e-9);
}

TEST(SlidingTimeWindow, StraddlingSegmentCountsPartially)
{
    util::SlidingTimeWindow window(10.0);
    window.record(0.0, 2.0);
    window.record(12.0, 0.0);
    // Window [5, 15]: 7 s at 2.0, 3 s at 0.0.
    EXPECT_NEAR(window.average(15.0), 2.0 * 0.7, 1e-9);
}

TEST(SlidingTimeWindow, SubWindowAverage)
{
    util::SlidingTimeWindow window(180.0);
    window.record(0.0, 0.0);
    window.record(100.0, 1.0);
    // 30 s sub-window at t=120: 10 s at 0, 20 s at 1.
    EXPECT_NEAR(window.average(120.0, 30.0), 20.0 / 30.0, 1e-9);
    // Full window at t=120: 100 s at 0, 20 s at 1.
    EXPECT_NEAR(window.average(120.0), 20.0 / 120.0, 1e-9);
}

TEST(SlidingTimeWindow, ShortQueryDoesNotEvictLongHistory)
{
    util::SlidingTimeWindow window(180.0);
    window.record(0.0, 1.0);
    window.record(50.0, 0.0);
    // Query the short window first...
    EXPECT_NEAR(window.average(60.0, 5.0), 0.0, 1e-9);
    // ...the long window must still see the early segment.
    EXPECT_NEAR(window.average(60.0, 180.0), 50.0 / 60.0, 1e-9);
}

TEST(SlidingTimeWindow, BackwardsTimeIsFatal)
{
    util::SlidingTimeWindow window(10.0);
    window.record(5.0, 1.0);
    EXPECT_THROW(window.record(4.0, 1.0), FatalError);
}

TEST(SlidingTimeWindow, EmptyReturnsZero)
{
    util::SlidingTimeWindow window(10.0);
    EXPECT_DOUBLE_EQ(window.average(100.0), 0.0);
    EXPECT_DOUBLE_EQ(window.latest(), 0.0);
}

/**
 * Oracle for the window's reads: a mirror of SlidingTimeWindow with the
 * same eviction rule and the full-history scan average() ran before it
 * learned to skip, by binary search, the segments that end before its
 * sub-window starts, and before record() folded same-instant records.
 * It appends every record, so it keeps zero-length segments and skips
 * them one branch at a time. Neither cut may change a single bit.
 */
class FullScanWindow
{
  public:
    explicit FullScanWindow(Seconds window_s) : windowLen(window_s) {}

    void record(Seconds t, double value)
    {
        segments.emplace_back(t, value);
        const Seconds retain_start = t - windowLen;
        while (segments.size() > 1 && segments[1].first <= retain_start)
            segments.pop_front();
        maxSize = std::max(maxSize, segments.size());
    }

    double average(Seconds now, Seconds sub_window) const
    {
        if (segments.empty())
            return 0.0;
        const Seconds start = now - sub_window;
        double weighted = 0.0;
        double span = 0.0;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const Seconds seg_start = std::max(segments[i].first, start);
            const Seconds seg_end =
                (i + 1 < segments.size()) ? segments[i + 1].first : now;
            if (seg_end <= seg_start)
                continue;
            weighted += segments[i].second * (seg_end - seg_start);
            span += seg_end - seg_start;
        }
        if (span <= 0.0)
            return segments.back().second;
        return weighted / span;
    }

    double latest() const
    {
        return segments.empty() ? 0.0 : segments.back().second;
    }

    const std::deque<std::pair<Seconds, double>> &history() const
    {
        return segments;
    }

    /** @return the most segments ever held at once. */
    std::size_t highWater() const { return maxSize; }

  private:
    Seconds windowLen;
    std::deque<std::pair<Seconds, double>> segments;
    std::size_t maxSize = 0;
};

/** @return the bits of @p x, so that -0 != +0 and NaN payloads count. */
std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(SlidingTimeWindow, BoundedScanMatchesFullScanBitForBit)
{
    constexpr Seconds kWindow = 200.0;
    util::SlidingTimeWindow window(kWindow);
    FullScanWindow oracle(kWindow);
    util::Rng rng(2021);

    std::size_t checked = 0;
    std::size_t on_segment_start = 0;
    std::size_t start_on_run = 0;
    std::size_t now_on_run = 0;
    std::size_t before_first = 0;
    std::size_t instants = 0; // Records at a new instant.
    std::size_t run_length = 0; // Records at the current instant.
    auto check = [&](Seconds now, Seconds sub_window) {
        ASSERT_EQ(bitsOf(window.average(now, sub_window)),
                  bitsOf(oracle.average(now, sub_window)))
            << "now=" << now << " sub_window=" << sub_window;
        ++checked;
    };
    auto record = [&](Seconds t, double value) {
        const auto &history = oracle.history();
        if (history.empty() || history.back().first != t) {
            ++instants;
            run_length = 0;
        }
        ++run_length;
        window.record(t, value);
        oracle.record(t, value);
        ASSERT_EQ(bitsOf(window.latest()), bitsOf(oracle.latest()));
    };

    Seconds t = 0.0;
    for (int i = 0; i < 20000; ++i) {
        // Half the run steps on a 1/8-s grid, where now - sub_window is
        // exact and lands on segment starts; the rest steps by
        // arbitrary doubles. About one step in five repeats the last
        // timestamp, and a rare long gap empties most of the history.
        const double step_kind = rng.uniform();
        if (step_kind < 0.2)
            t += 0.0;
        else if (step_kind < 0.99)
            t += i < 10000 ? 0.125 * static_cast<double>(rng.uniformInt(1, 40))
                           : rng.uniform(0.0, 5.0);
        else
            t += rng.uniform(150.0, 400.0);
        const double value = rng.bernoulli(0.3)
                                 ? static_cast<double>(rng.uniformInt(0, 4)) / 4.0
                                 : rng.uniform();
        // A value overwritten at its own instant never reaches a read,
        // not even a non-finite one.
        if (step_kind < 0.05)
            record(t, rng.bernoulli(0.5)
                          ? std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::quiet_NaN());
        record(t, value);

        // Check every record while the history is younger than the
        // window (so full-window reads start before the first record),
        // then every seventh.
        if (i % 7 != 0 && t > kWindow)
            continue;
        const Seconds later = t + rng.uniform(0.0, 20.0);
        for (Seconds now : {t, later}) {
            if (now == t && run_length > 1)
                ++now_on_run;
            check(now, 30.0);
            check(now, 180.0);
            check(now, kWindow);
            check(now, kWindow + 1e-10); // Retention edge tolerance.
            check(now, rng.uniform(1e-6, kWindow));
            // Sub-windows that start exactly on a retained segment
            // start (including runs of same-instant records).
            const auto &history = oracle.history();
            const std::size_t k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(history.size()) - 1));
            const Seconds seg = history[k].first;
            const Seconds sub = now - seg;
            if (sub > 0.0 && sub <= kWindow) {
                if (now - sub == seg) {
                    ++on_segment_start;
                    if ((k > 0 && history[k - 1].first == seg) ||
                        (k + 1 < history.size() &&
                         history[k + 1].first == seg))
                        ++start_on_run;
                }
                check(now, sub);
            }
            // A sub-window reaching back before the first record.
            if (now - kWindow < history.front().first) {
                ++before_first;
                check(now, kWindow);
            }
        }
    }
    EXPECT_GT(checked, 20000u);
    EXPECT_GT(on_segment_start, 1000u);
    EXPECT_GT(start_on_run, 200u);
    EXPECT_GT(now_on_run, 200u);
    EXPECT_GT(before_first, 10u);
    // The window's ring never holds more segments than the oracle's
    // high water, so its capacity is at most twice that; every other
    // instant was evicted, which wraps the ring at least this often.
    const std::size_t capacity_bound = 2 * oracle.highWater();
    EXPECT_GT((instants - oracle.highWater()) / capacity_bound, 20u);
}

TEST(SlidingTimeWindow, SameInstantRecordsFoldBitForBit)
{
    constexpr Seconds kWindow = 20.0;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    util::SlidingTimeWindow window(kWindow);
    FullScanWindow oracle(kWindow);
    // Runs of several records at one instant, at the first instant, in
    // the middle, at the retention boundary and at the last instant;
    // the overwritten values include ones no read could absorb.
    const std::vector<std::pair<Seconds, double>> stream = {
        {0.0, 0.25},  {0.0, kInf},  {0.0, 0.5},  {1.5, 1.0},
        {1.5, -0.0},  {1.5, 0.75},  {2.0, 0.125}, {4.25, kNaN},
        {4.25, 0.3},  {4.25, 0.9},  {4.25, 0.6},  {9.0, -kInf},
        {9.0, 0.0},   {12.5, 0.4},  {21.5, 1.0},  {21.5, kNaN},
        {21.5, 0.2},  {24.25, 0.7}, {25.0, kInf}, {25.0, 0.05},
        {25.0, 0.35}, {25.0, 0.95},
    };
    for (const auto &[t, value] : stream) {
        window.record(t, value);
        oracle.record(t, value);
        ASSERT_EQ(bitsOf(window.latest()), bitsOf(oracle.latest()))
            << "t=" << t;
        // Every sub-window on a 1/8-s grid, and every one that starts
        // on a recorded instant, read at the record and just after.
        for (Seconds now : {t, t + 0.5}) {
            std::vector<Seconds> subs;
            for (int k = 1; k <= 8 * static_cast<int>(kWindow); ++k)
                subs.push_back(0.125 * k);
            for (const auto &seg : oracle.history())
                if (now > seg.first && now - seg.first <= kWindow)
                    subs.push_back(now - seg.first);
            for (Seconds sub : subs)
                ASSERT_EQ(bitsOf(window.average(now, sub)),
                          bitsOf(oracle.average(now, sub)))
                    << "t=" << t << " now=" << now << " sub=" << sub;
        }
    }
    EXPECT_EQ(window.latest(), 0.95);
}

// --- Const-read thread safety (regression; run under `ctest -L tsan`) ----

TEST(PercentileEstimator, ConstPercentileMatchesAndDoesNotMutate)
{
    // Regression: percentile() const used to sort the mutable sample
    // store — a data race under concurrent const readers. The const
    // overload now copies; results must still match the mutating one.
    util::PercentileEstimator est;
    for (int i = 100; i >= 1; --i)
        est.add(static_cast<double>(i));

    const util::PercentileEstimator &view = est;
    const double const_p99 = view.p99();
    const double mut_p99 = est.p99();
    EXPECT_DOUBLE_EQ(const_p99, mut_p99);
    EXPECT_DOUBLE_EQ(view.p50(), est.p50());
}

TEST(PercentileEstimator, ConstSelectionMatchesTheSortingPathBitForBit)
{
    // percentile() const selects the two order statistics it blends
    // instead of sorting a copy; the mutating overload sorts in place.
    // With n = 1001 every listed p lands on an integer rank, so n = 997
    // also blends two distinct order statistics at each p.
    util::Rng rng(95);
    for (std::size_t n : {1u, 2u, 3u, 997u, 1001u}) {
        util::PercentileEstimator est;
        for (std::size_t i = 0; i < n; ++i)
            // About a third of the samples repeat one of a few values.
            est.add(rng.bernoulli(0.3)
                        ? static_cast<double>(rng.uniformInt(1, 3)) * 1e-3
                        : rng.exponential(3.3e-3));
        util::PercentileEstimator sorting = est;
        const util::PercentileEstimator &view = est;
        for (double p : {0.0, 0.1, 33.3, 50.0, 95.0, 99.0, 99.9, 100.0})
            EXPECT_EQ(view.percentile(p), sorting.percentile(p))
                << "n=" << n << " p=" << p;
    }
}

TEST(PercentileEstimator, ConcurrentConstReadsAreRaceFree)
{
    util::PercentileEstimator est;
    for (int i = 0; i < 10000; ++i)
        est.add(static_cast<double>(i % 997));

    const util::PercentileEstimator &view = est;
    std::vector<std::thread> readers;
    std::vector<double> results(4, 0.0);
    for (std::size_t t = 0; t < results.size(); ++t) {
        readers.emplace_back([&view, &results, t] {
            double acc = 0.0;
            for (int i = 0; i < 50; ++i)
                acc += view.p99() + view.percentile(50.0);
            results[t] = acc;
        });
    }
    for (auto &reader : readers)
        reader.join();
    for (std::size_t t = 1; t < results.size(); ++t)
        EXPECT_DOUBLE_EQ(results[t], results[0]);
}

TEST(SlidingTimeWindow, ConcurrentConstAveragesAreRaceFree)
{
    // Regression: average() const used to evict expired segments from
    // the mutable deque; eviction now happens in record() only, so
    // concurrent const readers are safe.
    util::SlidingTimeWindow window(10.0);
    for (int i = 0; i < 200; ++i)
        window.record(static_cast<double>(i) * 0.1, i % 7 ? 1.0 : 0.0);

    std::vector<std::thread> readers;
    std::vector<double> results(4, 0.0);
    for (std::size_t t = 0; t < results.size(); ++t) {
        readers.emplace_back([&window, &results, t] {
            double acc = 0.0;
            for (int i = 0; i < 200; ++i)
                acc += window.average(20.0) + window.average(20.0, 5.0);
            results[t] = acc;
        });
    }
    for (auto &reader : readers)
        reader.join();
    for (std::size_t t = 1; t < results.size(); ++t)
        EXPECT_DOUBLE_EQ(results[t], results[0]);
}

TEST(TableWriter, AlignedOutputContainsCells)
{
    util::TableWriter table({"Config", "Value"});
    table.addRow({"B2", "1.00"});
    table.addRow({"OC3", "0.83"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("Config"), std::string::npos);
    EXPECT_NE(text.find("OC3"), std::string::npos);
    EXPECT_NE(text.find("0.83"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

// A multi-byte cell (the em dash benches print for "no value") pads to
// the same column width as its one-byte neighbours.
TEST(TableWriter, PadsByCodePointsNotBytes)
{
    util::TableWriter table({"Case", "Loss"});
    table.addRow({"none", "\u2014"});
    table.addRow({"crash", "12.5"});
    std::ostringstream os;
    table.print(os);
    EXPECT_EQ(os.str(), "+-------+------+\n"
                        "| Case  | Loss |\n"
                        "+-------+------+\n"
                        "| none  | \u2014    |\n"
                        "| crash | 12.5 |\n"
                        "+-------+------+\n");
}

TEST(TableWriter, CsvOutput)
{
    util::TableWriter table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriter, ColumnMismatchIsFatal)
{
    util::TableWriter table({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), FatalError);
}

TEST(TableFormat, FmtAndPercent)
{
    EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(util::fmt(2.0, 0), "2");
    EXPECT_EQ(util::fmtPercent(0.17, 1), "+17.0%");
    EXPECT_EQ(util::fmtPercent(-0.07, 0), "-7%");
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::toKelvin(0.0), 273.15);
    EXPECT_DOUBLE_EQ(units::toCelsius(373.15), 100.0);
    EXPECT_DOUBLE_EQ(units::secondsToHours(7200.0), 2.0);
    EXPECT_DOUBLE_EQ(units::yearsToHours(1.0), 8766.0);
}

TEST(Json, ParsesNestedDocument)
{
    const util::Json doc = util::Json::parse(
        "{\"name\": \"run\", \"n\": 3, \"neg\": -2.5e1, "
        "\"ok\": true, \"off\": false, \"none\": null, "
        "\"list\": [1, \"two\", {\"k\": 3}], "
        "\"obj\": {\"a\": 1, \"b\": 2}}");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").str(), "run");
    EXPECT_DOUBLE_EQ(doc.at("n").number(), 3.0);
    EXPECT_DOUBLE_EQ(doc.at("neg").number(), -25.0);
    EXPECT_TRUE(doc.at("ok").boolean());
    EXPECT_FALSE(doc.at("off").boolean());
    EXPECT_TRUE(doc.at("none").isNull());
    EXPECT_TRUE(std::isnan(doc.at("none").number()));
    ASSERT_EQ(doc.at("list").size(), 3u);
    EXPECT_EQ(doc.at("list").at(1).str(), "two");
    EXPECT_DOUBLE_EQ(doc.at("list").at(2).at("k").number(), 3.0);
    EXPECT_TRUE(doc.has("obj"));
    EXPECT_FALSE(doc.has("missing"));
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_THROW(doc.at("missing"), FatalError);
}

TEST(Json, StringEscapesRoundTrip)
{
    const util::Json doc = util::Json::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
    EXPECT_EQ(doc.at("s").str(), "a\"b\\c\n\tA");

    // appendEscaped emits a complete quoted JSON string literal.
    std::string out;
    util::Json::appendEscaped(out, "x\"y\\z\n");
    EXPECT_EQ(out, "\"x\\\"y\\\\z\\n\"");
}

TEST(Json, RejectsMalformedDocuments)
{
    EXPECT_THROW(util::Json::parse("not json"), FatalError);
    EXPECT_THROW(util::Json::parse("{\"a\": }"), FatalError);
    EXPECT_THROW(util::Json::parse("{\"a\": 1,}"), FatalError);
    EXPECT_THROW(util::Json::parse("[1, 2"), FatalError);
    EXPECT_THROW(util::Json::parse("{\"a\": 1} trailing"), FatalError);
    EXPECT_THROW(util::Json::parse(""), FatalError);
}

TEST(Json, TypePredicatesAndMismatchesAreFatal)
{
    const util::Json doc = util::Json::parse("{\"n\": 1, \"s\": \"x\"}");
    EXPECT_TRUE(doc.at("n").isNumber());
    EXPECT_TRUE(doc.at("s").isString());
    EXPECT_THROW(doc.at("n").str(), FatalError);
    EXPECT_THROW(doc.at("s").number(), FatalError);
    EXPECT_THROW(doc.at("s").array(), FatalError);
    EXPECT_THROW(doc.at(0), FatalError); // Object, not array.
}

// ---------------------------------------------------------------------
// ShardRunner — the allocation-free fork-join under the intra-run fleet
// sharding and the sweep engine, driven one unit per shard.
// ---------------------------------------------------------------------

TEST(ShardRunner, RunsEveryShardExactlyOnce)
{
    util::ShardRunner runner(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    runner.run(util::ShardPlan::even(kCount, kCount),
               [&](std::size_t s, std::size_t, std::size_t) {
                   hits[s].fetch_add(1, std::memory_order_relaxed);
               });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ShardRunner, IsReusableAndHandlesEmptyPlans)
{
    util::ShardRunner runner(3);
    std::atomic<std::size_t> total{0};
    const auto count = [&](std::size_t, std::size_t, std::size_t) {
        total.fetch_add(1);
    };
    runner.run(util::ShardPlan::even(0, 0), count);
    EXPECT_EQ(total.load(), 0u);
    for (int round = 0; round < 50; ++round)
        runner.run(util::ShardPlan::even(7, 7), count);
    EXPECT_EQ(total.load(), 50u * 7u);
}

TEST(ShardRunner, RethrowsTheShardExceptionOnTheCaller)
{
    util::ShardRunner runner(4);
    constexpr std::size_t kCount = 64;
    const util::ShardPlan plan = util::ShardPlan::even(kCount, kCount);
    // Repeat so the throw lands on workers as well as the caller.
    for (int round = 0; round < 20; ++round) {
        try {
            runner.run(plan, [&](std::size_t s, std::size_t, std::size_t) {
                if (s == 13)
                    util::fatal("shard body failed");
            });
            FAIL() << "expected FatalError";
        } catch (const FatalError &err) {
            EXPECT_STREQ(err.what(), "fatal: shard body failed");
        }
        // The runner must stay fully usable after a failed job.
        std::atomic<std::size_t> ran{0};
        runner.run(plan, [&](std::size_t, std::size_t, std::size_t) {
            ran.fetch_add(1);
        });
        EXPECT_EQ(ran.load(), kCount);
    }
}

TEST(ShardRunner, StopsClaimingShardsAfterAThrow)
{
    util::ShardRunner runner(2);
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(runner.run(util::ShardPlan::even(1000, 1000),
                            [&](std::size_t s, std::size_t, std::size_t) {
                                ran.fetch_add(1);
                                if (s == 0)
                                    throw std::runtime_error("boom");
                                // Long enough that the other thread
                                // cannot run the other 999 shards
                                // before the throw drags the cursor
                                // (trivial bodies sometimes could).
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(100));
                            }),
                 std::runtime_error);
    // Shards already claimed may finish, but the cursor is dragged to
    // the end on the first throw: nowhere near all 1000 run.
    EXPECT_LT(ran.load(), 1000u);
}

TEST(ShardRunner, ZeroThreadsClampsToOne)
{
    util::ShardRunner runner(0);
    EXPECT_EQ(runner.threads(), 1u);
    std::size_t ran = 0;
    runner.run(util::ShardPlan::even(5, 5),
               [&](std::size_t, std::size_t, std::size_t) { ++ran; });
    EXPECT_EQ(ran, 5u);
}

TEST(ShardRunner, DefaultThreadsIsPositive)
{
    EXPECT_GE(util::ShardRunner::defaultThreads(), 1u);
}

// ---------------------------------------------------------------------
// ShardPlan — deterministic shard geometry for the fleet minute loop.
// ---------------------------------------------------------------------

TEST(ShardPlan, EvenSplitCoversTheRangeContiguously)
{
    const util::ShardPlan plan = util::ShardPlan::even(103, 4);
    ASSERT_EQ(plan.shards(), 4u);
    EXPECT_EQ(plan.begin(0), 0u);
    EXPECT_EQ(plan.end(plan.shards() - 1), 103u);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
        EXPECT_LE(plan.begin(s), plan.end(s));
        if (s > 0) {
            EXPECT_EQ(plan.begin(s), plan.end(s - 1));
        }
        covered += plan.end(s) - plan.begin(s);
    }
    EXPECT_EQ(covered, 103u);
}

TEST(ShardPlan, AlignedSplitOnlyCutsOnGroupBoundaries)
{
    const std::vector<std::size_t> group_begin{0, 10, 20, 35, 50, 90};
    const util::ShardPlan plan = util::ShardPlan::alignedTo(group_begin, 3);
    EXPECT_EQ(plan.begin(0), 0u);
    EXPECT_EQ(plan.end(plan.shards() - 1), 90u);
    for (std::size_t s = 0; s + 1 < plan.shards(); ++s) {
        const std::size_t cut = plan.end(s);
        bool on_boundary = false;
        for (const std::size_t b : group_begin)
            on_boundary = on_boundary || cut == b;
        EXPECT_TRUE(on_boundary) << "cut at " << cut;
    }
}

// ---------------------------------------------------------------------
// RingDeque — the allocation-free FIFO under the queueing hot path.
// ---------------------------------------------------------------------

TEST(RingDeque, FifoOrderSurvivesWrapAround)
{
    util::RingDeque<int> ring;
    int next_push = 0;
    int next_pop = 0;
    // Cycle far past the initial capacity so head/tail wrap many times.
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 5; ++i)
            ring.push_back(next_push++);
        for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(ring.front(), next_pop);
            ring.pop_front();
            ++next_pop;
        }
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingDeque, GrowthPreservesOrderAndIndexing)
{
    util::RingDeque<int> ring;
    // Offset the head so the grow path has to unwrap a split ring.
    for (int i = 0; i < 6; ++i)
        ring.push_back(-1);
    for (int i = 0; i < 6; ++i)
        ring.pop_front();
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    ASSERT_EQ(ring.size(), 100u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(i));
    EXPECT_EQ(ring.front(), 0);
    EXPECT_EQ(ring.back(), 99);
}

TEST(RingDeque, PushFrontRequeuesAheadOfTheBacklog)
{
    util::RingDeque<int> ring;
    ring.push_back(2);
    ring.push_back(3);
    ring.push_front(1); // The requeue-ahead-of-backlog path.
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring[0], 1);
    EXPECT_EQ(ring[1], 2);
    EXPECT_EQ(ring[2], 3);
    EXPECT_EQ(ring.front(), 1);
}

TEST(RingDeque, MoveOnlyPayloadsRelocateOnGrowth)
{
    util::RingDeque<std::unique_ptr<int>> ring;
    for (int i = 0; i < 40; ++i)
        ring.emplace_back(new int(i));
    for (int i = 0; i < 40; ++i) {
        ASSERT_NE(ring.front(), nullptr);
        EXPECT_EQ(*ring.front(), i);
        ring.pop_front();
    }
}

TEST(RingDeque, EmptyAccessAndOutOfRangeAreFatal)
{
    util::RingDeque<int> ring;
    EXPECT_THROW(ring.front(), FatalError);
    EXPECT_THROW(ring.back(), FatalError);
    EXPECT_THROW(ring.pop_front(), FatalError);
    ring.push_back(1);
    EXPECT_THROW(ring[1], FatalError);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.reserve(100); // Capacity-only; still empty.
    EXPECT_TRUE(ring.empty());
    EXPECT_THROW(ring[0], FatalError);
}

using IntPairs = std::vector<std::pair<int, int>>;

/** @return the pairs (ring[i], ring[i + 1]) for i in [lo, hi). */
IntPairs
pairsByIndex(const util::RingDeque<int> &ring, std::size_t lo,
             std::size_t hi)
{
    IntPairs pairs;
    for (std::size_t i = lo; i < hi; ++i)
        pairs.emplace_back(ring[i], ring[i + 1]);
    return pairs;
}

/** @return the pairs forEachPair(lo, hi) visits, in visiting order. */
IntPairs
pairsByWalk(const util::RingDeque<int> &ring, std::size_t lo,
            std::size_t hi)
{
    IntPairs pairs;
    ring.forEachPair(lo, hi, [&](int a, int b) { pairs.emplace_back(a, b); });
    return pairs;
}

/** Compare the walk with indexing over every range of @p ring. */
void
expectWalkMatchesIndexing(const util::RingDeque<int> &ring)
{
    for (std::size_t hi = 0; hi < ring.size(); ++hi)
        for (std::size_t lo = 0; lo <= hi; ++lo)
            ASSERT_EQ(pairsByWalk(ring, lo, hi), pairsByIndex(ring, lo, hi))
                << "size=" << ring.size() << " lo=" << lo << " hi=" << hi;
}

TEST(RingDeque, PairWalkCrossesTheWrapPoint)
{
    util::RingDeque<int> ring;
    // Fill the initial 8-slot buffer with its head at slot 6, so the
    // live range is slots 6, 7, 0, ..., 5 and the pair (1, 2) straddles
    // the buffer's end.
    for (int i = 0; i < 6; ++i)
        ring.push_back(-1);
    for (int i = 0; i < 6; ++i)
        ring.pop_front();
    for (int i = 0; i < 8; ++i)
        ring.push_back(i);
    EXPECT_EQ(pairsByWalk(ring, 0, 7),
              (IntPairs{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                        {6, 7}}));
    EXPECT_EQ(pairsByWalk(ring, 1, 2), (IntPairs{{1, 2}})); // Wrap only.
    EXPECT_EQ(pairsByWalk(ring, 1, 4), (IntPairs{{1, 2}, {2, 3}, {3, 4}}));
    EXPECT_EQ(pairsByWalk(ring, 0, 1), (IntPairs{{0, 1}})); // Before it.
    EXPECT_EQ(pairsByWalk(ring, 2, 5), (IntPairs{{2, 3}, {3, 4}, {4, 5}}));
    expectWalkMatchesIndexing(ring);
}

TEST(RingDeque, PairWalkEmptyAndOnePairRanges)
{
    util::RingDeque<int> ring;
    ring.push_back(7);
    EXPECT_TRUE(pairsByWalk(ring, 0, 0).empty());
    ring.push_back(8);
    EXPECT_TRUE(pairsByWalk(ring, 1, 1).empty());
    EXPECT_EQ(pairsByWalk(ring, 0, 1), (IntPairs{{7, 8}}));
}

TEST(RingDeque, PairWalkMatchesIndexingAfterGrowthAndPushFront)
{
    util::RingDeque<int> ring;
    util::Rng rng(27);
    int next = 0;
    // Mixed pushes at both ends and pops grow the buffer through
    // several capacities with the head at arbitrary slots.
    for (int step = 0; step < 300; ++step) {
        const double op = rng.uniform();
        if (op < 0.45)
            ring.push_back(next++);
        else if (op < 0.65)
            ring.push_front(next++);
        else if (!ring.empty())
            ring.pop_front();
        if (step % 5 == 0)
            expectWalkMatchesIndexing(ring);
    }
    for (int i = 0; i < 40; ++i)
        ring.push_front(next++);
    expectWalkMatchesIndexing(ring);
}

TEST(RingDeque, PairWalkOutOfRangeIsFatal)
{
    util::RingDeque<int> ring;
    auto visit = [](int, int) {};
    EXPECT_THROW(ring.forEachPair(0, 0, visit), FatalError);
    for (int i = 0; i < 5; ++i)
        ring.push_back(i);
    EXPECT_THROW(ring.forEachPair(0, 5, visit), FatalError); // hi == size
    EXPECT_THROW(ring.forEachPair(5, 5, visit), FatalError);
    EXPECT_THROW(ring.forEachPair(3, 2, visit), FatalError); // lo > hi
    EXPECT_NO_THROW(ring.forEachPair(0, 4, visit));
}

} // namespace
} // namespace imsim
