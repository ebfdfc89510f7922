/**
 * @file
 * The fleet-observability stack: util::QuantileSketch (mergeable
 * fixed-bin quantiles), obs::FleetAggregator (columnar per-tick
 * reductions), obs::Watchdog (threshold + hysteresis + debounce rule
 * engine), obs::IncidentLog (alert/fault-correlated timelines), the
 * DatacenterPowerSim / QueueingCluster wiring, and the cross-thread
 * reader protocol (FleetAggregator::snapshot) the tsan suite
 * exercises.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/datacenter.hh"
#include "fault/experiment.hh"
#include "fleet/state.hh"
#include "obs/obs.hh"
#include "sim/simulation.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/units.hh"
#include "workload/queueing.hh"

using namespace imsim;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------
// util::QuantileSketch.
// ---------------------------------------------------------------------

TEST(QuantileSketch, LinearQuantilesWithinBinResolution)
{
    auto sketch = util::QuantileSketch::linear(0.0, 100.0, 200);
    for (int i = 0; i < 1000; ++i)
        sketch.add(static_cast<double>(i) / 10.0); // Uniform 0..99.9.
    EXPECT_EQ(sketch.count(), 1000u);
    // Bin width 0.5: quantiles must land within one bin of exact.
    EXPECT_NEAR(sketch.quantile(50.0), 50.0, 0.5);
    EXPECT_NEAR(sketch.quantile(95.0), 95.0, 0.5);
    EXPECT_NEAR(sketch.quantile(99.0), 99.0, 0.5);
    EXPECT_NEAR(sketch.quantile(0.0), 0.0, 0.5);
    EXPECT_NEAR(sketch.quantile(100.0), 100.0, 0.5);
}

TEST(QuantileSketch, FiniteOutOfRangeClampsNonFiniteDrops)
{
    auto sketch = util::QuantileSketch::linear(0.0, 10.0, 10);
    sketch.add(-5.0);  // Clamps to the first bin.
    sketch.add(50.0);  // Clamps to the last bin.
    sketch.add(5.0);   // In range: bin 5.
    // Bin offsets beyond any integer's range clamp the same way.
    sketch.add(-1e300);
    sketch.add(1e300);
    sketch.add(kNan);
    sketch.add(std::numeric_limits<double>::infinity());
    sketch.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(sketch.count(), 5u);
    EXPECT_EQ(sketch.dropped(), 3u);
    EXPECT_EQ(sketch.binCount(0), 2u);
    EXPECT_EQ(sketch.binCount(5), 1u);
    EXPECT_EQ(sketch.binCount(sketch.bins() - 1), 2u);
}

TEST(QuantileSketch, LogarithmicCoversDecades)
{
    auto sketch = util::QuantileSketch::logarithmic(1e-4, 100.0, 240);
    sketch.add(1e-3);
    sketch.add(1e-2);
    sketch.add(1e-1);
    sketch.add(1.0);
    // Median of {1e-3, 1e-2, 1e-1, 1} sits between 1e-2 and 1e-1 in
    // log space; 10% relative resolution is plenty at 40 bins/decade.
    const double p50 = sketch.quantile(50.0);
    EXPECT_GT(p50, 5e-3);
    EXPECT_LT(p50, 2e-1);
    // Zero / negative samples clamp into the lowest bin, not dropped.
    sketch.add(0.0);
    EXPECT_EQ(sketch.count(), 5u);
    EXPECT_GE(sketch.binCount(0), 1u);
}

TEST(QuantileSketch, MergeMatchesUnion)
{
    auto a = util::QuantileSketch::linear(0.0, 100.0, 100);
    auto b = util::QuantileSketch::linear(0.0, 100.0, 100);
    auto joint = util::QuantileSketch::linear(0.0, 100.0, 100);
    for (int i = 0; i < 500; ++i) {
        const double lo = static_cast<double>(i % 50);
        const double hi = 50.0 + static_cast<double>(i % 50);
        a.add(lo);
        b.add(hi);
        joint.add(lo);
        joint.add(hi);
    }
    ASSERT_TRUE(a.compatible(b));
    a.merge(b);
    EXPECT_EQ(a.count(), joint.count());
    for (double p : {10.0, 50.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(a.quantile(p), joint.quantile(p)) << "p=" << p;
}

TEST(QuantileSketch, MergedQuantileAvoidsMaterializing)
{
    std::vector<util::QuantileSketch> parts;
    auto joint = util::QuantileSketch::linear(0.0, 100.0, 100);
    for (int s = 0; s < 4; ++s) {
        parts.push_back(util::QuantileSketch::linear(0.0, 100.0, 100));
        for (int i = 0; i < 100; ++i) {
            const double v = static_cast<double>((s * 100 + i) % 97);
            parts.back().add(v);
            joint.add(v);
        }
    }
    for (double p : {50.0, 95.0, 99.0}) {
        EXPECT_DOUBLE_EQ(util::QuantileSketch::mergedQuantile(parts, p),
                         joint.quantile(p))
            << "p=" << p;
    }
    // Empty part list: defined zero, not a crash.
    EXPECT_DOUBLE_EQ(util::QuantileSketch::mergedQuantile({}, 50.0), 0.0);
}

TEST(QuantileSketch, IncompatibleMergeIsFatal)
{
    auto a = util::QuantileSketch::linear(0.0, 100.0, 100);
    auto b = util::QuantileSketch::linear(0.0, 100.0, 50);
    auto c = util::QuantileSketch::logarithmic(1e-3, 100.0, 100);
    EXPECT_FALSE(a.compatible(b));
    EXPECT_FALSE(a.compatible(c));
    EXPECT_THROW(a.merge(b), FatalError);
    EXPECT_THROW(util::QuantileSketch::linear(5.0, 5.0, 10), FatalError);
    EXPECT_THROW(util::QuantileSketch::linear(5.0, 1.0, 10), FatalError);
    EXPECT_THROW(util::QuantileSketch::linear(0.0, 1.0, 0), FatalError);
    EXPECT_THROW(util::QuantileSketch::logarithmic(0.0, 1.0, 10),
                 FatalError);
    EXPECT_THROW(a.quantile(101.0), FatalError);
}

TEST(QuantileSketch, EmptySketchMergesAsAccumulator)
{
    // A default-constructed sketch has no geometry: add() drops into
    // dropped() instead of indexing an empty bin vector.
    util::QuantileSketch empty;
    empty.add(1.0);
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.dropped(), 1u);

    // Merging an empty sketch in: a no-op beyond its dropped tally.
    auto a = util::QuantileSketch::linear(0.0, 10.0, 10);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.dropped(), 1u);
    EXPECT_EQ(a.bins(), 10u);

    // Merging into an empty sketch adopts the other's geometry while
    // keeping its own dropped tally — the reduce-into-fresh idiom.
    util::QuantileSketch acc;
    acc.add(kNan);
    acc.merge(a);
    EXPECT_EQ(acc.bins(), 10u);
    EXPECT_EQ(acc.count(), 1u);
    EXPECT_EQ(acc.dropped(), 2u);
    EXPECT_DOUBLE_EQ(acc.quantile(50.0), a.quantile(50.0));

    // Adoption does not relax the geometry check for real sketches.
    auto b = util::QuantileSketch::linear(0.0, 10.0, 20);
    EXPECT_THROW(acc.merge(b), FatalError);

    // Empty-empty merge stays empty (and still geometry-less).
    util::QuantileSketch e1;
    util::QuantileSketch e2;
    e1.merge(e2);
    EXPECT_EQ(e1.bins(), 0u);
    EXPECT_EQ(e1.count(), 0u);
}

/** Expect @p a and @p b to hold the same bins, counts and drops. */
void
expectSameCounts(const util::QuantileSketch &a,
                 const util::QuantileSketch &b)
{
    ASSERT_EQ(a.bins(), b.bins());
    for (std::size_t i = 0; i < a.bins(); ++i)
        EXPECT_EQ(a.binCount(i), b.binCount(i)) << "bin " << i;
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.dropped(), b.dropped());
}

TEST(QuantileSketch, AddAllMatchesAddLoop)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr double kTiny = std::numeric_limits<double>::denorm_min();
    // Non-finite samples, huge finite ones whose bin offset fits no
    // integer, signed zeros and negatives (a log sketch pins those to
    // its first edge), the range edges and their neighbours, and a
    // spread that overshoots both ends.
    std::vector<double> samples{kNan,  -kNan, kInf,  -kInf, kMax,  -kMax,
                                1e300, -1e300, kTiny, -kTiny, 0.0,  -0.0,
                                -5.0,  1e-3,  1e3,   100.0, 99.999, 7.25};
    samples.push_back(std::nextafter(100.0, kInf));
    samples.push_back(std::nextafter(1e-3, 0.0));
    for (int i = 0; i < 500; ++i)
        samples.push_back(-20.0 + 0.29 * static_cast<double>(i));

    const util::QuantileSketch geometries[] = {
        util::QuantileSketch::linear(0.0, 100.0, 64),
        util::QuantileSketch::linear(-3.5, 7.25, 1),
        util::QuantileSketch::logarithmic(1e-3, 1e3, 48),
        util::QuantileSketch{}, // Zero bins: everything drops.
    };
    for (const util::QuantileSketch &geometry : geometries) {
        SCOPED_TRACE(::testing::Message()
                     << geometry.bins() << " bins, log "
                     << geometry.logSpaced());
        util::QuantileSketch looped = geometry;
        for (const double x : samples)
            looped.add(x);
        looped.add(42.0); // A later batch adds to the counts there.

        // One batch, and the same samples split at an odd point (the
        // first seven, non-finite ones included, form a batch of their
        // own), plus an empty batch.
        const double last = 42.0;
        util::QuantileSketch whole = geometry;
        whole.addAll(samples.data(), samples.size());
        whole.addAll(&last, 1);
        util::QuantileSketch split = geometry;
        split.addAll(samples.data(), 7);
        split.addAll(samples.data() + 7, 0);
        split.addAll(samples.data() + 7, samples.size() - 7);
        split.addAll(&last, 1);
        for (const util::QuantileSketch *batched : {&whole, &split}) {
            expectSameCounts(looped, *batched);
            EXPECT_EQ(batched->dropped(), geometry.bins() == 0
                                              ? samples.size() + 1
                                              : std::size_t{4});
        }
    }
}

// ---------------------------------------------------------------------
// obs::FleetAggregator.
// ---------------------------------------------------------------------

/** Hand-built two-SKU fleet with exactly known statistics. */
struct TestColumns
{
    std::vector<std::uint32_t> sku{0, 0, 1, 1};
    std::vector<double> util{0.2, 0.4, 0.6, 0.8};
    std::vector<double> power{100.0, 200.0, 300.0, 400.0};
    std::vector<double> tj{50.0, 60.0, 70.0, 80.0};
    std::vector<double> wear{0.0, 0.0, 0.0, 0.0};

    obs::FleetView view() const
    {
        obs::FleetView v;
        v.count = sku.size();
        v.sku = sku.data();
        v.utilization = util.data();
        v.totalPower = power.data();
        v.tj = tj.data();
        v.wearConsumed = wear.data();
        return v;
    }
};

TEST(FleetAggregator, ExactMomentsAndSketchPercentiles)
{
    TestColumns cols;
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 2;
    obs::FleetAggregator agg(cfg);
    agg.observe(60.0, cols.view(), 60.0);

    const obs::FleetSample &sample = agg.latest();
    EXPECT_EQ(sample.units, 4u);
    EXPECT_DOUBLE_EQ(sample.fleetPower, 1000.0);

    const auto &tj = sample.overall[obs::kChanTj];
    EXPECT_DOUBLE_EQ(tj.min, 50.0);
    EXPECT_DOUBLE_EQ(tj.max, 80.0);
    EXPECT_DOUBLE_EQ(tj.mean, 65.0);
    // 150 C over 128 bins: ~1.2 C bins.
    EXPECT_NEAR(tj.p99, 80.0, 1.5);

    // Per-SKU split: SKU 0 holds the cool pair, SKU 1 the hot pair.
    const auto &sku0 = sample.perSku[0 * obs::kFleetChannels +
                                     obs::kChanTj];
    const auto &sku1 = sample.perSku[1 * obs::kFleetChannels +
                                     obs::kChanTj];
    EXPECT_EQ(sku0.count, 2u);
    EXPECT_DOUBLE_EQ(sku0.mean, 55.0);
    EXPECT_DOUBLE_EQ(sku0.max, 60.0);
    EXPECT_EQ(sku1.count, 2u);
    EXPECT_DOUBLE_EQ(sku1.mean, 75.0);
    EXPECT_DOUBLE_EQ(sku1.min, 70.0);
}

TEST(FleetAggregator, WearRateIsPerYearFiniteDifference)
{
    TestColumns cols;
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 2;
    obs::FleetAggregator agg(cfg);

    agg.observe(0.0, cols.view(), 0.0); // First tick: rates read 0.
    EXPECT_DOUBLE_EQ(agg.latest().overall[obs::kChanWearRate].max, 0.0);

    // One hour consumes 1/8766 of life on every server: rate = 1/yr.
    for (double &w : cols.wear)
        w += 1.0 / 8766.0;
    agg.observe(3600.0, cols.view(), 3600.0);
    const auto &rate = agg.latest().overall[obs::kChanWearRate];
    EXPECT_NEAR(rate.mean, 1.0, 1e-9);
    EXPECT_NEAR(rate.min, 1.0, 1e-9);
    EXPECT_NEAR(rate.max, 1.0, 1e-9);
}

TEST(FleetAggregator, RecordsSeriesAndCumulativeSketches)
{
    TestColumns cols;
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 2;
    obs::FleetAggregator agg(cfg);
    agg.observe(60.0, cols.view(), 60.0);
    agg.observe(120.0, cols.view(), 60.0);

    EXPECT_EQ(agg.ticks(), 2u);
    const obs::TimeSeries &series = agg.series();
    EXPECT_EQ(series.rows(), 2u);
    // fleet.units + fleet.power_w + 6 stats x 4 channels.
    EXPECT_EQ(series.columns().size(),
              2u + 6u * static_cast<std::size_t>(obs::kFleetChannels));
    EXPECT_EQ(series.columns().front(), "fleet.units");

    // Cumulative sketch saw every unit of every tick.
    EXPECT_EQ(agg.cumulative(obs::kChanTj).count(), 8u);

    // Disabling recording/cumulative leaves both empty.
    obs::FleetAggregator::Config off;
    off.skuCount = 2;
    off.record = false;
    off.cumulative = false;
    obs::FleetAggregator bare(off);
    bare.observe(60.0, cols.view(), 60.0);
    EXPECT_EQ(bare.series().rows(), 0u);
    EXPECT_EQ(bare.cumulative(obs::kChanTj).count(), 0u);
}

TEST(FleetAggregator, NullColumnsReadAsZeroAndSkuBoundsAreFatal)
{
    obs::FleetAggregator agg; // Defaults: one SKU.
    obs::FleetView view;
    std::vector<double> power{10.0, 20.0};
    view.count = 2;
    view.totalPower = power.data(); // sku/util/tj/wear all null.
    agg.observe(60.0, view, 60.0);
    EXPECT_DOUBLE_EQ(agg.latest().fleetPower, 30.0);
    EXPECT_DOUBLE_EQ(agg.latest().overall[obs::kChanTj].max, 0.0);

    std::vector<std::uint32_t> bad_sku{0, 7}; // skuCount is 1.
    view.sku = bad_sku.data();
    EXPECT_THROW(agg.observe(120.0, view, 60.0), FatalError);
}

TEST(FleetAggregator, SnapshotMatchesLatest)
{
    TestColumns cols;
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 2;
    obs::FleetAggregator agg(cfg);
    agg.observe(60.0, cols.view(), 60.0);

    const obs::FleetSample snap = agg.snapshot();
    EXPECT_EQ(snap.units, agg.latest().units);
    EXPECT_DOUBLE_EQ(snap.fleetPower, agg.latest().fleetPower);
    EXPECT_DOUBLE_EQ(snap.overall[obs::kChanTj].p99,
                     agg.latest().overall[obs::kChanTj].p99);
}

// ---------------------------------------------------------------------
// Sharded observe: bit-identical to the serial reduction for any shard
// plan and any thread count (the intra-run parallelism contract).
// ---------------------------------------------------------------------

// EXPECT_EQ on doubles fails for NaN == NaN, but the identity contract
// is about bit patterns (a NaN-propagating channel must produce the
// same NaN either way), so compare representations.
::testing::AssertionResult
bitIdentical(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof a) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ bitwise";
}

// Bitwise, except that two NaNs match whatever their sign and payload.
// Which NaN a sum over NaN operands yields is up to the compiler, and
// the reference below is compiled apart from the aggregator: the
// ASan+UBSan build gets -nan from one and nan from the other.
::testing::AssertionResult
sameValue(double a, double b)
{
    if (std::isnan(a) && std::isnan(b))
        return ::testing::AssertionSuccess();
    return bitIdentical(a, b);
}

using ValueMatch = ::testing::AssertionResult (*)(double, double);

void
expectChannelStatsMatch(const obs::ChannelStats &a,
                        const obs::ChannelStats &b, ValueMatch match)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_TRUE(match(a.min, b.min));
    EXPECT_TRUE(match(a.mean, b.mean));
    EXPECT_TRUE(match(a.max, b.max));
    EXPECT_TRUE(match(a.p50, b.p50));
    EXPECT_TRUE(match(a.p95, b.p95));
    EXPECT_TRUE(match(a.p99, b.p99));
}

void
expectSampleMatch(const obs::FleetSample &a, const obs::FleetSample &b,
                  ValueMatch match)
{
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.units, b.units);
    EXPECT_TRUE(match(a.fleetPower, b.fleetPower));
    ASSERT_EQ(a.perSku.size(), b.perSku.size());
    for (int c = 0; c < obs::kFleetChannels; ++c)
        expectChannelStatsMatch(a.overall[c], b.overall[c], match);
    for (std::size_t i = 0; i < a.perSku.size(); ++i)
        expectChannelStatsMatch(a.perSku[i], b.perSku[i], match);
}

/**
 * Unit-order reference reduction, independent of FleetAggregator's
 * observe(): per (SKU, channel) cell one plain loop folds min/max/sum/
 * count in unit order and fills one QuantileSketch::linear. The overall
 * stats fold the cells in SKU order, as the aggregator documents.
 */
class ReferenceReducer
{
  public:
    explicit ReferenceReducer(obs::FleetAggregator::Config config)
        : cfg(config)
    {
        for (int c = 0; c < obs::kFleetChannels; ++c)
            cumulative.push_back(sketchFor(c));
    }

    /** Reduce one tick; @return the expected sample. */
    obs::FleetSample
    observe(Seconds t, const obs::FleetView &view, Seconds dt)
    {
        // Wear rate: per-year finite difference, 0 on the first tick.
        std::vector<double> rate(view.count, 0.0);
        if (prevWear.size() == view.count) {
            const double dt_years =
                dt / (units::kSecondsPerHour * units::kHoursPerYear);
            for (std::size_t i = 0; i < view.count; ++i)
                rate[i] = (view.wearConsumed[i] - prevWear[i]) *
                          (1.0 / dt_years);
        }
        prevWear.assign(view.wearConsumed, view.wearConsumed + view.count);

        std::vector<Cell> cells;
        for (std::size_t sku = 0; sku < cfg.skuCount; ++sku)
            for (int c = 0; c < obs::kFleetChannels; ++c)
                cells.push_back(Cell{kInf, -kInf, 0.0, 0, sketchFor(c)});
        for (std::size_t i = 0; i < view.count; ++i) {
            const double values[obs::kFleetChannels] = {
                view.tj[i], view.totalPower[i],
                view.utilization ? view.utilization[i] : 0.0, rate[i]};
            for (int c = 0; c < obs::kFleetChannels; ++c) {
                Cell &cell = cells[view.sku[i] * obs::kFleetChannels + c];
                const double v = values[c];
                cell.min = v < cell.min ? v : cell.min;
                cell.max = v > cell.max ? v : cell.max;
                cell.sum += v;
                ++cell.n;
                cell.sketch.add(v);
            }
        }

        obs::FleetSample sample;
        sample.t = t;
        sample.perSku.resize(cells.size());
        for (int c = 0; c < obs::kFleetChannels; ++c) {
            Cell overall{kInf, -kInf, 0.0, 0, sketchFor(c)};
            for (std::size_t sku = 0; sku < cfg.skuCount; ++sku) {
                const Cell &cell = cells[sku * obs::kFleetChannels + c];
                if (cell.n > 0) {
                    overall.min = std::min(overall.min, cell.min);
                    overall.max = std::max(overall.max, cell.max);
                    overall.sum += cell.sum;
                    overall.n += cell.n;
                }
                overall.sketch.merge(cell.sketch);
                sample.perSku[sku * obs::kFleetChannels + c] = stats(cell);
            }
            sample.overall[c] = stats(overall);
            cumulative[c].merge(overall.sketch);
            if (c == obs::kChanPower) {
                sample.units = overall.n;
                sample.fleetPower = overall.sum;
            }
        }
        return sample;
    }

    /** Whole-run sketch per channel. */
    std::vector<util::QuantileSketch> cumulative;

  private:
    struct Cell
    {
        double min;
        double max;
        double sum;
        std::size_t n;
        util::QuantileSketch sketch;
    };

    static constexpr double kInf = std::numeric_limits<double>::infinity();

    util::QuantileSketch
    sketchFor(int channel) const
    {
        const double lo[] = {cfg.tjLo, cfg.powerLo, cfg.utilLo,
                             cfg.wearRateLo};
        const double hi[] = {cfg.tjHi, cfg.powerHi, cfg.utilHi,
                             cfg.wearRateHi};
        return util::QuantileSketch::linear(lo[channel], hi[channel],
                                            cfg.sketchBins);
    }

    static obs::ChannelStats
    stats(const Cell &cell)
    {
        obs::ChannelStats out;
        out.count = cell.n;
        if (cell.n == 0)
            return out;
        out.min = cell.min;
        out.max = cell.max;
        out.mean = cell.sum / static_cast<double>(cell.n);
        out.p50 = cell.sketch.quantile(50.0);
        out.p95 = cell.sketch.quantile(95.0);
        out.p99 = cell.sketch.quantile(99.0);
        return out;
    }

    obs::FleetAggregator::Config cfg;
    std::vector<double> prevWear;
};

/** @return the series row the aggregator records for @p sample. */
std::vector<double>
seriesRow(const obs::FleetSample &sample)
{
    std::vector<double> row{static_cast<double>(sample.units),
                            sample.fleetPower};
    for (const obs::ChannelStats &stats : sample.overall) {
        for (double v : {stats.min, stats.mean, stats.max, stats.p50,
                         stats.p95, stats.p99})
            row.push_back(v);
    }
    return row;
}

/** Everything one reduction of a run published, tick by tick. */
struct ReducedRun
{
    std::vector<obs::FleetSample> latest;      ///< Per tick.
    std::vector<std::vector<double>> rows;     ///< Series row per tick.
    obs::FleetSample snapshot;                 ///< After the last tick.
    std::vector<std::size_t> cumulativeCount;  ///< Per channel.
    std::vector<double> cumulativeQuantiles;   ///< p50/p95/p99 each.

    void
    addCumulative(const util::QuantileSketch &sketch)
    {
        cumulativeCount.push_back(sketch.count());
        for (double p : {50.0, 95.0, 99.0})
            cumulativeQuantiles.push_back(sketch.quantile(p));
    }
};

void
expectRunsMatch(const ReducedRun &want, const ReducedRun &got,
                ValueMatch match)
{
    ASSERT_EQ(want.latest.size(), got.latest.size());
    for (std::size_t t = 0; t < want.latest.size(); ++t) {
        SCOPED_TRACE(::testing::Message() << "tick " << t);
        expectSampleMatch(want.latest[t], got.latest[t], match);
        ASSERT_EQ(want.rows[t].size(), got.rows[t].size());
        for (std::size_t c = 0; c < want.rows[t].size(); ++c)
            EXPECT_TRUE(match(want.rows[t][c], got.rows[t][c]))
                << "col " << c;
    }
    expectSampleMatch(want.snapshot, got.snapshot, match);
    EXPECT_EQ(want.cumulativeCount, got.cumulativeCount);
    ASSERT_EQ(want.cumulativeQuantiles.size(),
              got.cumulativeQuantiles.size());
    for (std::size_t i = 0; i < want.cumulativeQuantiles.size(); ++i)
        EXPECT_TRUE(match(want.cumulativeQuantiles[i],
                          got.cumulativeQuantiles[i]));
}

/**
 * A 1000-unit, 4-SKU fleet for the sharded-observe matrix: a wear
 * column that advances unevenly every tick (so the finite-difference
 * wear-rate path is exercised), one NaN Tj (the drop path must count
 * identically per shard), and +inf then -inf Tj across the 3-shard
 * boundary. Even plans put shard boundaries at 125 (8 shards) and 333
 * (3 shards).
 */
struct ShardedFleet
{
    static constexpr std::size_t kUnits = 1000;

    std::vector<std::uint32_t> sku = std::vector<std::uint32_t>(kUnits);
    std::vector<double> util = std::vector<double>(kUnits);
    std::vector<double> power = std::vector<double>(kUnits);
    std::vector<double> tj = std::vector<double>(kUnits);
    std::vector<double> wear = std::vector<double>(kUnits);
    std::size_t skuCount = 4;
    bool nullUtil = false; ///< Leave the utilization column null.

    /** @param sku_of Unit i's SKU. */
    template <typename SkuOf>
    explicit ShardedFleet(SkuOf sku_of)
    {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < kUnits; ++i) {
            sku[i] = sku_of(i);
            util[i] = static_cast<double>(i % 101) / 100.0;
            power[i] = 150.0 + static_cast<double>(i % 487);
            tj[i] = 35.0 + static_cast<double>(i % 67);
        }
        tj[kUnits / 2] = kNan;
        tj[332] = kInf;
        tj[335] = -kInf;
    }

    void
    advanceWear()
    {
        for (std::size_t i = 0; i < kUnits; ++i)
            wear[i] += 1e-5 * static_cast<double>(1 + i % 7);
    }

    obs::FleetView
    view() const
    {
        obs::FleetView v;
        v.count = kUnits;
        v.sku = sku.data();
        v.utilization = nullUtil ? nullptr : util.data();
        v.totalPower = power.data();
        v.tj = tj.data();
        v.wearConsumed = wear.data();
        return v;
    }
};

/**
 * Reduce @p fleet for four ticks with the unit-order reference, the
 * three-argument observe(), and every (shards, threads) plan of the
 * matrix, and hold them to two oracles. The three-argument run must
 * equal the reference bitwise, except that any two NaNs match (the
 * reference is compiled separately, so its NaN payloads are its own).
 * Every plan must then equal that run bitwise, NaN payloads included:
 * the thread-invariance contract. @return the reference run.
 */
ReducedRun
expectShardedMatchesReference(ShardedFleet &fleet)
{
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = fleet.skuCount;
    constexpr int kTicks = 4;
    const obs::FleetView view = fleet.view();

    ReferenceReducer reference(cfg);
    ReducedRun expected;
    for (int t = 0; t < kTicks; ++t) {
        expected.latest.push_back(
            reference.observe(60.0 * (t + 1), view, 60.0));
        expected.rows.push_back(seriesRow(expected.latest.back()));
        fleet.advanceWear();
    }
    expected.snapshot = expected.latest.back();
    for (const util::QuantileSketch &sketch : reference.cumulative)
        expected.addCumulative(sketch);

    // shards == 0 stands for the three-argument observe().
    auto reduce = [&](std::size_t shards, std::size_t threads) {
        std::fill(fleet.wear.begin(), fleet.wear.end(), 0.0);
        obs::FleetAggregator agg(cfg);
        const util::ShardPlan plan =
            util::ShardPlan::even(ShardedFleet::kUnits, shards);
        util::ShardRunner runner(threads);
        ReducedRun run;
        for (int t = 0; t < kTicks; ++t) {
            if (shards == 0)
                agg.observe(60.0 * (t + 1), view, 60.0);
            else
                agg.observe(60.0 * (t + 1), view, 60.0, plan, runner);
            fleet.advanceWear();
            run.latest.push_back(agg.latest());
            run.rows.push_back(agg.series().row(t));
        }
        run.snapshot = agg.snapshot();
        for (int c = 0; c < obs::kFleetChannels; ++c)
            run.addCumulative(
                agg.cumulative(static_cast<obs::FleetChannel>(c)));
        return run;
    };

    const ReducedRun serial = reduce(0, 1);
    {
        SCOPED_TRACE("three-argument observe vs reference");
        expectRunsMatch(expected, serial, sameValue);
    }
    for (const std::size_t shards : {1u, 3u, 8u}) {
        for (const std::size_t threads : {1u, 2u, 7u}) {
            SCOPED_TRACE(::testing::Message()
                         << "shards " << shards << " threads "
                         << threads);
            expectRunsMatch(serial, reduce(shards, threads),
                            bitIdentical);
        }
    }
    return expected;
}

TEST(FleetAggregator, ShardedObserveIsBitIdenticalToSerial)
{
    {
        SCOPED_TRACE("interleaved SKUs");
        // SKU runs of length 1 (i % 3), plus SKU 3 holding only signed
        // zeros, in the order -0 | +0 across the 8-shard boundary and
        // +0 | -0 across the 3-shard one. The unit-order fold keeps the
        // first of equal values, so min and max are both -0.0; a merge
        // that let a later shard win a tie would report +0.0.
        ShardedFleet fleet([](std::size_t i) {
            return static_cast<std::uint32_t>(i % 3);
        });
        const std::pair<std::size_t, double> zeros[] = {
            {123, -0.0}, {126, +0.0}, {331, +0.0}, {336, -0.0}};
        for (const auto &[unit, zero] : zeros) {
            fleet.sku[unit] = 3;
            fleet.util[unit] = fleet.power[unit] = fleet.tj[unit] = zero;
        }
        const ReducedRun expected = expectShardedMatchesReference(fleet);
        const auto &tj3 = expected.snapshot.perSku[3 * obs::kFleetChannels +
                                                   obs::kChanTj];
        EXPECT_TRUE(bitIdentical(tj3.min, -0.0));
        EXPECT_TRUE(bitIdentical(tj3.max, -0.0));
    }
    {
        SCOPED_TRACE("rack-shaped SKU runs, null utilization");
        // Single-SKU racks of 40 units, so SKU runs span 120..160 and
        // 320..360 (across the 8- and 3-shard boundaries at 125 and
        // 333); some neighbouring racks share a SKU, merging into
        // longer runs. The utilization column is null (reads as 0).
        // Rack 8 (320..360) is the only SKU-4 rack and holds signed
        // zeros (in place of the +-inf pair), -0 before the 3-shard
        // boundary and +0 after it, so the long-run fold and the merge
        // must both keep -0.0.
        ShardedFleet fleet([](std::size_t i) {
            const std::size_t rack = i / 40;
            return rack == 8 ? 4u
                             : static_cast<std::uint32_t>(
                                   (rack * rack + rack / 3) % 4);
        });
        fleet.skuCount = 5;
        fleet.nullUtil = true;
        for (std::size_t i = 320; i < 360; ++i)
            fleet.power[i] = fleet.tj[i] = i < 333 ? -0.0 : +0.0;
        ASSERT_EQ(fleet.sku[120], fleet.sku[159]);
        ASSERT_EQ(fleet.sku[200], fleet.sku[240]); // Racks 5 and 6.
        ASSERT_NE(fleet.sku[239], fleet.sku[280]);
        const ReducedRun expected = expectShardedMatchesReference(fleet);
        EXPECT_EQ(expected.snapshot.overall[obs::kChanUtilization].max,
                  0.0);
        EXPECT_EQ(expected.snapshot.overall[obs::kChanUtilization].count,
                  ShardedFleet::kUnits);
        const auto &tj4 = expected.snapshot.perSku[4 * obs::kFleetChannels +
                                                   obs::kChanTj];
        EXPECT_TRUE(bitIdentical(tj4.min, -0.0));
        EXPECT_TRUE(bitIdentical(tj4.max, -0.0));
    }
}

TEST(FleetAggregator, ShardedObserveValidatesPlanAndSku)
{
    obs::FleetAggregator agg; // One SKU.
    std::vector<double> power{10.0, 20.0, 30.0};
    obs::FleetView view;
    view.count = 3;
    view.totalPower = power.data();
    util::ShardRunner runner(2);

    // Plan covering the wrong unit count is fatal.
    const util::ShardPlan wrong = util::ShardPlan::even(5, 2);
    EXPECT_THROW(agg.observe(60.0, view, 60.0, wrong, runner),
                 FatalError);

    // Out-of-range SKU is fatal from the sharded path too.
    std::vector<std::uint32_t> bad_sku{0, 3, 0};
    view.sku = bad_sku.data();
    const util::ShardPlan plan = util::ShardPlan::even(3, 2);
    EXPECT_THROW(agg.observe(60.0, view, 60.0, plan, runner),
                 FatalError);
}

// ---------------------------------------------------------------------
// obs::Watchdog.
// ---------------------------------------------------------------------

TEST(Watchdog, DebounceDelaysRaiseAndHysteresisDelaysClear)
{
    double signal = 0.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "tj";
    rule.kind = obs::AlertKind::TjCeiling;
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 100.0;
    rule.clearThreshold = 90.0;
    rule.debounce = 2.0;
    const std::size_t idx = watchdog.addRule(rule);

    signal = 105.0;
    watchdog.evaluate(0.0); // Breach starts; debounce not yet elapsed.
    watchdog.evaluate(1.0);
    EXPECT_FALSE(watchdog.firing(idx));
    watchdog.evaluate(2.0); // 2 s of persistent breach: page.
    EXPECT_TRUE(watchdog.firing(idx));
    EXPECT_EQ(watchdog.raisedCount(), 1u);

    signal = 95.0; // Below fire but above clear: still firing.
    watchdog.evaluate(3.0);
    EXPECT_TRUE(watchdog.firing(idx));
    signal = 85.0;
    watchdog.evaluate(4.0);
    EXPECT_FALSE(watchdog.firing(idx));
    ASSERT_EQ(watchdog.alerts().size(), 2u);
    EXPECT_TRUE(watchdog.alerts()[0].raised);
    EXPECT_FALSE(watchdog.alerts()[1].raised);
    EXPECT_DOUBLE_EQ(watchdog.firstRaiseAfter(0.0), 2.0);
    EXPECT_DOUBLE_EQ(
        watchdog.firstRaiseAfter(0.0, obs::AlertKind::TjCeiling), 2.0);
    EXPECT_DOUBLE_EQ(
        watchdog.firstRaiseAfter(0.0, obs::AlertKind::Brownout), -1.0);
}

TEST(Watchdog, InterruptedBreachRestartsDebounce)
{
    double signal = 0.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "flappy";
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 1.0;
    rule.debounce = 3.0;
    watchdog.addRule(rule);

    signal = 2.0;
    watchdog.evaluate(0.0);
    watchdog.evaluate(1.0);
    signal = 0.5; // Dip resets the debounce clock.
    watchdog.evaluate(2.0);
    signal = 2.0;
    watchdog.evaluate(3.0);
    watchdog.evaluate(5.0);
    EXPECT_EQ(watchdog.raisedCount(), 0u);
    watchdog.evaluate(6.0); // 3 s since the second onset at t=3.
    EXPECT_EQ(watchdog.raisedCount(), 1u);
}

TEST(Watchdog, NonFiniteSampleChangesNoState)
{
    double signal = 5.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "nan";
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 1.0;
    const std::size_t idx = watchdog.addRule(rule);
    watchdog.evaluate(0.0);
    EXPECT_TRUE(watchdog.firing(idx));
    signal = kNan; // Broken sensor: hold state, don't clear.
    watchdog.evaluate(1.0);
    EXPECT_TRUE(watchdog.firing(idx));
    EXPECT_EQ(watchdog.alerts().size(), 1u);
}

TEST(Watchdog, FireBelowForFluidLevelStyleSignals)
{
    double level = 1.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "fluid";
    rule.kind = obs::AlertKind::FluidLevel;
    rule.signal = [&level] { return level; };
    rule.fireThreshold = 0.9;
    rule.clearThreshold = 0.95;
    rule.fireAbove = false;
    const std::size_t idx = watchdog.addRule(rule);
    watchdog.evaluate(0.0);
    EXPECT_FALSE(watchdog.firing(idx));
    level = 0.8;
    watchdog.evaluate(1.0);
    EXPECT_TRUE(watchdog.firing(idx));
    level = 0.92; // Above fire, below clear: hysteresis holds.
    watchdog.evaluate(2.0);
    EXPECT_TRUE(watchdog.firing(idx));
    level = 0.99;
    watchdog.evaluate(3.0);
    EXPECT_FALSE(watchdog.firing(idx));
}

TEST(Watchdog, ValueExactlyAtThresholdBreachesForBothSenses)
{
    // Breach is inclusive in both directions: signal == fireThreshold
    // raises for fireAbove and fire-below rules alike, and — with no
    // hysteresis — a signal parked exactly on the threshold holds the
    // alert instead of flapping raise/clear every poll.
    double above = 0.0;
    double below = 10.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule high;
    high.name = "high";
    high.signal = [&above] { return above; };
    high.fireThreshold = 5.0;
    const std::size_t hi_idx = watchdog.addRule(high);
    obs::WatchdogRule low;
    low.name = "low";
    low.signal = [&below] { return below; };
    low.fireThreshold = 5.0;
    low.fireAbove = false;
    const std::size_t lo_idx = watchdog.addRule(low);

    above = 5.0;
    below = 5.0;
    watchdog.evaluate(0.0);
    EXPECT_TRUE(watchdog.firing(hi_idx));
    EXPECT_TRUE(watchdog.firing(lo_idx));
    // Parked on the threshold: both alerts hold, no clear/re-raise.
    watchdog.evaluate(1.0);
    watchdog.evaluate(2.0);
    EXPECT_TRUE(watchdog.firing(hi_idx));
    EXPECT_TRUE(watchdog.firing(lo_idx));
    EXPECT_EQ(watchdog.alerts().size(), 2u); // The two raises only.
    // One step past the threshold on the recovery side clears.
    above = 4.999;
    below = 5.001;
    watchdog.evaluate(3.0);
    EXPECT_FALSE(watchdog.firing(hi_idx));
    EXPECT_FALSE(watchdog.firing(lo_idx));
    EXPECT_EQ(watchdog.alerts().size(), 4u);
}

TEST(Watchdog, ExplicitClearEqualToFireDoesNotFlapAtThreshold)
{
    // clearThreshold == fireThreshold (explicitly, not via the NaN
    // default) is valid no-hysteresis config; the boundary value is
    // still a breach, not a recovery.
    double signal = 0.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "edge";
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 5.0;
    rule.clearThreshold = 5.0;
    const std::size_t idx = watchdog.addRule(rule);
    signal = 5.0;
    for (int t = 0; t < 4; ++t)
        watchdog.evaluate(static_cast<double>(t));
    EXPECT_TRUE(watchdog.firing(idx));
    EXPECT_EQ(watchdog.raisedCount(), 1u);
    EXPECT_EQ(watchdog.alerts().size(), 1u);
}

TEST(Watchdog, RuleValidationIsFatal)
{
    obs::Watchdog watchdog;
    obs::WatchdogRule no_signal;
    no_signal.name = "broken";
    EXPECT_THROW(watchdog.addRule(no_signal), FatalError);

    obs::WatchdogRule inverted;
    inverted.name = "inverted";
    inverted.signal = [] { return 0.0; };
    inverted.fireThreshold = 1.0;
    inverted.clearThreshold = 2.0; // Breach side of a fire-above rule.
    EXPECT_THROW(watchdog.addRule(inverted), FatalError);
}

TEST(Watchdog, MetricsPreRegisterEveryAlertCounter)
{
    double signal = 0.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "sla";
    rule.kind = obs::AlertKind::TailLatency;
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 1.0;
    rule.clearThreshold = 0.5;
    watchdog.addRule(rule);

    obs::MetricRegistry registry;
    watchdog.attach({.metrics = &registry});
    // All counters exist before any alert: a TelemetrySampler started
    // now must never see the registry grow mid-run.
    const std::size_t size_before = registry.size();
    EXPECT_EQ(registry.counter("watchdog.raised").value(), 0u);
    EXPECT_EQ(
        registry.counter("watchdog.raised.tail_latency").value(), 0u);

    signal = 2.0;
    watchdog.evaluate(0.0);
    signal = 0.1;
    watchdog.evaluate(1.0);
    EXPECT_EQ(registry.size(), size_before);
    EXPECT_EQ(registry.counter("watchdog.raised").value(), 1u);
    EXPECT_EQ(registry.counter("watchdog.cleared").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("watchdog.firing").value(), 0.0);
}

// ---------------------------------------------------------------------
// obs::IncidentLog.
// ---------------------------------------------------------------------

TEST(IncidentLog, CorrelatesFaultsAcrossTheLeadWindow)
{
    obs::IncidentLog log(60.0);
    log.noteFault(100.0, "server_crash#3");
    log.noteFault(10.0, "too_old");

    // Opens at 150: adopts the crash at 100 (within 60 s) but not the
    // fault at 10.
    const std::size_t id =
        log.open(150.0, obs::AlertKind::TailLatency, "sla_p99", 0.5,
                 0.1);
    ASSERT_EQ(log.incidents().size(), 1u);
    ASSERT_EQ(log.incidents()[0].faults.size(), 1u);
    EXPECT_EQ(log.incidents()[0].faults[0].label, "server_crash#3");

    // A fault while open attaches too.
    log.noteFault(170.0, "power_derate");
    EXPECT_EQ(log.incidents()[0].faults.size(), 2u);

    log.observeValue(id, 0.9);
    log.observeValue(id, 0.7);
    log.close(id, 200.0);
    const obs::Incident &incident = log.incidents()[0];
    EXPECT_FALSE(incident.open());
    EXPECT_DOUBLE_EQ(incident.peakValue, 0.9);
    EXPECT_DOUBLE_EQ(incident.duration(1000.0), 50.0);

    // Closed incidents no longer adopt faults.
    log.noteFault(210.0, "late");
    EXPECT_EQ(log.incidents()[0].faults.size(), 2u);
    EXPECT_EQ(log.faults().size(), 4u);
}

TEST(IncidentLog, FluidLevelPeakTracksTheMinimum)
{
    obs::IncidentLog log;
    const std::size_t id =
        log.open(0.0, obs::AlertKind::FluidLevel, "fluid", 0.9, 0.95);
    log.observeValue(id, 0.7);
    log.observeValue(id, 0.8);
    EXPECT_DOUBLE_EQ(log.incidents()[0].peakValue, 0.7);
}

TEST(IncidentLog, CloseAllAndTraceExport)
{
    sim::Simulation sim;
    obs::IncidentLog log;
    log.open(10.0, obs::AlertKind::Brownout, "feed", 1.0, 1.0);
    log.open(20.0, obs::AlertKind::TailLatency, "sla", 0.2, 0.1);
    EXPECT_EQ(log.openCount(), 2u);
    log.closeAll(100.0);
    EXPECT_EQ(log.openCount(), 0u);

    obs::EventTracer tracer;
    tracer.enable([&sim] { return sim.now(); });
    log.exportTrace(tracer, 100.0);
    EXPECT_EQ(tracer.size(), 2u);
}

TEST(IncidentLog, JsonDocumentCarriesSchemaAndStructure)
{
    obs::IncidentLog log;
    log.noteFault(5.0, "server_crash#1");
    const std::size_t id =
        log.open(10.0, obs::AlertKind::TailLatency, "sla_p99", 0.25,
                 0.1);
    log.close(id, 40.0);

    const std::string doc = log.toJson("Baseline@3.55");
    EXPECT_NE(doc.find("\"schema\": \"imsim.incidents/1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"label\": \"Baseline@3.55\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"tail_latency\""), std::string::npos);
    EXPECT_NE(doc.find("server_crash#1"), std::string::npos);

    // Multi-point merge keeps the given order.
    obs::IncidentLog other;
    const std::string merged = obs::IncidentLog::mergedJson(
        {{"a", &log}, {"b", &other}}, "{\"seed\": \"42\"}");
    EXPECT_NE(merged.find("\"meta\": {\"seed\": \"42\"}"),
              std::string::npos);
    EXPECT_LT(merged.find("\"label\": \"a\""),
              merged.find("\"label\": \"b\""));
}

// ---------------------------------------------------------------------
// QueueingCluster windowed tail tracking.
// ---------------------------------------------------------------------

TEST(TailTracking, RecentQuantileReflectsTrailingWindowOnly)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params params;
    params.serviceMean = 1e-3;
    workload::QueueingCluster cluster(sim, util::Rng(7), params);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    EXPECT_FALSE(cluster.tailTrackingEnabled());
    EXPECT_DOUBLE_EQ(cluster.recentTailQuantile(99.0), 0.0);

    cluster.enableTailTracking(10.0);
    EXPECT_TRUE(cluster.tailTrackingEnabled());
    cluster.setArrivalRate(500.0);
    sim.runUntil(30.0);
    const double p99 = cluster.recentTailQuantile(99.0);
    const double p50 = cluster.recentTailQuantile(50.0);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    EXPECT_LT(p99, 1.0); // An uncongested ms-scale service time.

    // A long idle gap displaces every bucket: the window forgets.
    cluster.setArrivalRate(0.0);
    sim.runUntil(100.0);
    cluster.setArrivalRate(1.0);
    sim.runUntil(140.0);
    EXPECT_LT(cluster.recentTailQuantile(99.0), 1.0);

    EXPECT_THROW(cluster.enableTailTracking(-1.0), FatalError);
    EXPECT_THROW(cluster.enableTailTracking(
                     std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
}

// ---------------------------------------------------------------------
// DatacenterPowerSim wiring (both fidelity modes).
// ---------------------------------------------------------------------

std::vector<cluster::RackConfig>
twoRacks()
{
    cluster::RackConfig rack;
    rack.servers = 8;
    return {rack, rack};
}

TEST(DatacenterObservability, RackAggregateModeFeedsRackUnits)
{
    cluster::DatacenterPowerSim dc(twoRacks(), 10000.0);
    obs::FleetAggregator::Config cfg;
    cfg.record = false;
    obs::FleetAggregator agg(cfg);
    obs::Watchdog watchdog;
    double watched_power = 0.0;
    obs::WatchdogRule rule;
    rule.name = "fleet_power";
    rule.signal = [&agg] { return agg.latest().fleetPower; };
    rule.fireThreshold = 1.0; // Any nonzero fleet power pages.
    watchdog.addRule(rule);
    dc.attachObservability(&agg, &watchdog);

    util::Rng rng(11);
    dc.run(cluster::OverclockPolicy::Never, rng, 0.1);
    EXPECT_EQ(agg.ticks(), 144u); // 0.1 days of minutes.
    EXPECT_EQ(agg.latest().units, 2u); // Units are racks here.
    EXPECT_GT(agg.latest().fleetPower, 0.0);
    EXPECT_GE(watchdog.raisedCount(), 1u);
    (void)watched_power;
}

TEST(DatacenterObservability, PerServerModeFillsAllChannels)
{
    cluster::DatacenterPowerSim dc(twoRacks(), 10000.0);
    dc.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    obs::FleetAggregator::Config cfg;
    cfg.record = false;
    obs::FleetAggregator agg(cfg);
    dc.attachObservability(&agg, nullptr);

    util::Rng rng(11);
    dc.run(cluster::OverclockPolicy::Always, rng, 0.05);
    EXPECT_EQ(agg.latest().units, 16u); // Units are servers here.
    EXPECT_GT(agg.latest().overall[obs::kChanTj].max, 20.0);
    EXPECT_GT(agg.latest().overall[obs::kChanPower].mean, 0.0);
    EXPECT_GE(agg.cumulative(obs::kChanTj).count(), 16u);
}

TEST(DatacenterObservability, ObserversNeverChangeTheOutcome)
{
    const auto racks = twoRacks();
    cluster::DatacenterPowerSim bare(racks, 10000.0);
    cluster::DatacenterPowerSim watched(racks, 10000.0);
    obs::FleetAggregator agg;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "power";
    rule.signal = [&agg] { return agg.latest().fleetPower; };
    rule.fireThreshold = 1.0;
    watchdog.addRule(rule);
    watched.attachObservability(&agg, &watchdog);

    util::Rng rng_a(17);
    util::Rng rng_b(17);
    const auto out_a =
        bare.run(cluster::OverclockPolicy::PowerAware, rng_a, 0.1);
    const auto out_b =
        watched.run(cluster::OverclockPolicy::PowerAware, rng_b, 0.1);
    EXPECT_DOUBLE_EQ(out_a.energyMwh, out_b.energyMwh);
    EXPECT_DOUBLE_EQ(out_a.meanFeedUtilization,
                     out_b.meanFeedUtilization);
    EXPECT_DOUBLE_EQ(out_a.speedupDelivered, out_b.speedupDelivered);
}

// ---------------------------------------------------------------------
// Crisis experiment: detection latency and incident correlation.
// ---------------------------------------------------------------------

TEST(CrisisDetection, WatchdogPagesAndCorrelatesTheCrash)
{
    fault::CrisisParams params;
    params.fleetSize = 5;
    params.serviceMean = 1.04e-2;
    params.qps = 1687.5;
    params.warmup = 60.0;
    params.crisisStart = 180.0;
    params.repairAfter = 120.0;
    params.horizon = 330.0;
    params.slaP99 = 0.400;
    params.maxFrequency = 3.55; // Too little headroom: must page.

    const auto out =
        fault::runCrisisExperiment(autoscale::Policy::Baseline, params);
    EXPECT_GE(out.detectSeconds, 0.0);
    EXPECT_LT(out.detectSeconds, 60.0); // Pages within the crisis.
    EXPECT_GE(out.alertsRaised, 1u);
    ASSERT_GE(out.incidents.incidents().size(), 1u);

    // The SLA incident adopted the crash that caused it.
    const obs::Incident &incident = out.incidents.incidents()[0];
    EXPECT_EQ(incident.kind, obs::AlertKind::TailLatency);
    bool crash_correlated = false;
    for (const auto &fault : incident.faults)
        crash_correlated |=
            fault.label.find("server_crash") != std::string::npos;
    EXPECT_TRUE(crash_correlated);
    // End-of-run closeAll: nothing may stay open in the outcome.
    EXPECT_EQ(out.incidents.openCount(), 0u);
}

// ---------------------------------------------------------------------
// Cross-thread readers (the tsan half of this suite).
// ---------------------------------------------------------------------

TEST(ConcurrentReaders, SnapshotRacesTheObservingThread)
{
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 2;
    cfg.record = false;
    obs::FleetAggregator agg(cfg);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};

    std::thread snapshot_reader([&] {
        // At least one read, however quickly the observing loop ends.
        do {
            const obs::FleetSample sample = agg.snapshot();
            if (sample.units != 0) {
                EXPECT_EQ(sample.units, 4u);
            }
            reads.fetch_add(1, std::memory_order_relaxed);
        } while (!stop.load(std::memory_order_acquire));
    });

    // The "sim thread": observe, which publishes at a safe point.
    TestColumns cols;
    for (int tick = 0; tick < 2000; ++tick) {
        cols.tj[tick % 4] = 50.0 + static_cast<double>(tick % 40);
        agg.observe(static_cast<double>(tick) * 60.0, cols.view(),
                    60.0);
    }
    stop.store(true, std::memory_order_release);
    snapshot_reader.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(agg.ticks(), 2000u);
    EXPECT_EQ(agg.snapshot().units, 4u);
}

} // namespace
