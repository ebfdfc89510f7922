/**
 * @file
 * Columnar fleet telemetry aggregation.
 *
 * Per-server TimeSeries sampling costs O(servers) rows per tick and
 * cannot scale to the 100k-server fleets the roadmap targets. The
 * FleetAggregator instead reduces the fleet columns once per tick into
 * O(channels x SKUs) summary statistics — min/mean/max plus
 * p50/p95/p99 from mergeable fixed-bin sketches (util::QuantileSketch)
 * — so the telemetry cost per tick is independent of fleet size
 * beyond the single reduction pass.
 *
 * The aggregator deliberately does not depend on fleet::FleetState
 * (imsim_fleet links imsim_obs, not the other way around): it consumes
 * a FleetView of raw column pointers, which fleet::fleetView() builds
 * from a FleetState and which benches/tests can populate from plain
 * vectors.
 *
 * Thread-safety: observe() and latest() belong to the sim thread.
 * Every observe() also publishes a copy of the sample under a mutex
 * at a safe point (no reduction in flight), so any other thread may
 * call snapshot() concurrently.
 */

#ifndef IMSIM_OBS_FLEET_AGG_HH
#define IMSIM_OBS_FLEET_AGG_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeseries.hh"
#include "util/shard.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace imsim {
namespace obs {

/**
 * Raw column pointers over a fleet — the aggregator's input. All
 * non-null arrays have @p count entries. @p sku may be null (every
 * unit is SKU 0); any value column may be null (that channel reads
 * as 0 for every unit). In rack-aggregate fidelity a "unit" is a
 * rack, not a server; the aggregates are per-unit either way.
 */
struct FleetView
{
    std::size_t count = 0;
    const std::uint32_t *sku = nullptr;
    const double *utilization = nullptr;
    const double *totalPower = nullptr;
    const double *tj = nullptr;
    const double *wearConsumed = nullptr;
};

/** The value channels reduced every tick. */
enum FleetChannel : std::uint8_t
{
    kChanTj = 0,      ///< Junction temperature [C].
    kChanPower,       ///< Per-unit total power [W].
    kChanUtilization, ///< Activity factor [0, 1].
    kChanWearRate,    ///< Consumed life fraction per year.
    kFleetChannels,
};

/** @return stable lowercase name for @p channel ("tj", "power", ...). */
const char *fleetChannelName(FleetChannel channel);

/** Summary of one channel over one tick's population. */
struct ChannelStats
{
    std::size_t count = 0;
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** One tick's reduction: overall and per-SKU channel summaries. */
struct FleetSample
{
    Seconds t = 0.0;
    std::size_t units = 0;
    Watts fleetPower = 0.0; ///< Sum of the power column.
    ChannelStats overall[kFleetChannels];
    /** SKU-major: perSku[sku * kFleetChannels + channel]. */
    std::vector<ChannelStats> perSku;
};

/**
 * Allocation-free streaming reducer over fleet columns.
 *
 * There is one reduction path, the sharded observe(). One thread runs
 * it inline over a one-shard plan; more threads fan its shards out.
 * min/max/n and the sketches merge per shard, and only the sum chain
 * re-reduces in unit order, so every thread count yields the same bits.
 *
 * Construction sizes every scratch structure (per-SKU accumulators and
 * sketches, the published sample) so steady-state observe() calls
 * perform zero heap allocations — bench_obs_overhead holds this as a
 * budget. Recording into the TimeSeries (Config::record) is the one
 * exception: the telemetry product itself grows one row per tick.
 */
class FleetAggregator
{
  public:
    struct Config
    {
        /** Number of SKUs (sku column values must be < skuCount). */
        std::size_t skuCount = 1;
        /** Sketch resolution per channel (bins per SKU per channel). */
        std::size_t sketchBins = 128;
        // Sketch value ranges; finite out-of-range samples clamp.
        double tjLo = 0.0, tjHi = 150.0;          ///< [C]
        double powerLo = 0.0, powerHi = 2000.0;   ///< [W] per unit
        double utilLo = 0.0, utilHi = 1.0;
        double wearRateLo = 0.0, wearRateHi = 2.0; ///< life/year
        /** Append one series row per tick (the telemetry product). */
        bool record = true;
        /** Also fold every tick into whole-run cumulative sketches. */
        bool cumulative = true;
    };

    /** Defaults: one SKU, 128 bins, recording + cumulative on. */
    FleetAggregator();
    explicit FleetAggregator(Config config);

    /**
     * Reduce one tick: @p t is the sample time, @p dt the time since
     * the previous tick (used to turn the wear column's deltas into a
     * per-year rate; the first tick reports rate 0). The per-unit pass
     * is split over the shards of @p plan and run on @p runner's
     * threads. Each shard walks its runs of same-SKU units channel by
     * channel, folding min/max/n and its sketches into private
     * scratch; after the join the shards merge in ascending
     * shard order, keeping the earlier value on ties as the unit-order
     * fold does, and only the floating-point sum chain re-reduces
     * serially in unit order. The published sample, recorded series
     * row, and cumulative sketches are therefore bit-identical for any
     * plan and any thread count.
     *
     * @p plan must cover exactly view.count units. O(count); steady-
     * state calls are allocation-free once the per-unit wear (or
     * zero-column) scratch and the per-shard scratch are sized
     * (re-sized only when the fleet size or the plan's shard count
     * changes).
     */
    void observe(Seconds t, const FleetView &view, Seconds dt,
                 const util::ShardPlan &plan, util::ShardRunner &runner);

    /**
     * observe() with a cached one-shard plan on an inline one-thread
     * runner (the plan is rebuilt only when view.count changes).
     */
    void observe(Seconds t, const FleetView &view, Seconds dt);

    /** @return the last tick's sample (sim thread; no lock). */
    const FleetSample &latest() const { return current; }

    /** @return a locked copy of the last published sample (any thread). */
    FleetSample snapshot() const;

    /** @return number of observe() calls so far. */
    std::size_t ticks() const { return tickCount; }

    /**
     * @return the recorded per-tick series (columns: for each channel
     * `fleet.<chan>.{min,mean,max,p50,p95,p99}` plus `fleet.units`
     * and `fleet.power_w`). Empty when Config::record is false.
     */
    const TimeSeries &series() const { return recorded; }

    /** Move the recorded series out (e.g. into a TelemetryMerger). */
    TimeSeries takeSeries();

    /**
     * @return the whole-run cumulative sketch for @p channel (all
     * ticks, all units). Zero-count when Config::cumulative is false.
     */
    const util::QuantileSketch &cumulative(FleetChannel channel) const;

  private:
    /** Per-(SKU, channel) running accumulator for min/mean/max. */
    struct Accum
    {
        double min;
        double max;
        double sum;
        std::size_t n;
    };

    void reduceInto(FleetSample &sample, Seconds t);
    void finishTick(Seconds t);
    static void finishChannel(ChannelStats &stats, const Accum &acc,
                              const util::QuantileSketch &sketch);

    Config cfg;
    FleetSample current;

    /** SKU-major scratch, reset each tick: [sku*channels + chan]. */
    std::vector<Accum> accums;
    std::vector<util::QuantileSketch> sketches;
    /** Overall per-channel sketch = merge of the per-SKU ones. */
    std::vector<util::QuantileSketch> overallSketches;
    std::vector<util::QuantileSketch> cumulativeSketches;

    /** Previous tick's wear column (sized on first observe). */
    std::vector<double> prevWear;
    /** Per-unit wear-rate scratch for the sketch pass. */
    std::vector<double> wearRateScratch;
    /** All-zero stand-in for a null value column (sized on demand). */
    std::vector<double> zeroColumn;
    /**
     * One shard's scratch for one (SKU, channel) cell. The sum field is
     * unused (the sum runs in unit order). Cache-line aligned, so
     * threads on neighbouring shards never write the same line.
     */
    struct alignas(64) ShardCell
    {
        Accum acc;
        util::QuantileSketch sketch;
    };

    /** [shard * (skuCount * channels) + cell]; sized to the plan. */
    std::vector<ShardCell> shardCells;

    /** The three-argument observe()'s plan and inline runner. */
    util::ShardPlan inlinePlan;
    util::ShardRunner inlineRunner{1};

    std::size_t tickCount = 0;
    TimeSeries recorded;
    std::vector<double> rowScratch;

    mutable std::mutex publishMutex;
    FleetSample published;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_FLEET_AGG_HH
