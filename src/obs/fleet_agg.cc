#include "obs/fleet_agg.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace imsim {
namespace obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * @return the end of the run of units from @p a that share unit a's
 * SKU, capped at @p end. A null @p sku column is one SKU-0 run. Racks
 * are single-SKU, so a rack-ordered fleet splits into a few long runs.
 */
std::size_t
skuRunEnd(const std::uint32_t *sku, std::size_t a, std::size_t end)
{
    if (sku == nullptr)
        return end;
    std::size_t b = a + 1;
    while (b < end && sku[b] == sku[a])
        ++b;
    return b;
}

} // namespace

const char *
fleetChannelName(FleetChannel channel)
{
    switch (channel) {
      case kChanTj:
        return "tj";
      case kChanPower:
        return "power";
      case kChanUtilization:
        return "util";
      case kChanWearRate:
        return "wear_rate";
      default:
        return "unknown";
    }
}

FleetAggregator::FleetAggregator() : FleetAggregator(Config{}) {}

FleetAggregator::FleetAggregator(Config config) : cfg(config)
{
    util::fatalIf(cfg.skuCount == 0, "FleetAggregator: skuCount must be > 0");
    util::fatalIf(cfg.sketchBins == 0,
            "FleetAggregator: sketchBins must be > 0");

    const std::size_t cells = cfg.skuCount * kFleetChannels;
    accums.resize(cells);
    sketches.reserve(cells);
    overallSketches.reserve(kFleetChannels);
    cumulativeSketches.reserve(kFleetChannels);
    for (std::size_t sku = 0; sku < cfg.skuCount; ++sku) {
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
            double lo = 0.0;
            double hi = 1.0;
            switch (static_cast<FleetChannel>(ch)) {
              case kChanTj:
                lo = cfg.tjLo;
                hi = cfg.tjHi;
                break;
              case kChanPower:
                lo = cfg.powerLo;
                hi = cfg.powerHi;
                break;
              case kChanUtilization:
                lo = cfg.utilLo;
                hi = cfg.utilHi;
                break;
              case kChanWearRate:
                lo = cfg.wearRateLo;
                hi = cfg.wearRateHi;
                break;
              default:
                break;
            }
            util::QuantileSketch sketch =
                util::QuantileSketch::linear(lo, hi, cfg.sketchBins);
            if (sku == 0) {
                overallSketches.push_back(sketch);
                cumulativeSketches.push_back(sketch);
            }
            sketches.push_back(std::move(sketch));
        }
    }

    current.perSku.resize(cells);
    published.perSku.resize(cells);

    if (cfg.record) {
        std::vector<std::string> columns;
        columns.push_back("fleet.units");
        columns.push_back("fleet.power_w");
        static const char *const kStatNames[] = {"min", "mean", "max",
                                                 "p50", "p95", "p99"};
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
            const std::string base =
                std::string("fleet.") +
                fleetChannelName(static_cast<FleetChannel>(ch));
            for (const char *stat : kStatNames)
                columns.push_back(base + "." + stat);
        }
        recorded.setColumns(columns);
        rowScratch.reserve(columns.size());
    }
}

void
FleetAggregator::observe(Seconds t, const FleetView &view, Seconds dt)
{
    if (inlinePlan.units() != view.count)
        inlinePlan = util::ShardPlan::even(view.count, 1);
    observe(t, view, dt, inlinePlan, inlineRunner);
}

void
FleetAggregator::observe(Seconds t, const FleetView &view, Seconds dt,
                         const util::ShardPlan &plan,
                         util::ShardRunner &runner)
{
    const std::size_t n = view.count;
    util::fatalIf(plan.units() != n,
                  "FleetAggregator::observe: plan does not cover the view");

    // (Re)build the shard-private scratch when the plan shape changes:
    // an accumulator plus a geometry clone of the per-SKU sketch per
    // cell. Stable plans (the minute loop's, the inline one-shard plan)
    // hit this once.
    const std::size_t cells = cfg.skuCount * kFleetChannels;
    const std::size_t shards = plan.shards();
    if (shardCells.size() != shards * cells) {
        shardCells.clear();
        shardCells.reserve(shards * cells);
        for (std::size_t s = 0; s < shards; ++s)
            for (std::size_t cell = 0; cell < cells; ++cell)
                shardCells.push_back(ShardCell{{}, sketches[cell]});
    }

    // Wear-rate scratch sizing stays serial (it allocates on the first
    // tick / fleet resize); the per-unit fills run inside the shards.
    const double dt_years =
        dt > 0.0 ? dt / (units::kSecondsPerHour * units::kHoursPerYear)
                 : 0.0;
    const bool have_wear = view.wearConsumed != nullptr && n > 0;
    bool first_wear_tick = false;
    if (have_wear && prevWear.size() != n) {
        prevWear.resize(n);
        wearRateScratch.resize(n);
        first_wear_tick = true;
    }
    const double inv_years = dt_years > 0.0 ? 1.0 / dt_years : 0.0;

    for (Accum &acc : accums)
        acc = Accum{kInf, -kInf, 0.0, 0};
    for (util::QuantileSketch &sketch : sketches)
        sketch.reset();

    // Validate the sku column on the caller's thread: a fatal inside
    // the parallel body would unwind through a pool worker instead of
    // reaching the caller.
    if (view.sku != nullptr) {
        std::uint32_t top = 0;
        for (std::size_t i = 0; i < n; ++i)
            top = std::max(top, view.sku[i]);
        util::fatalIf(top >= cfg.skuCount,
                      "FleetAggregator::observe: sku out of range");
    }

    // The channel columns, in FleetChannel order. A null column reads
    // as 0 for every unit through a zero column (sized serially, like
    // the wear scratch), so every pass below walks plain columns.
    const bool any_null = view.tj == nullptr ||
                          view.totalPower == nullptr ||
                          view.utilization == nullptr || !have_wear;
    if (any_null && zeroColumn.size() != n)
        zeroColumn.assign(n, 0.0);
    const double *const columns[kFleetChannels] = {
        view.tj ? view.tj : zeroColumn.data(),
        view.totalPower ? view.totalPower : zeroColumn.data(),
        view.utilization ? view.utilization : zeroColumn.data(),
        have_wear ? wearRateScratch.data() : zeroColumn.data(),
    };

    // The per-unit pass, one shard per task: wear-rate fills
    // (elementwise), then, per run of same-SKU units and per channel,
    // a min/max fold in registers and a batch sketch fill into
    // shard-private scratch. Each (SKU, channel) cell still folds its
    // units in unit order; NaN fails both comparisons, so it never
    // enters min/max.
    runner.run(plan, [&](std::size_t s, std::size_t begin,
                         std::size_t end) {
        if (have_wear) {
            if (first_wear_tick) {
                for (std::size_t i = begin; i < end; ++i) {
                    wearRateScratch[i] = 0.0;
                    prevWear[i] = view.wearConsumed[i];
                }
            } else {
                for (std::size_t i = begin; i < end; ++i) {
                    wearRateScratch[i] =
                        (view.wearConsumed[i] - prevWear[i]) * inv_years;
                    prevWear[i] = view.wearConsumed[i];
                }
            }
        }
        ShardCell *mine = &shardCells[s * cells];
        for (std::size_t cell = 0; cell < cells; ++cell) {
            mine[cell].acc = Accum{kInf, -kInf, 0.0, 0};
            mine[cell].sketch.reset();
        }
        for (std::size_t a = begin, b = begin; a < end; a = b) {
            b = skuRunEnd(view.sku, a, end);
            ShardCell *run_cells =
                mine + (view.sku ? view.sku[a] : 0) * kFleetChannels;
            // min/max: eight register chains, one min and one max per
            // channel, each folding the run in unit order; interleaving
            // the channels hides each chain's compare latency. The
            // channels are spelled out so the chains stay in registers
            // without relying on the optimiser to unroll a channel loop.
            double lo[kFleetChannels];
            double hi[kFleetChannels];
            for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
                lo[ch] = run_cells[ch].acc.min;
                hi[ch] = run_cells[ch].acc.max;
            }
            const auto fold = [&](std::size_t ch, std::size_t i) {
                const double v = columns[ch][i];
                lo[ch] = v < lo[ch] ? v : lo[ch];
                hi[ch] = v > hi[ch] ? v : hi[ch];
            };
            for (std::size_t i = a; i < b; ++i) {
                fold(kChanTj, i);
                fold(kChanPower, i);
                fold(kChanUtilization, i);
                fold(kChanWearRate, i);
            }
            for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
                ShardCell &c = run_cells[ch];
                c.acc.min = lo[ch];
                c.acc.max = hi[ch];
                c.acc.n += b - a;
                c.sketch.addAll(columns[ch] + a, b - a);
            }
        }
    });

    // Deterministic merge in ascending shard order. The strict
    // comparisons keep the earlier shard's value on ties, which is the
    // unit-order fold's tie rule, so min/max keep their bits (signed
    // zeros included); counts and sketch bins are integers.
    for (std::size_t s = 0; s < shards; ++s) {
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const ShardCell &part = shardCells[s * cells + cell];
            Accum &acc = accums[cell];
            acc.min = part.acc.min < acc.min ? part.acc.min : acc.min;
            acc.max = part.acc.max > acc.max ? part.acc.max : acc.max;
            acc.n += part.acc.n;
            sketches[cell].merge(part.sketch);
        }
    }
    // The sum is the one order-sensitive chain: it runs serially in
    // unit order after the join, four register chains per SKU run
    // (one per channel), each written back when its run ends.
    for (std::size_t a = 0, b = 0; a < n; a = b) {
        b = skuRunEnd(view.sku, a, n);
        Accum *acc = &accums[(view.sku ? view.sku[a] : 0) * kFleetChannels];
        double sum[kFleetChannels];
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch)
            sum[ch] = acc[ch].sum;
        for (std::size_t i = a; i < b; ++i) {
            sum[kChanTj] += columns[kChanTj][i];
            sum[kChanPower] += columns[kChanPower][i];
            sum[kChanUtilization] += columns[kChanUtilization][i];
            sum[kChanWearRate] += columns[kChanWearRate][i];
        }
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch)
            acc[ch].sum = sum[ch];
    }

    finishTick(t);
}

/**
 * Epilogue of observe(): fold the per-(SKU, channel) accumulators and
 * sketches into the current sample, advance the tick count, update the
 * cumulative sketches, record the series row, and publish for
 * cross-thread snapshot() readers.
 */
void
FleetAggregator::finishTick(Seconds t)
{
    reduceInto(current, t);
    ++tickCount;

    if (cfg.cumulative) {
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch)
            cumulativeSketches[ch].merge(overallSketches[ch]);
    }

    if (cfg.record) {
        rowScratch.clear();
        rowScratch.push_back(static_cast<double>(current.units));
        rowScratch.push_back(current.fleetPower);
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
            const ChannelStats &stats = current.overall[ch];
            rowScratch.push_back(stats.min);
            rowScratch.push_back(stats.mean);
            rowScratch.push_back(stats.max);
            rowScratch.push_back(stats.p50);
            rowScratch.push_back(stats.p95);
            rowScratch.push_back(stats.p99);
        }
        recorded.append(t, rowScratch);
    }

    // Publish for cross-thread snapshot() readers. The published
    // sample's perSku vector keeps its size, so the assignment reuses
    // its storage.
    {
        std::lock_guard<std::mutex> lock(publishMutex);
        published.t = current.t;
        published.units = current.units;
        published.fleetPower = current.fleetPower;
        for (std::size_t ch = 0; ch < kFleetChannels; ++ch)
            published.overall[ch] = current.overall[ch];
        published.perSku = current.perSku;
    }
}

void
FleetAggregator::finishChannel(ChannelStats &stats, const Accum &acc,
                               const util::QuantileSketch &sketch)
{
    stats.count = acc.n;
    if (acc.n == 0) {
        stats.min = stats.mean = stats.max = 0.0;
        stats.p50 = stats.p95 = stats.p99 = 0.0;
        return;
    }
    stats.min = acc.min;
    stats.max = acc.max;
    stats.mean = acc.sum / static_cast<double>(acc.n);
    stats.p50 = sketch.quantile(50.0);
    stats.p95 = sketch.quantile(95.0);
    stats.p99 = sketch.quantile(99.0);
}

void
FleetAggregator::reduceInto(FleetSample &sample, Seconds t)
{
    sample.t = t;

    for (std::size_t ch = 0; ch < kFleetChannels; ++ch) {
        // Overall = merge of the per-SKU accumulators and sketches
        // (the mergeable-sketch property: no second pass over units).
        Accum overall{kInf, -kInf, 0.0, 0};
        util::QuantileSketch &sketch = overallSketches[ch];
        sketch.reset();
        for (std::size_t sku = 0; sku < cfg.skuCount; ++sku) {
            const std::size_t cell = sku * kFleetChannels + ch;
            const Accum &acc = accums[cell];
            if (acc.n > 0) {
                overall.min = std::min(overall.min, acc.min);
                overall.max = std::max(overall.max, acc.max);
                overall.sum += acc.sum;
                overall.n += acc.n;
            }
            sketch.merge(sketches[cell]);
            finishChannel(sample.perSku[cell], acc, sketches[cell]);
        }
        finishChannel(sample.overall[ch], overall, sketch);
        if (ch == kChanPower) {
            sample.units = overall.n;
            sample.fleetPower = overall.sum;
        }
    }
}

FleetSample
FleetAggregator::snapshot() const
{
    std::lock_guard<std::mutex> lock(publishMutex);
    return published;
}

TimeSeries
FleetAggregator::takeSeries()
{
    TimeSeries out = std::move(recorded);
    recorded = TimeSeries(out.columns());
    return out;
}

const util::QuantileSketch &
FleetAggregator::cumulative(FleetChannel channel) const
{
    util::fatalIf(channel >= kFleetChannels,
            "FleetAggregator::cumulative: bad channel");
    return cumulativeSketches[channel];
}

} // namespace obs
} // namespace imsim
