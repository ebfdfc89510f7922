/**
 * @file
 * Google-benchmark microbenchmarks of the observability layer's
 * overhead contract: a disabled tracer or profiler scope must cost a
 * single branch on a hot path, and enabled instrumentation must stay
 * cheap enough to leave on during experiments.
 *
 * Pairs to compare:
 *  - BM_TracerDisabled vs BM_TracerEnabled (per-emit cost);
 *  - BM_CounterInc / BM_GaugePoll (registry primitives);
 *  - BM_ProfScopeDisabled vs BM_ProfScopeEnabled (wall-clock profiler);
 *  - BM_FleetAggregatorObserve / ...Recorded: the per-tick columnar
 *    fleet reduction, with per-server cost (ns_per_server) and the
 *    allocation contract (allocs_per_op must be 0 in steady state —
 *    recording appends one row per tick, the documented exception);
 *  - BM_FleetSnapshot (cross-thread sample copy), BM_WatchdogEvaluate
 *    (per-rule poll), BM_QuantileSketchAdd / BM_SketchMergedQuantile
 *    (the sketch primitives the aggregates are made of);
 *  - BM_FlightRecorderTick (the black-box record tick behind a
 *    16384-server fleet reduction), BM_FlightRecorderTickOnly (the
 *    bare multi-tier fold), BM_FlightRecorderDump (serializing a full
 *    recorder) — steady-state ticks must be 0 allocs/op.
 *
 * Like bench_hot_paths, the binary instruments global operator new so
 * the fleet-aggregation cases can report allocs_per_op directly.
 * `--check` skips the timing runs and enforces the fleet aggregator's
 * and the flight recorder's allocation contracts directly (exit 1 on
 * any steady-state alloc); the tier-1 ctest row check.obs_overhead_check
 * runs it.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "obs/blackbox.hh"
#include "obs/fleet_agg.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"
#include "util/stats.hh"

namespace {

/// Heap allocations observed process-wide since start-up.
std::atomic<std::uint64_t> allocCalls{0};

std::uint64_t
allocsSoFar()
{
    return allocCalls.load(std::memory_order_relaxed);
}

} // namespace

// These replacements route every global new through malloc, so free()
// inside operator delete is the matching deallocator — but GCC cannot
// see that when it inlines operator delete into a caller that
// allocated via operator new, and flags a false-positive
// -Wmismatched-new-delete (fatal under the -Werror sanitizer builds).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    allocCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace imsim;

namespace {

/** Per-emit cost of a disabled tracer (the always-compiled-in path). */
void
BM_TracerDisabled(benchmark::State &state)
{
    obs::EventTracer tracer;
    for (auto _ : state) {
        tracer.instant("tick", "bench");
        tracer.counter("value", 1.0);
        benchmark::DoNotOptimize(tracer.size());
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TracerDisabled);

/** Per-emit cost of an enabled tracer. */
void
BM_TracerEnabled(benchmark::State &state)
{
    obs::EventTracer tracer;
    Seconds t = 0.0;
    tracer.enable([&t] { return t; });
    for (auto _ : state) {
        t += 1.0;
        tracer.instant("tick", "bench");
        tracer.counter("value", t);
        if (tracer.size() > 1u << 20)
            tracer.clear(); // Bound memory, off the measured path mostly.
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TracerEnabled);

/** Counter increment through the registry reference. */
void
BM_CounterInc(benchmark::State &state)
{
    obs::MetricRegistry registry;
    obs::Counter &events = registry.counter("bench.events");
    for (auto _ : state) {
        events.inc();
        benchmark::DoNotOptimize(events.value());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

/** Polling a provider-backed gauge (what the sampler does per column). */
void
BM_GaugePoll(benchmark::State &state)
{
    obs::MetricRegistry registry;
    double model_state = 3.4;
    obs::Gauge &freq = registry.registerGauge(
        "bench.freq", [&model_state] { return model_state; });
    for (auto _ : state) {
        model_state += 1e-9;
        benchmark::DoNotOptimize(freq.value());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugePoll);

/**
 * Profiler scope with the global flag off: the cost every instrumented
 * hot path (thermal step, power allocate, kernel minute loop) pays on
 * ordinary runs. The contract is a single relaxed atomic load and
 * branch — a few ns at most.
 */
void
BM_ProfScopeDisabled(benchmark::State &state)
{
    obs::Profiler::setEnabled(false);
    for (auto _ : state) {
        obs::ProfScope scope("bench.disabled");
        benchmark::DoNotOptimize(&scope);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeDisabled);

/** Profiler scope with the flag on: two clock reads + tree walk. */
void
BM_ProfScopeEnabled(benchmark::State &state)
{
    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    for (auto _ : state) {
        obs::ProfScope scope("bench.enabled");
        benchmark::DoNotOptimize(&scope);
    }
    obs::Profiler::setEnabled(false);
    obs::Profiler::reset();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeEnabled);

/**
 * Synthetic fleet columns with a plausible mixed-SKU population:
 * deterministic values (no RNG on the measured path) spanning each
 * channel's sketch range. SKUs change every @p run units: 1
 * interleaves them, a rack size gives a rack-ordered fleet.
 */
struct SyntheticFleet
{
    std::vector<std::uint32_t> sku;
    std::vector<double> util;
    std::vector<double> power;
    std::vector<double> tj;
    std::vector<double> wear;

    SyntheticFleet(std::size_t count, std::size_t skus, std::size_t run = 1)
    {
        sku.resize(count);
        util.resize(count);
        power.resize(count);
        tj.resize(count);
        wear.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            sku[i] = static_cast<std::uint32_t>(i / run % skus);
            util[i] = static_cast<double>(i % 101) / 100.0;
            power[i] = 180.0 + static_cast<double>(i % 241);
            tj[i] = 45.0 + static_cast<double>(i % 56);
            wear[i] = 1e-6 * static_cast<double>(i);
        }
    }

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

    /** Advance the columns between ticks (off the measured path). */
    void mutate(std::size_t tick)
    {
        const std::size_t n = sku.size();
        for (std::size_t i = 0; i < n; ++i) {
            util[i] = static_cast<double>((i + tick) % 101) / 100.0;
            tj[i] = 45.0 + static_cast<double>((i + 7 * tick) % 56);
            wear[i] += 1e-9;
        }
    }
};

/**
 * The tentpole budget: one columnar fleet reduction per tick. Reported
 * per-server (ns_per_server) because the contract is "a few ns per
 * server-minute"; allocs_per_op must be 0 once the scratch is sized.
 * Args: fleet size, then units per SKU run (1: interleaved SKUs; 40:
 * single-SKU racks, the layout of a datacenter's fleet).
 */
void
BM_FleetAggregatorObserve(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    SyntheticFleet fleet(count, 3,
                         static_cast<std::size_t>(state.range(1)));
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 3;
    cfg.record = false;    // Pure reduction; recording measured below.
    cfg.cumulative = true;
    obs::FleetAggregator agg(cfg);
    agg.observe(0.0, fleet.view(), 60.0); // Size the wear scratch.

    std::size_t tick = 0;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fleet.mutate(++tick);
        state.ResumeTiming();
        const std::uint64_t before = allocsSoFar();
        agg.observe(static_cast<double>(tick) * 60.0, fleet.view(), 60.0);
        allocs += allocsSoFar() - before;
        benchmark::DoNotOptimize(agg.latest().fleetPower);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(count));
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(allocs),
        benchmark::Counter::kAvgIterations);
    state.counters["ns_per_server"] = benchmark::Counter(
        static_cast<double>(count) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FleetAggregatorObserve)
    ->Args({1024, 1})
    ->Args({16384, 1})
    ->Args({16384, 40});

/** The same reduction with per-tick TimeSeries recording on. */
void
BM_FleetAggregatorObserveRecorded(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    SyntheticFleet fleet(count, 3);
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 3;
    cfg.record = true;
    obs::FleetAggregator agg(cfg);
    agg.observe(0.0, fleet.view(), 60.0);

    std::size_t tick = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fleet.mutate(++tick);
        state.ResumeTiming();
        agg.observe(static_cast<double>(tick) * 60.0, fleet.view(), 60.0);
        benchmark::DoNotOptimize(agg.series().rows());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(count));
    state.counters["ns_per_server"] = benchmark::Counter(
        static_cast<double>(count) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FleetAggregatorObserveRecorded)->Arg(16384);

/** Cross-thread snapshot of the published sample (lock + copy). */
void
BM_FleetSnapshot(benchmark::State &state)
{
    SyntheticFleet fleet(1024, 3);
    obs::FleetAggregator::Config cfg;
    cfg.skuCount = 3;
    cfg.record = false;
    obs::FleetAggregator agg(cfg);
    agg.observe(0.0, fleet.view(), 60.0);
    obs::FleetSample sample = agg.snapshot(); // Size the copy target.
    for (auto _ : state) {
        sample = agg.snapshot();
        benchmark::DoNotOptimize(sample.units);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetSnapshot);

/** Per-poll cost of the watchdog rule engine (nothing firing). */
void
BM_WatchdogEvaluate(benchmark::State &state)
{
    obs::Watchdog watchdog;
    double signal = 0.5;
    for (int i = 0; i < 5; ++i) {
        obs::WatchdogRule rule;
        rule.name = "rule" + std::to_string(i);
        rule.signal = [&signal] { return signal; };
        rule.fireThreshold = 1.0;
        rule.clearThreshold = 0.8;
        watchdog.addRule(rule);
    }
    Seconds t = 0.0;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        t += 1.0;
        const std::uint64_t before = allocsSoFar();
        watchdog.evaluate(t);
        allocs += allocsSoFar() - before;
        benchmark::DoNotOptimize(watchdog.firingCount());
    }
    state.SetItemsProcessed(state.iterations() * 5);
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(allocs),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WatchdogEvaluate);

/** The sketch insert every per-unit sample pays. */
void
BM_QuantileSketchAdd(benchmark::State &state)
{
    util::QuantileSketch sketch = util::QuantileSketch::linear(0.0, 150.0,
                                                               128);
    double x = 0.0;
    for (auto _ : state) {
        x += 0.1;
        if (x > 150.0)
            x = 0.0;
        sketch.add(x);
        benchmark::DoNotOptimize(sketch.count());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileSketchAdd);

/**
 * The flight-recorder tick behind a realistic fleet pipeline: a
 * 16384-server columnar reduction publishes the sample, then the
 * recorder folds its six fleet channels into three retention tiers.
 * Only the recorder's tick is on the measured path; the contract is
 * 0 allocs/op in steady state (all tier storage pre-sized).
 */
void
BM_FlightRecorderTick(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    SyntheticFleet fleet(count, 3);
    obs::FleetAggregator::Config agg_cfg;
    agg_cfg.skuCount = 3;
    agg_cfg.record = false;
    agg_cfg.cumulative = false;
    obs::FleetBlackbox box(agg_cfg, obs::FlightRecorder::Config{},
                           /*fire_power_w=*/1e12,
                           /*clear_power_w=*/9e11);
    // Warm up: size the wear scratch, seal the channels, size tiers.
    box.aggregator.observe(0.0, fleet.view(), 60.0);
    box.recorder.tick(0.0);

    std::size_t tick = 0;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fleet.mutate(++tick);
        const Seconds t = static_cast<double>(tick) * 60.0;
        box.aggregator.observe(t, fleet.view(), 60.0);
        state.ResumeTiming();
        const std::uint64_t before = allocsSoFar();
        box.recorder.tick(t);
        allocs += allocsSoFar() - before;
        benchmark::DoNotOptimize(box.recorder.ticks());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(allocs),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FlightRecorderTick)->Arg(16384);

/** The bare fold: eight scalar channels into three tiers, no fleet. */
void
BM_FlightRecorderTickOnly(benchmark::State &state)
{
    obs::FlightRecorder recorder;
    std::vector<double> values(8, 0.0);
    for (std::size_t c = 0; c < values.size(); ++c) {
        recorder.addChannel("chan" + std::to_string(c),
                            [&values, c] { return values[c]; });
    }
    recorder.tick(0.0);
    std::size_t tick = 0;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        ++tick;
        for (std::size_t c = 0; c < values.size(); ++c)
            values[c] = static_cast<double>((tick + c) % 97);
        const std::uint64_t before = allocsSoFar();
        recorder.tick(static_cast<double>(tick) * 60.0);
        allocs += allocsSoFar() - before;
        benchmark::DoNotOptimize(recorder.ticks());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(allocs),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FlightRecorderTickOnly);

/** Serializing a recorder whose finest tier is full (the dump cost). */
void
BM_FlightRecorderDump(benchmark::State &state)
{
    obs::FlightRecorder recorder;
    std::vector<double> values(8, 0.0);
    for (std::size_t c = 0; c < values.size(); ++c) {
        recorder.addChannel("chan" + std::to_string(c),
                            [&values, c] { return values[c]; });
    }
    for (std::size_t tick = 0; tick <= 3600; ++tick) {
        for (std::size_t c = 0; c < values.size(); ++c)
            values[c] = static_cast<double>((tick + c) % 97);
        recorder.tick(static_cast<double>(tick) * 60.0);
    }
    for (auto _ : state) {
        const std::string doc = recorder.pointJson("bench");
        benchmark::DoNotOptimize(doc.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderDump);

/** Quantile over 16 sketch parts without materializing a merge. */
void
BM_SketchMergedQuantile(benchmark::State &state)
{
    std::vector<util::QuantileSketch> parts;
    for (int s = 0; s < 16; ++s) {
        parts.push_back(util::QuantileSketch::linear(0.0, 150.0, 128));
        for (int i = 0; i < 1000; ++i)
            parts.back().add(static_cast<double>((i * (s + 3)) % 1500) /
                             10.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            util::QuantileSketch::mergedQuantile(parts, 99.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchMergedQuantile);

/**
 * `--check`: enforce the fleet aggregator's and the flight recorder's
 * allocation contracts without the timing harness. A 16384-server
 * fleet pipeline warms up long enough to size every tier and cross all
 * three bin boundaries, then 1000 further ticks must perform zero heap
 * allocations in either FleetAggregator::observe or the record tick.
 * Also smoke-tests the dump path (non-empty, schema-stamped). Exit 0
 * on pass, 1 with a diagnostic on stderr otherwise.
 */
int
runSteadyStateCheck()
{
    constexpr std::size_t kServers = 16384;
    constexpr std::size_t kWarmupTicks = 200;
    constexpr std::size_t kMeasuredTicks = 1000;

    SyntheticFleet fleet(kServers, 3);
    obs::FleetAggregator::Config agg_cfg;
    agg_cfg.skuCount = 3;
    agg_cfg.record = false;
    agg_cfg.cumulative = false;
    obs::FleetBlackbox box(agg_cfg, obs::FlightRecorder::Config{},
                           /*fire_power_w=*/1e12,
                           /*clear_power_w=*/9e11);

    std::size_t tick = 0;
    for (; tick < kWarmupTicks; ++tick) {
        fleet.mutate(tick);
        const Seconds t = static_cast<double>(tick) * 60.0;
        box.aggregator.observe(t, fleet.view(), 60.0);
        box.recorder.tick(t);
    }

    std::uint64_t observe_allocs = 0;
    std::uint64_t tick_allocs = 0;
    for (std::size_t i = 0; i < kMeasuredTicks; ++i, ++tick) {
        fleet.mutate(tick);
        const Seconds t = static_cast<double>(tick) * 60.0;
        const std::uint64_t before_observe = allocsSoFar();
        box.aggregator.observe(t, fleet.view(), 60.0);
        const std::uint64_t before = allocsSoFar();
        observe_allocs += before - before_observe;
        box.recorder.tick(t);
        tick_allocs += allocsSoFar() - before;
    }

    int failures = 0;
    if (observe_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: FleetAggregator::observe allocated %llu "
                     "times over %zu steady-state ticks (contract: 0)\n",
                     static_cast<unsigned long long>(observe_allocs),
                     kMeasuredTicks);
        ++failures;
    }
    if (tick_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: FlightRecorder::tick allocated %llu times "
                     "over %zu steady-state ticks (contract: 0)\n",
                     static_cast<unsigned long long>(tick_allocs),
                     kMeasuredTicks);
        ++failures;
    }
    const std::string doc = box.recorder.toJson("check");
    if (doc.find(obs::kBlackboxSchema) == std::string::npos) {
        std::fprintf(stderr, "FAIL: dump is missing the %s schema "
                             "stamp\n",
                     obs::kBlackboxSchema);
        ++failures;
    }
    if (box.recorder.ticks() != kWarmupTicks + kMeasuredTicks) {
        std::fprintf(stderr, "FAIL: recorder counted %zu ticks, "
                             "expected %zu\n",
                     box.recorder.ticks(),
                     kWarmupTicks + kMeasuredTicks);
        ++failures;
    }
    if (failures == 0) {
        std::printf("bench_obs_overhead --check: fleet aggregator and "
                    "flight recorder steady-state ticks allocation-free "
                    "over %zu ticks (%zu servers); dump schema-stamped. "
                    "PASS\n",
                    kMeasuredTicks, kServers);
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            return runSteadyStateCheck();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
