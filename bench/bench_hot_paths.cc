/**
 * @file
 * Hot-path performance harness: times the three loops the fleet-scale
 * experiments live in — kernel event dispatch, M/G/k request service,
 * and the datacenter power minute loop — and emits a machine-readable
 * `BENCH_hotpaths.json` so every PR can diff throughput against the
 * previous baseline (see scripts/bench.sh and DESIGN.md §"Performance
 * & hot paths").
 *
 * The binary also instruments global operator new with an allocation
 * counter: each benchmark reports steady-state heap allocations per
 * operation, which pins the allocation contract (kernel events and
 * datacenter minutes must be allocation-free after warm-up).
 *
 * Flags:
 *   --smoke           tiny iteration counts (the `ctest -L perf` target);
 *   --scale X         multiply the default iteration counts by X;
 *   --out FILE        JSON destination (default: BENCH_hotpaths.json);
 *   --baseline FILE   compare this run against a previous JSON dump and
 *                     exit non-zero when a hot path regressed;
 *   --tolerance FRAC  allowed ns/op slowdown fraction in --baseline
 *                     mode (default 0.30 — container timing is noisy;
 *                     allocs/op is always compared tightly);
 *   --sim-threads N   threads for the sharded benches (default 8;
 *                     results are bit-identical for any value, only
 *                     the wall-clock moves).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include <sstream>

#include "cluster/datacenter.hh"
#include "fleet/kernels.hh"
#include "obs/blackbox.hh"
#include "obs/manifest.hh"
#include "power/server_power.hh"
#include "reliability/lifetime.hh"
#include "sim/simulation.hh"
#include "thermal/cooling.hh"
#include "thermal/fluid.hh"
#include "thermal/junction.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/shard.hh"
#include "workload/queueing.hh"

namespace {

/// Heap allocations observed process-wide since start-up.
std::atomic<std::uint64_t> allocCalls{0};

std::uint64_t
allocsSoFar()
{
    return allocCalls.load(std::memory_order_relaxed);
}

} // namespace

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

namespace {

using namespace imsim;
using Clock = std::chrono::steady_clock;

double
elapsedSeconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** One benchmark's result row (the JSON schema, one object per row). */
struct BenchResult
{
    std::string name;       ///< Stable benchmark identifier.
    std::string unit;       ///< What one operation is.
    std::uint64_t iterations = 0;
    double nsPerOp = 0.0;
    double opsPerSec = 0.0;
    double allocsPerOp = 0.0; ///< Steady-state heap allocations / op.
};

BenchResult
makeResult(const std::string &name, const std::string &unit,
           std::uint64_t iterations, double wall_s, std::uint64_t allocs)
{
    BenchResult r;
    r.name = name;
    r.unit = unit;
    r.iterations = iterations;
    const double ops = static_cast<double>(iterations);
    r.nsPerOp = iterations > 0 ? wall_s * 1e9 / ops : 0.0;
    r.opsPerSec = wall_s > 0.0 ? ops / wall_s : 0.0;
    r.allocsPerOp =
        iterations > 0 ? static_cast<double>(allocs) / ops : 0.0;
    return r;
}

// ---------------------------------------------------------------------
// Kernel: periodic re-arm dispatch.
// ---------------------------------------------------------------------

BenchResult
benchKernelPeriodic(std::uint64_t target_events)
{
    sim::Simulation sim;
    std::uint64_t fired = 0;
    constexpr int kStreams = 64;
    for (int i = 0; i < kStreams; ++i)
        sim.every(0.5 + 0.01 * static_cast<double>(i),
                  [&fired] { ++fired; });

    // Warm-up: the queue, slab, and bookkeeping reach steady size.
    sim.runUntil(500.0);

    const std::uint64_t executed0 = sim.eventsExecuted();
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    Seconds horizon = sim.now();
    while (sim.eventsExecuted() - executed0 < target_events) {
        horizon += 1000.0;
        sim.runUntil(horizon);
    }
    const auto t1 = Clock::now();
    const std::uint64_t events = sim.eventsExecuted() - executed0;
    util::fatalIf(fired == 0, "bench: periodic events never fired");
    return makeResult("kernel_periodic_events", "event", events,
                      elapsedSeconds(t0, t1), allocsSoFar() - allocs0);
}

// ---------------------------------------------------------------------
// Kernel: one-shot schedule/fire churn.
// ---------------------------------------------------------------------

struct ChainCtx
{
    sim::Simulation *sim;
    Seconds dt;
    std::uint64_t fired = 0;
};

// Each step schedules its successor through a one-pointer closure so
// the callback fits std::function's small-buffer storage: the bench
// measures the kernel's own allocations, not the closure's.
void
chainStep(ChainCtx *ctx)
{
    ++ctx->fired;
    ctx->sim->after(ctx->dt, [ctx] { chainStep(ctx); });
}

BenchResult
benchKernelOneShot(std::uint64_t target_events)
{
    sim::Simulation sim;
    constexpr int kChains = 32;
    std::vector<ChainCtx> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
        chains[i].sim = &sim;
        chains[i].dt = 1e-3 + 1e-5 * static_cast<double>(i);
        ChainCtx *ctx = &chains[i];
        sim.after(chains[i].dt, [ctx] { chainStep(ctx); });
    }

    sim.runUntil(1.0); // Warm-up.

    const std::uint64_t executed0 = sim.eventsExecuted();
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    Seconds horizon = sim.now();
    while (sim.eventsExecuted() - executed0 < target_events) {
        horizon += 5.0;
        sim.runUntil(horizon);
    }
    const auto t1 = Clock::now();
    const std::uint64_t events = sim.eventsExecuted() - executed0;
    return makeResult("kernel_oneshot_events", "event", events,
                      elapsedSeconds(t0, t1), allocsSoFar() - allocs0);
}

// ---------------------------------------------------------------------
// M/G/k queueing cluster request throughput.
// ---------------------------------------------------------------------

BenchResult
benchQueueing(std::uint64_t target_requests)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params params;
    // Retain only as much utilization history as the warm-up below
    // covers: the per-server sliding-window rings reach their steady
    // footprint before timing starts instead of growing (and
    // allocating) for the default 200 s of simulated time.
    params.utilWindow = 5.0;
    workload::QueueingCluster cluster(sim, util::Rng(1234), params);
    constexpr int kServers = 8;
    for (int i = 0; i < kServers; ++i)
        cluster.addServer(params.refFreq);
    // ~70% utilization: kServers * threads / serviceMean * 0.7.
    const double capacity = static_cast<double>(kServers) *
                            static_cast<double>(params.threadsPerServer) /
                            params.serviceMean;
    // Warm up HOTTER than the measured load (90% vs 70% utilization):
    // every growable structure — the backlog ring, the per-server
    // sliding-window rings, the latency reservoir — reaches a capacity
    // ceiling comfortably above anything the steady 70% loop can
    // occupy, so the timed window below performs zero allocations
    // instead of catching the odd burst-driven ring doubling. The
    // latency reservoir is additionally primed through one full 5 s
    // horizon chunk (the measurement loop resets it every chunk, and
    // reset() keeps capacity).
    cluster.setArrivalRate(0.9 * capacity);
    sim.runUntil(5.0); // Past the empty-system transient.
    cluster.resetLatencies();
    sim.runUntil(10.0); // One full reservoir chunk at the hot rate.
    cluster.setArrivalRate(0.7 * capacity);
    sim.runUntil(15.0); // Drain back to the measured operating point.
    cluster.resetLatencies();

    const std::uint64_t completed0 = cluster.completed();
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    Seconds horizon = sim.now();
    while (cluster.completed() - completed0 < target_requests) {
        horizon += 5.0;
        sim.runUntil(horizon);
        // Keep the latency reservoir from dominating memory at large
        // iteration counts; throughput is unaffected.
        cluster.resetLatencies();
    }
    const auto t1 = Clock::now();
    const std::uint64_t requests = cluster.completed() - completed0;
    return makeResult("queueing_requests", "request", requests,
                      elapsedSeconds(t0, t1), allocsSoFar() - allocs0);
}

// ---------------------------------------------------------------------
// Datacenter power minute loop.
// ---------------------------------------------------------------------

cluster::DatacenterPowerSim
makeDatacenter()
{
    cluster::RackConfig batch;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    std::vector<cluster::RackConfig> racks;
    constexpr int kRacks = 24;
    for (int i = 0; i < kRacks; ++i)
        racks.push_back(i % 3 == 2 ? latency : batch);
    // ~30% oversubscribed against the fleet's 403 kW nominal peak.
    return cluster::DatacenterPowerSim(racks, 320000.0, 1.3, 1.2);
}

BenchResult
benchDatacenter(double days)
{
    const auto dc = makeDatacenter();

    // The minute loop's allocation count is isolated by differencing
    // two runs of different lengths: setup (trace generation, scratch
    // sizing) costs the same fixed number of allocations in both, so
    // the delta is attributable to the extra simulated minutes alone.
    util::Rng rng_short(2021);
    const std::uint64_t allocs_short0 = allocsSoFar();
    dc.run(cluster::OverclockPolicy::PowerAware, rng_short, days);
    const std::uint64_t allocs_short = allocsSoFar() - allocs_short0;

    util::Rng rng_long(2021);
    const std::uint64_t allocs_long0 = allocsSoFar();
    const auto t0 = Clock::now();
    dc.run(cluster::OverclockPolicy::PowerAware, rng_long, 2.0 * days);
    const auto t1 = Clock::now();
    const std::uint64_t allocs_long = allocsSoFar() - allocs_long0;

    const auto minutes =
        static_cast<std::uint64_t>(2.0 * days * units::kMinutesPerDay);
    const auto extra_minutes =
        static_cast<std::uint64_t>(days * units::kMinutesPerDay);
    const std::uint64_t loop_allocs =
        allocs_long > allocs_short ? allocs_long - allocs_short : 0;
    auto r = makeResult("datacenter_minutes", "minute", minutes,
                        elapsedSeconds(t0, t1), 0);
    r.allocsPerOp = static_cast<double>(loop_allocs) /
                    static_cast<double>(extra_minutes);
    return r;
}

// ---------------------------------------------------------------------
// Fleet batched physics step vs the equivalent per-object loop.
// ---------------------------------------------------------------------

/// Mixed-SKU table: the immersed Open Compute blade plus the same blade
/// under air cooling, so the kernels' per-SKU hoisting is exercised.
std::vector<fleet::SkuParams>
makeFleetSkus()
{
    auto physics = cluster::PerServerPhysics::openComputeImmersed();
    std::vector<fleet::SkuParams> skus = std::move(physics.skus);
    const auto server = power::ServerPowerModel::openComputeBlade();
    const thermal::AirCooling air;
    skus.push_back(fleet::SkuParams::fromModels(
        server.socketModel(), server.socketCount(),
        /*constant_power=*/200.0, air, /*thermal_cap=*/400.0,
        /*oc_ratio=*/1.23, /*t_min=*/air.referenceTemperature(0.0)));
    return skus;
}

/// Shared fleet shape for both step benchmarks: alternate SKUs,
/// utilization spread over [0.05, 0.95], every 7th server overclocked.
void
populateFleet(fleet::FleetState &state,
              const std::vector<fleet::SkuParams> &skus,
              std::size_t servers)
{
    state.reserve(servers);
    for (std::size_t i = 0; i < servers; ++i) {
        const std::uint32_t sku =
            static_cast<std::uint32_t>(i % skus.size());
        state.addServers(1, sku, skus[sku].coolantRef);
        state.utilization[i] =
            0.05 + 0.9 * static_cast<double>(i % 97) / 96.0;
        state.freqLevel[i] =
            i % 7 == 0 ? fleet::kOverclocked : fleet::kNominal;
    }
}

/// Fleet size for the step benchmarks: large enough that per-server
/// state no longer fits the fastest caches, the regime the SoA layout
/// is built for (ROADMAP's 100k+-server target).
constexpr std::size_t kFleetServers = 16384;

BenchResult
benchFleetStep(std::uint64_t target_server_minutes)
{
    const auto skus = makeFleetSkus();
    constexpr std::size_t kServers = kFleetServers;
    fleet::FleetState state;
    populateFleet(state, skus, kServers);

    // Warm-up: one step sizes the thermal decay scratch.
    fleet::stepAll(state, skus, 60.0);

    const std::uint64_t minutes =
        std::max<std::uint64_t>(1, target_server_minutes / kServers);
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    for (std::uint64_t m = 0; m < minutes; ++m)
        fleet::stepAll(state, skus, 60.0);
    const auto t1 = Clock::now();
    util::fatalIf(state.summarize().meanTj <= 0.0,
                  "bench: fleet step went cold");
    return makeResult("fleet_step", "server_minute", minutes * kServers,
                      elapsedSeconds(t0, t1), allocsSoFar() - allocs0);
}

/// One server of the per-object architecture the fleet kernels
/// replace: every server owns its scalar model objects, the way
/// DatacenterPowerSim would have had to hold them without FleetState.
struct ScalarServer
{
    power::SocketPowerModel socket;
    thermal::ThermalNode node;
    reliability::WearTracker tracker;
    const thermal::CoolingSystem *cooling;
    GHz frequency;
    double utilization;
    Celsius tMin;
};

/// The loop fleet/kernels.cc replaces: an array of per-server objects
/// stepped one at a time through the scalar APIs (SocketPowerModel +
/// ThermalNode + WearTracker, with the virtual cooling-system
/// reference lookup), same physics and fleet shape as benchFleetStep.
BenchResult
benchFleetStepObjects(std::uint64_t target_server_minutes)
{
    const auto skus = makeFleetSkus();
    const auto server = power::ServerPowerModel::openComputeBlade();
    const reliability::LifetimeModel lifetime;
    const thermal::TwoPhaseImmersionCooling immersed(thermal::fc3284());
    const thermal::AirCooling air;
    const thermal::CoolingSystem *coolings[2] = {&immersed, &air};

    constexpr std::size_t kServers = kFleetServers;
    fleet::FleetState shape; // Reuse the fleet shape as plain config.
    populateFleet(shape, skus, kServers);

    std::vector<ScalarServer> servers;
    servers.reserve(kServers);
    for (std::size_t i = 0; i < kServers; ++i) {
        const fleet::SkuParams &p = skus[shape.skuIndex[i]];
        servers.push_back(ScalarServer{
            server.socketModel(),
            thermal::ThermalNode(p.rth, p.thermalCap, p.coolantRef),
            reliability::WearTracker(lifetime, p.designLife),
            coolings[shape.skuIndex[i]],
            p.level[shape.freqLevel[i]].frequency,
            shape.utilization[i],
            p.tMin,
        });
    }

    const std::uint64_t minutes =
        std::max<std::uint64_t>(1, target_server_minutes / kServers);
    const Years minute_years = fleet::secondsToYears(60.0);
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    for (std::uint64_t m = 0; m < minutes; ++m) {
        for (std::size_t i = 0; i < kServers; ++i) {
            ScalarServer &sv = servers[i];
            const power::VfCurve &vf = sv.socket.curve();
            const Volts volt = vf.voltageFor(sv.frequency);
            const power::OperatingPoint op{sv.frequency, volt,
                                           sv.utilization};
            const Watts dyn = sv.socket.dynamicPower(op);
            const Watts leak =
                sv.socket.leakagePower(sv.node.temperature());
            const Celsius ref =
                sv.cooling->referenceTemperature(dyn + leak);
            sv.node.step(60.0, dyn + leak, ref);
            reliability::StressCondition cond;
            cond.voltage = volt;
            cond.tjMax = sv.node.temperature();
            cond.tMin = sv.tMin;
            cond.freqRatio = sv.frequency / vf.nominalFrequency();
            cond.dutyCycle = sv.utilization;
            sv.tracker.accrue(cond, minute_years);
        }
    }
    const auto t1 = Clock::now();
    util::fatalIf(servers.front().node.temperature() <= 0.0,
                  "bench: object step went cold");
    return makeResult("fleet_step_objects", "server_minute",
                      minutes * kServers, elapsedSeconds(t0, t1),
                      allocsSoFar() - allocs0);
}

/// The sharded stepAll: the same arithmetic as benchFleetStep fanned
/// over a fixed 8-shard plan on a util::ShardRunner. The plan never
/// depends on the thread count, so the columns land bit-identical to
/// the serial bench for any --sim-threads; the fork-join itself is
/// allocation-free after warm-up (pool-resident shard job, no
/// packaged_task), which allocs/op pins.
BenchResult
benchFleetStepParallel(std::uint64_t target_server_minutes,
                       std::size_t threads)
{
    const auto skus = makeFleetSkus();
    constexpr std::size_t kServers = kFleetServers;
    fleet::FleetState state;
    populateFleet(state, skus, kServers);

    const util::ShardPlan plan = util::ShardPlan::even(kServers, 8);
    util::ShardRunner runner(threads);

    // Warm-up: sizes the thermal/wear scratch and spins the pool up.
    fleet::stepAll(state, skus, 60.0, plan, runner);

    const std::uint64_t minutes =
        std::max<std::uint64_t>(1, target_server_minutes / kServers);
    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    for (std::uint64_t m = 0; m < minutes; ++m)
        fleet::stepAll(state, skus, 60.0, plan, runner);
    const auto t1 = Clock::now();
    util::fatalIf(state.summarize().meanTj <= 0.0,
                  "bench: parallel fleet step went cold");
    return makeResult("fleet_step_parallel", "server_minute",
                      minutes * kServers, elapsedSeconds(t0, t1),
                      allocsSoFar() - allocs0);
}

/// ROADMAP's fleet-scale target: a 100k-server datacenter (2500 racks
/// x 40) under per-server fidelity, minute loop sharded across
/// --sim-threads. Alloc accounting uses the same two-run differencing
/// as benchDatacenter, so the per-run ShardRunner/trace setup cancels
/// and allocs/op is the minute loop alone.
BenchResult
benchDatacenterLarge(double days, std::size_t sim_threads)
{
    cluster::RackConfig batch;
    batch.servers = 40;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.servers = 40;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    std::vector<cluster::RackConfig> racks;
    constexpr int kRacks = 2500;
    racks.reserve(kRacks);
    for (int i = 0; i < kRacks; ++i)
        racks.push_back(i % 3 == 2 ? latency : batch);
    // ~350 W per server: tight enough that capping and the PowerAware
    // backout fire, so the sharded minute loop runs every branch.
    cluster::DatacenterPowerSim dc(racks, 3.5e7, 1.3, 1.2);
    dc.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    dc.setSimThreads(sim_threads);

    util::Rng rng_short(2021);
    const std::uint64_t allocs_short0 = allocsSoFar();
    dc.run(cluster::OverclockPolicy::PowerAware, rng_short, days);
    const std::uint64_t allocs_short = allocsSoFar() - allocs_short0;

    util::Rng rng_long(2021);
    const std::uint64_t allocs_long0 = allocsSoFar();
    const auto t0 = Clock::now();
    dc.run(cluster::OverclockPolicy::PowerAware, rng_long, 2.0 * days);
    const auto t1 = Clock::now();
    const std::uint64_t allocs_long = allocsSoFar() - allocs_long0;

    const auto minutes =
        static_cast<std::uint64_t>(2.0 * days * units::kMinutesPerDay);
    const auto extra_minutes =
        static_cast<std::uint64_t>(days * units::kMinutesPerDay);
    const std::uint64_t loop_allocs =
        allocs_long > allocs_short ? allocs_long - allocs_short : 0;
    auto r = makeResult("datacenter_minutes_large", "minute", minutes,
                        elapsedSeconds(t0, t1), 0);
    r.allocsPerOp = static_cast<double>(loop_allocs) /
                    static_cast<double>(extra_minutes);
    return r;
}

/// The black-box recorder's per-minute tick: poll eight scalar
/// channels and fold the sample row into every retention tier. This
/// is the whole steady-state cost a `--blackbox` run adds to the
/// datacenter minute loop, so it must stay allocation-free after the
/// first tick sizes the tier storage (allocs/op pins that contract;
/// see bench_obs_overhead for the fleet-scale variant).
BenchResult
benchFlightRecorderTick(std::uint64_t target_ticks)
{
    obs::FlightRecorder recorder(obs::FlightRecorder::Config::forCadence(60.0));
    std::vector<double> values(8, 0.0);
    for (std::size_t c = 0; c < values.size(); ++c)
        recorder.addChannel("chan" + std::to_string(c),
                            [&values, c] { return values[c]; });
    // First tick sizes the tier storage; keep it out of the window.
    recorder.tick(0.0);

    const std::uint64_t allocs0 = allocsSoFar();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < target_ticks; ++i) {
        for (std::size_t c = 0; c < values.size(); ++c)
            values[c] = static_cast<double>(i + c);
        recorder.tick(60.0 * static_cast<double>(i + 1));
    }
    const auto t1 = Clock::now();
    util::fatalIf(recorder.ticks() != target_ticks + 1,
                  "bench: flight recorder dropped ticks");
    return makeResult("flight_recorder_tick", "tick", target_ticks,
                      elapsedSeconds(t0, t1), allocsSoFar() - allocs0);
}

// ---------------------------------------------------------------------
// JSON report.
// ---------------------------------------------------------------------

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
writeReport(const std::vector<BenchResult> &results,
            const std::string &path, const std::string &meta_json)
{
    std::string out;
    out += "{\n  \"schema\": \"imsim.bench.hot_paths/1\",\n";
    out += "  \"meta\": " + meta_json + ",\n";
    out += "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        out += "    {\"name\": \"" + r.name + "\", ";
        out += "\"unit\": \"" + r.unit + "\", ";
        out += "\"iterations\": " + std::to_string(r.iterations) + ", ";
        out += "\"ns_per_op\": " + jsonNumber(r.nsPerOp) + ", ";
        out += "\"ops_per_sec\": " + jsonNumber(r.opsPerSec) + ", ";
        out += "\"allocs_per_op\": " + jsonNumber(r.allocsPerOp) + "}";
        out += i + 1 < results.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";

    std::ofstream file(path);
    util::fatalIf(!file, "bench_hot_paths: cannot write " + path);
    file << out;
}

// ---------------------------------------------------------------------
// Baseline comparison (--baseline FILE): the CI/pre-commit gate.
// ---------------------------------------------------------------------

/**
 * Compare @p results against the JSON dump at @p baseline_path.
 * Timing regresses when ns/op exceeds the baseline by more than
 * @p tolerance (fractional); the allocation contract regresses when
 * allocs/op grows by more than 0.125 absolute — tight enough to catch
 * a fraction-of-an-alloc-per-op structural leak (the kind a container
 * churning every few ops produces) while forgiving the odd one-off
 * growth event amortized over a full run. The baseline's "meta" block
 * is provenance only and never compared.
 *
 * Every regression prints the benchmark's name and its percent delta
 * against the baseline, and @p failed collects "name (+pct)" summaries
 * so the caller's exit message names the offenders.
 *
 * @return the number of regressed benchmarks.
 */
int
checkAgainstBaseline(const std::vector<BenchResult> &results,
                     const std::string &baseline_path, double tolerance,
                     std::vector<std::string> &failed)
{
    std::ifstream in(baseline_path);
    util::fatalIf(!in, "bench_hot_paths: cannot read baseline " +
                           baseline_path);
    std::ostringstream text;
    text << in.rdbuf();
    const util::Json doc = util::Json::parse(text.str());
    util::fatalIf(!doc.isObject() || !doc.has("schema") ||
                      doc.at("schema").str() != "imsim.bench.hot_paths/1",
                  "bench_hot_paths: baseline is not an "
                  "imsim.bench.hot_paths/1 document");

    int regressions = 0;
    for (const auto &r : results) {
        const util::Json *base_row = nullptr;
        for (const auto &row : doc.at("benchmarks").array()) {
            if (row.at("name").str() == r.name) {
                base_row = &row;
                break;
            }
        }
        if (!base_row) {
            std::cout << "  [bench-check] " << r.name
                      << ": no baseline row (new benchmark), skipped\n";
            continue;
        }
        const double base_ns = base_row->at("ns_per_op").number();
        const double base_allocs =
            base_row->at("allocs_per_op").number();
        const double ratio = base_ns > 0.0 ? r.nsPerOp / base_ns : 1.0;
        const double pct = (ratio - 1.0) * 100.0;
        bool bad = false;
        if (ratio > 1.0 + tolerance) {
            std::cout << "  [bench-check] REGRESSION " << r.name << ": "
                      << jsonNumber(r.nsPerOp) << " ns/" << r.unit
                      << " vs baseline " << jsonNumber(base_ns) << " (+"
                      << jsonNumber(pct) << "%, tolerance +"
                      << jsonNumber(tolerance * 100.0) << "%)\n";
            failed.push_back(r.name + " (+" + jsonNumber(pct) +
                             "% ns/op)");
            bad = true;
        }
        if (r.allocsPerOp > base_allocs + 0.125) {
            std::cout << "  [bench-check] REGRESSION " << r.name << ": "
                      << jsonNumber(r.allocsPerOp) << " allocs/" << r.unit
                      << " vs baseline " << jsonNumber(base_allocs)
                      << " (+"
                      << jsonNumber(r.allocsPerOp - base_allocs)
                      << " allocs/op)\n";
            failed.push_back(r.name + " (+" +
                             jsonNumber(r.allocsPerOp - base_allocs) +
                             " allocs/op)");
            bad = true;
        }
        if (!bad) {
            std::cout << "  [bench-check] ok " << r.name << ": x"
                      << jsonNumber(ratio) << " ns/op, "
                      << jsonNumber(r.allocsPerOp) << " allocs/op\n";
        }
        regressions += bad ? 1 : 0;
    }
    return regressions;
}

} // namespace

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const bool smoke = cli.has("--smoke");
    const double scale = cli.getDouble("--scale", smoke ? 0.002 : 1.0);
    const std::string out_path = cli.get("--out", "BENCH_hotpaths.json");
    const std::string baseline_path = cli.get("--baseline");
    const double tolerance = cli.getDouble("--tolerance", 0.30);
    // The sharded benches default to 8 threads (the acceptance shape),
    // overridable for single-core containers and thread sweeps.
    const std::size_t sim_threads =
        cli.has("--sim-threads") ? cli.simThreads() : 8;

    const auto scaled = [scale](double n) {
        const double v = n * scale;
        return static_cast<std::uint64_t>(v < 1.0 ? 1.0 : v);
    };

    std::vector<BenchResult> results;
    results.push_back(benchKernelPeriodic(scaled(4e6)));
    results.push_back(benchKernelOneShot(scaled(4e6)));
    results.push_back(benchQueueing(scaled(1e6)));
    results.push_back(
        benchDatacenter(std::max(0.05, 30.0 * scale)));
    results.push_back(benchFleetStep(scaled(8e6)));
    results.push_back(benchFleetStepObjects(scaled(8e6)));
    results.push_back(benchFleetStepParallel(scaled(8e6), sim_threads));
    results.push_back(benchDatacenterLarge(std::max(0.02, 0.25 * scale),
                                           sim_threads));
    results.push_back(benchFlightRecorderTick(scaled(2e6)));

    std::cout << "Hot-path throughput (allocs/op counts steady-state"
                 " heap allocations):\n";
    for (const auto &r : results) {
        std::cout << "  " << r.name << ": "
                  << jsonNumber(r.opsPerSec) << " " << r.unit << "s/s ("
                  << jsonNumber(r.nsPerOp) << " ns/" << r.unit << ", "
                  << jsonNumber(r.allocsPerOp) << " allocs/" << r.unit
                  << ")\n";
    }
    const auto findResult =
        [&results](const char *name) -> const BenchResult * {
        for (const auto &r : results) {
            if (r.name == name)
                return &r;
        }
        return nullptr;
    };
    // The batched kernels' reason to exist: report the speedup over the
    // per-object loop they replace (DESIGN.md asks for >= 2x), and the
    // sharded step's scaling on top of it (>= 3x at 8 threads on
    // multi-core hosts; bounded by the machine's cores).
    const BenchResult *batched = findResult("fleet_step");
    const BenchResult *objects = findResult("fleet_step_objects");
    const BenchResult *parallel = findResult("fleet_step_parallel");
    if (batched && objects && batched->nsPerOp > 0.0) {
        std::cout << "  fleet_step speedup vs per-object loop: x"
                  << jsonNumber(objects->nsPerOp / batched->nsPerOp)
                  << "\n";
    }
    if (batched && parallel && parallel->nsPerOp > 0.0) {
        std::cout << "  fleet_step_parallel speedup vs serial ("
                  << sim_threads << " threads): x"
                  << jsonNumber(batched->nsPerOp / parallel->nsPerOp)
                  << "\n";
    }
    const obs::RunManifest manifest =
        obs::RunManifest::capture(cli, 0, 1);
    writeReport(results, out_path, manifest.toJsonObject());
    std::cout << "Wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        std::cout << "Comparing against " << baseline_path
                  << " (tolerance x" << jsonNumber(1.0 + tolerance)
                  << "):\n";
        std::vector<std::string> failed;
        const int regressions = checkAgainstBaseline(
            results, baseline_path, tolerance, failed);
        if (regressions > 0) {
            std::cout << regressions << " hot path(s) regressed:";
            for (std::size_t i = 0; i < failed.size(); ++i)
                std::cout << (i == 0 ? " " : ", ") << failed[i];
            std::cout << "\n";
            return 1;
        }
        std::cout << "All hot paths within tolerance.\n";
    }
    return 0;
}
