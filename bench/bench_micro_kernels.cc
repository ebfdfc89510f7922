/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths: the DES
 * event loop, Eq. 1 evaluation, the lifetime model, the coupled socket
 * power solve, the hypervisor scheduler step, the queueing cluster,
 * the auto-scaler's windowed utilization read, and the random draws
 * behind requests and rack traces.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "hw/counters.hh"
#include "power/socket_power.hh"
#include "reliability/lifetime.hh"
#include "sim/simulation.hh"
#include "thermal/cooling.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "vm/hypervisor.hh"
#include "workload/app.hh"
#include "workload/queueing.hh"
#include "workload/trace.hh"

using namespace imsim;

namespace {

void
BM_SimulationEventLoop(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        int counter = 0;
        for (int i = 0; i < state.range(0); ++i) {
            sim.at(static_cast<double>(i % 97),
                   [&counter] { ++counter; });
        }
        sim.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventLoop)->Arg(1000)->Arg(10000);

void
BM_Eq1Prediction(benchmark::State &state)
{
    double util = 0.42;
    for (auto _ : state) {
        util = hw::predictedUtilization(util, 0.87, 3.4, 4.1);
        util = hw::predictedUtilization(util, 0.87, 4.1, 3.4);
        benchmark::DoNotOptimize(util);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Eq1Prediction);

void
BM_LifetimeEvaluation(benchmark::State &state)
{
    const reliability::LifetimeModel model;
    reliability::StressCondition cond;
    cond.voltage = 0.98;
    cond.tjMax = 74.0;
    cond.tMin = 50.0;
    cond.freqRatio = 1.23;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.lifetime(cond));
        cond.tjMax += 1e-9; // Defeat caching.
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LifetimeEvaluation);

void
BM_SocketPowerSolve(benchmark::State &state)
{
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    const thermal::TwoPhaseImmersionCooling cooling(thermal::fc3284());
    power::OperatingPoint op{2.6, 0.90, 1.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(socket.solve(op, cooling).total);
        op.frequency += 1e-9;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SocketPowerSolve);

void
BM_TurboEffectiveFrequency(benchmark::State &state)
{
    const auto governor = hw::TurboGovernor::skylake8180();
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    const thermal::TwoPhaseImmersionCooling cooling(thermal::fc3284());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            governor.effectiveFrequency(socket, cooling, 28));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TurboEffectiveFrequency);

void
BM_HypervisorStep(benchmark::State &state)
{
    vm::HypervisorSim sim(16, {3.4, 2.4, 2.4}, util::Rng(1));
    for (int i = 0; i < 4; ++i)
        sim.addLatencyVm(workload::app("SQL"), 500.0);
    sim.addBatchVm(workload::app("BI"));
    for (auto _ : state)
        sim.run(0.1); // 100 scheduler steps.
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_HypervisorStep);

void
BM_QueueingClusterSecond(benchmark::State &state)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params params;
    params.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(2), params);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(2000.0);
    Seconds horizon = 0.0;
    for (auto _ : state) {
        horizon += 1.0;
        sim.runUntil(horizon); // ~2000 requests/iteration.
    }
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_QueueingClusterSecond);

/**
 * One windowed utilization read (SlidingTimeWindow::average) over a
 * 200-s history, the auto-scaler's 30-s or 180-s query (the Arg).
 * The history is a queueing server's busy-thread share: a change every
 * 2 ms on average, about 4 % of them at the previous change's instant,
 * recorded for 1000 s so eviction has wrapped the ring several times.
 * Reported per segment the read folds (ns_per_segment).
 */
void
BM_SlidingWindowAverage(benchmark::State &state)
{
    constexpr int kThreads = 8;
    const Seconds sub_window = static_cast<double>(state.range(0));
    util::SlidingTimeWindow window(200.0);
    util::Rng rng(5);
    std::vector<Seconds> starts; // Distinct record instants.
    Seconds t = 0.0;
    int busy = 0;
    while (t < 1000.0) {
        if (!rng.bernoulli(0.04))
            t += rng.exponential(2e-3);
        busy = std::clamp(busy + (rng.bernoulli(0.5) ? 1 : -1), 0, kThreads);
        window.record(t, static_cast<double>(busy) / kThreads);
        if (starts.empty() || starts.back() != t)
            starts.push_back(t);
    }
    const Seconds now = t + 1e-3;
    // The read folds every segment that starts inside its sub-window,
    // plus the clipped one that straddles its start.
    const auto segments = static_cast<double>(
        starts.end() -
        std::upper_bound(starts.begin(), starts.end(), now - sub_window) + 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(window.average(now, sub_window));
    state.counters["ns_per_segment"] = benchmark::Counter(
        segments * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SlidingWindowAverage)->Arg(30)->Arg(180);

void
BM_PercentileEstimator(benchmark::State &state)
{
    util::Rng rng(3);
    for (auto _ : state) {
        util::PercentileEstimator est;
        for (int i = 0; i < state.range(0); ++i)
            est.add(rng.uniform());
        benchmark::DoNotOptimize(est.p95());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PercentileEstimator)->Arg(10000);

/**
 * One draw of each kind the simulator repeats most (the capture
 * names the row): a raw engine output; one request's exponential
 * inter-arrival gap and lognormal service time, as QueueingCluster
 * draws them; and one sample of a rack trace (a day of a 64-rack
 * set per iteration, reported per sample).
 */
void
BM_RngDraw(benchmark::State &state, int kind)
{
    util::Rng rng(7);
    const util::Rng::LognormalParams service =
        util::Rng::lognormalParams(2.6e-3, 1.5);
    workload::TraceParams trace_params;
    trace_params.sampleInterval = 60.0;
    trace_params.noiseSigma = 0.03;
    trace_params.burstProb = 0.005;
    const workload::TraceGenerator traces(trace_params);
    constexpr std::size_t kRacks = 64;
    std::int64_t items = 0;
    for (auto _ : state) {
        switch (kind) {
          case 0:
            benchmark::DoNotOptimize(rng.next());
            items += 1;
            break;
          case 1:
            benchmark::DoNotOptimize(rng.exponential(5e-4));
            benchmark::DoNotOptimize(rng.lognormal(service.mu, service.sigma));
            items += 1;
            break;
          default: {
            const std::vector<double> day = traces.generate(rng, 1.0, kRacks);
            benchmark::DoNotOptimize(day.data());
            items += static_cast<std::int64_t>(day.size());
            break;
          }
        }
    }
    state.SetItemsProcessed(items);
    state.counters["ns_per_draw"] = benchmark::Counter(
        static_cast<double>(items),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_RngDraw, engine, 0);
BENCHMARK_CAPTURE(BM_RngDraw, request, 1);
BENCHMARK_CAPTURE(BM_RngDraw, trace_sample, 2);

} // namespace

BENCHMARK_MAIN();
