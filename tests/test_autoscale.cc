/**
 * @file
 * Unit tests for the auto-scaling module: the frequency grid, Eq. 1
 * frequency selection, the ASC's scale-out/in and scale-up/down
 * behaviours, and the canned experiments' qualitative outcomes.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "autoscale/autoscaler.hh"
#include "autoscale/experiment.hh"
#include "autoscale/model.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/simulation.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace {

using autoscale::AutoScaler;
using autoscale::AutoScalerConfig;
using autoscale::FrequencyGrid;
using autoscale::Policy;

// --- Frequency grid and selection ---------------------------------------------

TEST(FrequencyGrid, PaperGridHasEightBins)
{
    FrequencyGrid grid(3.4, 4.1, 8);
    EXPECT_EQ(grid.frequencies().size(), 9u);
    EXPECT_DOUBLE_EQ(grid.low(), 3.4);
    EXPECT_DOUBLE_EQ(grid.high(), 4.1);
    EXPECT_NEAR(grid.frequencies()[1] - grid.frequencies()[0], 0.0875,
                1e-9);
}

TEST(FrequencyGrid, SpanFraction)
{
    FrequencyGrid grid(3.4, 4.1, 8);
    EXPECT_DOUBLE_EQ(grid.spanFraction(3.4), 0.0);
    EXPECT_DOUBLE_EQ(grid.spanFraction(4.1), 1.0);
    EXPECT_NEAR(grid.spanFraction(3.75), 0.5, 1e-9);
}

TEST(FrequencySelection, PicksMinimumSufficient)
{
    FrequencyGrid grid(3.4, 4.1, 8);
    // util 0.44 at 3.4 GHz, fully scalable: target 0.40 needs f >= 3.74.
    const GHz f =
        autoscale::minimumSufficientFrequency(grid, 0.44, 1.0, 3.4, 0.40);
    EXPECT_GE(f, 0.44 * 3.4 / 0.40 - 1e-9);
    // And it is the minimal grid point above that.
    EXPECT_LT(f, 0.44 * 3.4 / 0.40 + 0.0875 + 1e-9);
}

TEST(FrequencySelection, FallsBackToMaxWhenInsufficient)
{
    FrequencyGrid grid(3.4, 4.1, 8);
    const GHz f =
        autoscale::minimumSufficientFrequency(grid, 0.9, 1.0, 3.4, 0.40);
    EXPECT_DOUBLE_EQ(f, 4.1);
}

TEST(FrequencySelection, MemoryBoundWorkloadStaysLow)
{
    // With kappa = 0, no frequency helps, and the *lowest* frequency
    // already achieves whatever utilization the load imposes — do not
    // waste power (the paper's warning about indiscriminate scaling-up).
    FrequencyGrid grid(3.4, 4.1, 8);
    const GHz f =
        autoscale::minimumSufficientFrequency(grid, 0.35, 0.0, 4.1, 0.40);
    EXPECT_DOUBLE_EQ(f, 3.4);
}

TEST(FrequencySelection, ScaleDownReturnsLowestSufficient)
{
    FrequencyGrid grid(3.4, 4.1, 8);
    // Light load at max frequency: drop to the floor.
    const GHz f =
        autoscale::minimumSufficientFrequency(grid, 0.10, 0.9, 4.1, 0.40);
    EXPECT_DOUBLE_EQ(f, 3.4);
}

// --- AutoScaler behaviour --------------------------------------------------------

autoscale::ExperimentParams
fastParams(std::uint64_t seed)
{
    autoscale::ExperimentParams params;
    params.seed = seed;
    params.stepDuration = 240.0;
    return params;
}

TEST(AutoScaler, ConfigValidation)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(1), {});
    AutoScalerConfig config;
    config.minVms = 0;
    EXPECT_THROW(AutoScaler(sim, cluster, config), FatalError);
    config.minVms = 2;
    config.maxVms = 1;
    EXPECT_THROW(AutoScaler(sim, cluster, config), FatalError);
}

TEST(AutoScaler, ScalesOutUnderSustainedLoad)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    cp.kappa = 0.9;
    workload::QueueingCluster cluster(sim, util::Rng(2), cp);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::Baseline;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(1100.0); // ~72 % of one VM.
    sim.runUntil(600.0);
    EXPECT_GE(scaler.scaleOuts(), 1u);
    EXPECT_GE(cluster.activeServers(), 2u);
}

TEST(AutoScaler, AttachPublishesCountersGaugesAndTraceEvents)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    cp.kappa = 0.9;
    workload::QueueingCluster cluster(sim, util::Rng(2), cp);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcE;
    AutoScaler scaler(sim, cluster, config);
    obs::MetricRegistry registry;
    obs::EventTracer tracer;
    tracer.enable([&sim] { return sim.now(); });
    scaler.attach({.metrics = &registry, .tracer = &tracer});
    scaler.start();
    EXPECT_THROW(scaler.attach({}), FatalError);
    cluster.setArrivalRate(1100.0); // ~72 % of one VM.
    sim.runUntil(600.0);

    // OC-E overclocks for every scale-out and drops back after it.
    ASSERT_GE(scaler.scaleOuts(), 1u);
    EXPECT_EQ(registry.counter("autoscaler.scale_outs").value(),
              scaler.scaleOuts());
    EXPECT_EQ(registry.counter("autoscaler.scale_ins").value(),
              scaler.scaleIns());
    EXPECT_GE(registry.counter("autoscaler.freq_changes").value(), 2u);
    EXPECT_DOUBLE_EQ(registry.gauge("autoscaler.vms").value(),
                     static_cast<double>(cluster.activeServers()));
    EXPECT_DOUBLE_EQ(registry.gauge("autoscaler.frequency_ghz").value(),
                     scaler.fleetFrequency());
    std::size_t scale_out_events = 0;
    std::size_t freq_events = 0;
    for (const obs::TraceEvent &event : tracer.events()) {
        EXPECT_EQ(event.cat, "autoscale");
        scale_out_events += event.name == "scale_out" ? 1 : 0;
        freq_events += event.name == "freq_change" ? 1 : 0;
    }
    EXPECT_EQ(scale_out_events, scaler.scaleOuts());
    EXPECT_EQ(freq_events,
              registry.counter("autoscaler.freq_changes").value());
}

TEST(AutoScaler, ScaleOutTakesSixtySeconds)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(3), cp);
    cluster.addServer(3.4);
    AutoScaler scaler(sim, cluster, {});
    scaler.start();
    cluster.setArrivalRate(1200.0);
    // Find the decision tick where the scale-out triggered and check the
    // VM arrives ~60 s later.
    Seconds triggered = -1.0;
    sim.runUntil(1200.0);
    for (const auto &point : scaler.trace()) {
        if (point.scaleOutPending) {
            triggered = point.time;
            break;
        }
    }
    ASSERT_GT(triggered, 0.0);
    // The cluster had 1 server until trigger + 60 s.
    for (const auto &point : scaler.trace()) {
        if (point.time < triggered + 59.0) {
            EXPECT_EQ(point.vms, 1u) << "at " << point.time;
        }
    }
}

TEST(AutoScaler, ScalesInWhenIdle)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(4), cp);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    AutoScaler scaler(sim, cluster, {});
    scaler.start();
    cluster.setArrivalRate(200.0); // ~4 % utilization.
    sim.runUntil(600.0);
    EXPECT_GE(scaler.scaleIns(), 1u);
    EXPECT_LT(cluster.activeServers(), 3u);
}

TEST(AutoScaler, NeverBelowMinOrAboveMax)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(5), cp);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.maxVms = 2;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(4000.0);
    sim.runUntil(900.0);
    EXPECT_LE(cluster.activeServers(), 2u);
    cluster.setArrivalRate(1.0);
    sim.runUntil(1800.0);
    EXPECT_GE(cluster.activeServers(), config.minVms);
}

TEST(AutoScaler, OcaScalesUpBeforeScalingOut)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    cp.kappa = 0.9;
    workload::QueueingCluster cluster(sim, util::Rng(6), cp);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcA;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    // Load in the scale-up band (util ~44 % at 3.4 GHz on 2 VMs) that
    // overclocking can bring under the 40 % threshold.
    cluster.setArrivalRate(1350.0);
    sim.runUntil(600.0);
    EXPECT_GT(scaler.fleetFrequency(), 3.4);
    EXPECT_EQ(scaler.scaleOuts(), 0u);
    EXPECT_EQ(cluster.activeServers(), 2u);
}

TEST(AutoScaler, OcaScalesBackDownWhenLoadDrops)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(7), cp);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcA;
    config.scaleOutEnabled = false;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(1350.0);
    sim.runUntil(300.0);
    EXPECT_GT(scaler.fleetFrequency(), 3.4);
    cluster.setArrivalRate(200.0);
    sim.runUntil(600.0);
    EXPECT_NEAR(scaler.fleetFrequency(), 3.4, 1e-9);
}

TEST(AutoScaler, OcEOverclocksOnlyDuringScaleOut)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(8), cp);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcE;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(1200.0);
    sim.runUntil(1200.0);
    // During scale-out windows the fleet ran at max; afterwards at base.
    bool saw_overclocked_pending = false;
    for (const auto &point : scaler.trace()) {
        if (point.scaleOutPending) {
            EXPECT_DOUBLE_EQ(point.frequency, 4.1);
            saw_overclocked_pending = true;
        }
    }
    EXPECT_TRUE(saw_overclocked_pending);
    EXPECT_DOUBLE_EQ(scaler.fleetFrequency(), 3.4);
}

TEST(AutoScaler, CounterBaselinesArePrunedWithTheFleet)
{
    // Regression: measureScalableFraction() kept a counter baseline per
    // server id forever, so scaled-in or crashed servers leaked entries
    // (and a later re-activated id reused a stale baseline).
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(31), cp);
    for (int i = 0; i < 3; ++i)
        cluster.addServer(3.4);
    AutoScaler scaler(sim, cluster, {});
    cluster.setArrivalRate(600.0);
    sim.runUntil(10.0);

    scaler.measureScalableFraction();
    EXPECT_EQ(scaler.trackedCounterServers(), 3u);

    cluster.crashServer(2);
    scaler.invalidateServerCounters(2);
    EXPECT_EQ(scaler.trackedCounterServers(), 2u);

    // Scale-in without an explicit invalidation: the next measurement
    // prunes the now-inactive id on its own.
    cluster.removeServer();
    scaler.measureScalableFraction();
    EXPECT_EQ(scaler.trackedCounterServers(), 1u);
    cluster.setArrivalRate(0.0);
}

TEST(AutoScaler, FrequencyCeilingCapsOcaScaleUp)
{
    // A cooling-derate ceiling keeps OC-A from overclocking past what
    // the degraded tank can absorb, and lifting it restores the range.
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    cp.kappa = 0.9;
    workload::QueueingCluster cluster(sim, util::Rng(32), cp);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcA;
    config.maxVms = 2;
    AutoScaler scaler(sim, cluster, config);
    scaler.setFrequencyCeiling(3.7);
    scaler.start();
    cluster.setArrivalRate(4000.0); // Wants every bit of headroom.
    sim.runUntil(300.0);
    EXPECT_LE(scaler.fleetFrequency(), 3.7 + 1e-9);
    for (const auto &point : scaler.trace())
        EXPECT_LE(point.frequency, 3.7 + 1e-9);

    scaler.setFrequencyCeiling(config.maxFrequency);
    sim.runUntil(600.0);
    EXPECT_GT(scaler.fleetFrequency(), 3.7);
    cluster.setArrivalRate(0.0);
}

TEST(AutoScaler, LoweringTheCeilingDeratesTheFleetImmediately)
{
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(33), cp);
    cluster.addServer(3.4);
    AutoScalerConfig config;
    config.policy = Policy::OcA;
    AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(2500.0);
    sim.runUntil(120.0);
    ASSERT_GT(scaler.fleetFrequency(), 3.6); // Overclocked by now.

    scaler.setFrequencyCeiling(3.5);
    // No decision tick needed: the clamp lands on the spot.
    EXPECT_LE(scaler.fleetFrequency(), 3.5 + 1e-9);
    EXPECT_DOUBLE_EQ(cluster.frequency(0), scaler.fleetFrequency());
    cluster.setArrivalRate(0.0);
}

// --- Canned experiments ---------------------------------------------------------

TEST(Experiment, ValidationKeepsUtilizationNearThreshold)
{
    // Fig. 15: with frequency scaling, the model finds frequencies that
    // pull utilization back toward the 40 % threshold on the 2000 QPS
    // step, which the flat baseline cannot.
    const auto scaled = autoscale::runValidationExperiment(true);
    const auto flat = autoscale::runValidationExperiment(false);

    double max_util_scaled = 0.0;
    double max_freq = 0.0;
    for (const auto &point : scaled.trace) {
        max_util_scaled = std::max(max_util_scaled, point.util30);
        max_freq = std::max(max_freq, point.frequency);
    }
    EXPECT_GT(max_freq, 3.4); // It did scale up.

    // During the 2000 QPS step (600-900 s), the scaled run's late-step
    // utilization sits below the flat baseline's.
    auto util_at = [](const autoscale::AutoScaleOutcome &outcome,
                      Seconds lo, Seconds hi) {
        double total = 0.0;
        int count = 0;
        for (const auto &point : outcome.trace) {
            if (point.time >= lo && point.time <= hi) {
                total += point.util30;
                ++count;
            }
        }
        return count ? total / count : 0.0;
    };
    EXPECT_LT(util_at(scaled, 450.0, 600.0), util_at(flat, 450.0, 600.0));
    EXPECT_EQ(scaled.maxVms, 3u); // Scale-out was disabled.
}

TEST(Experiment, FullRunTableXiShape)
{
    // Table XI's qualitative shape on a shortened staircase: both
    // overclocking policies beat the baseline tail, and OC-A uses the
    // fewest VM-hours.
    const auto baseline =
        autoscale::runFullExperiment(Policy::Baseline, fastParams(21));
    const auto oce = autoscale::runFullExperiment(Policy::OcE,
                                                  fastParams(21));
    const auto oca = autoscale::runFullExperiment(Policy::OcA,
                                                  fastParams(21));

    EXPECT_LT(oce.p95Latency, baseline.p95Latency);
    EXPECT_LT(oca.p95Latency, baseline.p95Latency);
    EXPECT_LT(oca.vmHours, baseline.vmHours);
    EXPECT_LE(oca.maxVms, baseline.maxVms);
    // Overclocking draws more power per VM.
    EXPECT_GT(oca.avgPowerPerVm, baseline.avgPowerPerVm);
    EXPECT_GT(oce.avgFrequency, baseline.avgFrequency - 1e-9);
}

TEST(Experiment, PolicyNames)
{
    EXPECT_EQ(autoscale::policyName(Policy::Baseline), "Baseline");
    EXPECT_EQ(autoscale::policyName(Policy::OcE), "OC-E");
    EXPECT_EQ(autoscale::policyName(Policy::OcA), "OC-A");
}

} // namespace
} // namespace imsim
