/**
 * @file
 * Edge-case and failure-injection tests across modules: degenerate
 * inputs, mid-run faults, boundary values, the CLI parser, the custom
 * experiment API, and the umbrella header's compilability.
 */

#include <gtest/gtest.h>

#include "imsim.hh"

namespace imsim {
namespace {

// --- CLI parser -----------------------------------------------------------------

TEST(Cli, ParsesFlagsValuesAndPositionals)
{
    const char *argv[] = {"prog", "--csv", "--seed", "42",
                          "--rate=3.5", "input.txt"};
    util::Cli cli(6, argv);
    EXPECT_EQ(cli.program(), "prog");
    EXPECT_TRUE(cli.has("--csv"));
    EXPECT_FALSE(cli.has("--json"));
    EXPECT_EQ(cli.getInt("--seed", 0), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("--rate", 0.0), 3.5);
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(Cli, FallbacksWhenAbsent)
{
    const char *argv[] = {"prog"};
    util::Cli cli(1, argv);
    EXPECT_EQ(cli.getInt("--seed", 7), 7);
    EXPECT_DOUBLE_EQ(cli.getDouble("--rate", 1.5), 1.5);
    EXPECT_EQ(cli.get("--name", "default"), "default");
}

TEST(Cli, NonNumericValueIsFatal)
{
    const char *argv[] = {"prog", "--seed", "abc"};
    util::Cli cli(3, argv);
    EXPECT_THROW(cli.getInt("--seed", 0), FatalError);
    EXPECT_THROW(cli.getDouble("--seed", 0.0), FatalError);
}

TEST(Cli, BooleanFlagBeforeAnotherFlag)
{
    const char *argv[] = {"prog", "--csv", "--seed=3"};
    util::Cli cli(3, argv);
    EXPECT_TRUE(cli.has("--csv"));
    EXPECT_EQ(cli.get("--csv"), "");
    EXPECT_EQ(cli.getInt("--seed", 0), 3);
}

// --- Custom auto-scale experiment (down-ramp) -------------------------------------

TEST(CustomExperiment, DownRampScalesInAndRelaxesFrequency)
{
    // Decreasing staircase: the fleet sheds VMs and OC-A relaxes to the
    // base clock.
    autoscale::ExperimentParams params;
    params.stepDuration = 240.0;
    const std::vector<double> levels{3000.0, 2000.0, 1000.0, 400.0,
                                     200.0};
    const auto outcome = autoscale::runCustomExperiment(
        autoscale::Policy::OcA, levels, 5, params);
    ASSERT_FALSE(outcome.trace.empty());
    const auto &last = outcome.trace.back();
    EXPECT_LT(last.vms, 5u);
    EXPECT_NEAR(last.frequency, 3.4, 1e-9);
    EXPECT_GT(outcome.requests, 100000u);
}

TEST(CustomExperiment, SpikeAbsorbedByOcA)
{
    // A 2-minute spike inside a calm run: OC-A rides it at higher
    // frequency without creating a VM; the baseline scales out.
    autoscale::ExperimentParams params;
    params.stepDuration = 120.0;
    const std::vector<double> levels{600.0, 1500.0, 600.0, 600.0};
    const auto oca = autoscale::runCustomExperiment(
        autoscale::Policy::OcA, levels, 1, params);
    const auto base = autoscale::runCustomExperiment(
        autoscale::Policy::Baseline, levels, 1, params);
    EXPECT_LE(oca.maxVms, base.maxVms);
    EXPECT_LE(oca.p95Latency, base.p95Latency * 1.02);
}

TEST(CustomExperiment, InvalidInputsAreFatal)
{
    EXPECT_THROW(autoscale::runCustomExperiment(
                     autoscale::Policy::Baseline, {}, 1),
                 FatalError);
    EXPECT_THROW(autoscale::runCustomExperiment(
                     autoscale::Policy::Baseline, {100.0}, 0),
                 FatalError);
}

// --- Failure injection ---------------------------------------------------------------

TEST(FailureInjection, EventExceptionPropagatesAndKernelSurvives)
{
    sim::Simulation sim;
    bool later_fired = false;
    sim.at(1.0, [] { util::fatal("injected fault"); });
    sim.at(2.0, [&] { later_fired = true; });
    EXPECT_THROW(sim.run(), FatalError);
    // The kernel is still usable after the exception.
    EXPECT_NO_THROW(sim.run());
    EXPECT_TRUE(later_fired);
}

TEST(FailureInjection, TankOverloadDetectedNotSilent)
{
    auto tank = thermal::makeSmallTank1();
    tank.setHeatLoad(0, 2900.0);
    tank.setHeatLoad(1, 2900.0);
    EXPECT_FALSE(tank.condenserKeepsUp());
    EXPECT_LT(tank.headroom(), 0.0);
}

TEST(FailureInjection, WatchdogStormForcesControllerBackoff)
{
    auto cpu = hw::CpuModel::xeonW3175x();
    cpu.applyConfig(hw::cpuConfig("OC1"));
    thermal::TwoPhaseImmersionCooling cooling(thermal::hfe7000());
    reliability::LifetimeModel lifetime;
    reliability::WearTracker tracker(lifetime, 5.0);
    reliability::ErrorRateWatchdog watchdog(3600.0, 10.0);
    power::RaplCapper budget(500.0);
    core::OverclockController controller(cpu, cooling, tracker, watchdog,
                                         budget);

    // Healthy at first...
    EXPECT_TRUE(controller.request(4.1, 1.0, 0.5, 0.0).approved);
    // ...then an error storm (the stability model at negative margin).
    reliability::StabilityModel part = reliability::StabilityModel::tank2Part();
    util::Rng rng(3);
    std::int64_t cumulative = 0;
    for (int minute = 0; minute <= 30; ++minute) {
        cumulative += part.sampleErrors(rng, 1.0 / 60.0, -30.0);
        watchdog.record(minute * 60.0, cumulative);
    }
    EXPECT_FALSE(controller.request(4.1, 1.0, 0.5, 1800.0).approved);
}

TEST(FailureInjection, QueueDrainsAfterServerFlap)
{
    // Remove and re-add capacity mid-overload; the system recovers.
    sim::Simulation sim;
    workload::QueueingCluster::Params params;
    params.serviceMean = 2.6e-3;
    workload::QueueingCluster cluster(sim, util::Rng(5), params);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(2500.0);
    sim.runUntil(30.0);
    cluster.removeServer(); // Flap: drop to one server under overload.
    sim.runUntil(60.0);
    EXPECT_GT(cluster.queueDepth(), 0u);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(300.0);
    sim.runUntil(200.0);
    EXPECT_EQ(cluster.queueDepth(), 0u);
}

TEST(FailureInjection, BudgetBrownoutRefusedLoudly)
{
    power::PowerBudget budget(1000.0);
    std::vector<power::PowerConsumer> consumers{
        {900.0, 700.0, 1}, {900.0, 700.0, 1}};
    EXPECT_THROW(budget.allocate(consumers), FatalError);
}

// --- Boundary values --------------------------------------------------------------

TEST(Boundary, PercentileWithDuplicateSamples)
{
    util::PercentileEstimator est;
    for (int i = 0; i < 100; ++i)
        est.add(5.0);
    EXPECT_DOUBLE_EQ(est.p50(), 5.0);
    EXPECT_DOUBLE_EQ(est.p99(), 5.0);
}

TEST(Boundary, TurboGovernorSingleCorePart)
{
    // A 1-core governor must not divide by zero in the droop math.
    hw::TurboGovernor governor(1, 1.0, 2.0, 3.0, 3.0, 3.5, 50.0);
    EXPECT_DOUBLE_EQ(governor.turboCeiling(1), 3.0);
    EXPECT_THROW(governor.turboCeiling(2), FatalError);
}

TEST(Boundary, ZeroActivityPowerIsLeakageOnly)
{
    auto cpu = hw::CpuModel::xeonW3175x();
    thermal::TwoPhaseImmersionCooling cooling(thermal::hfe7000());
    const auto breakdown = cpu.power(cooling, 0.0);
    EXPECT_DOUBLE_EQ(breakdown.core, 0.0);
    EXPECT_GT(breakdown.leakage, 0.0);
    // Uncore/memory keep their idle floors.
    EXPECT_GT(breakdown.uncore, 0.0);
}

TEST(Boundary, LifetimeAtExactAnchorVoltages)
{
    // The V-f curve floor and the anchor voltages hit no singularities.
    reliability::LifetimeModel model;
    reliability::StressCondition cond{0.70, 40.0, 35.0, 0.6, 1.0};
    EXPECT_GT(model.lifetime(cond), 10.0);
    cond.voltage = 1.10;
    cond.tjMax = 105.0;
    cond.freqRatio = 1.4;
    EXPECT_LT(model.lifetime(cond), 1.0);
}

TEST(Boundary, EmptyTraceIsFatalInOpportunityAnalysis)
{
    const auto governor = hw::TurboGovernor::skylake8180();
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    thermal::AirCooling air;
    EXPECT_THROW(workload::analyzeOpportunity(governor, socket, air, {}),
                 FatalError);
}

TEST(Boundary, StreamAtExtremeClocksStaysFinite)
{
    workload::StreamModel model;
    const GBps tiny =
        model.bandwidth(workload::StreamKernel::Triad, {0.5, 0.5, 0.5});
    const GBps huge =
        model.bandwidth(workload::StreamKernel::Triad, {10.0, 10.0, 10.0});
    EXPECT_GT(tiny, 0.0);
    EXPECT_GT(huge, tiny);
    EXPECT_LT(huge, 500.0); // The harmonic model saturates sanely.
}

TEST(Boundary, MigrationOfTinyVmIsFast)
{
    cluster::MigrationParams params;
    params.memoryGb = 0.5;
    const auto est = cluster::MigrationModel(params).estimate();
    EXPECT_LT(est.totalTime, 2.0);
    EXPECT_GE(est.rounds, 1);
}

} // namespace
} // namespace imsim
