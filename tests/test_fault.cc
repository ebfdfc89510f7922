/**
 * @file
 * Unit tests for the fault-injection subsystem: FaultPlan validation,
 * the injector's typed faults against cluster/tank/feed, seeded
 * kAnyServer victim choice, the invariant checker, and the
 * capacity-crisis experiment's reproducibility and qualitative outcome.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "fault/experiment.hh"
#include "fault/injector.hh"
#include "fault/invariants.hh"
#include "fault/plan.hh"
#include "obs/obs.hh"
#include "power/capping.hh"
#include "sim/simulation.hh"
#include "thermal/cooling.hh"
#include "thermal/tank.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace {

using fault::Fault;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InvariantChecker;
using fault::kAnyServer;

// --- FaultPlan validation ------------------------------------------------

TEST(FaultPlan, RejectsBadScriptedFaults)
{
    FaultPlan plan;
    EXPECT_THROW(plan.at(-1.0, Fault{FaultKind::ServerCrash}), FatalError);
    // Cooling level must lie in [0.05, 1): 0 would boil the tank dry,
    // 1 is not a degradation.
    EXPECT_THROW(
        plan.at(0.0, Fault{FaultKind::CoolingDegrade, kAnyServer, 0.0}),
        FatalError);
    EXPECT_THROW(
        plan.at(0.0, Fault{FaultKind::CoolingDegrade, kAnyServer, 1.0}),
        FatalError);
    // Feed fraction must lie in (0, 1).
    EXPECT_THROW(
        plan.at(0.0, Fault{FaultKind::PowerDerate, kAnyServer, 0.0}),
        FatalError);
    EXPECT_THROW(
        plan.at(0.0, Fault{FaultKind::PowerDerate, kAnyServer, 1.0}),
        FatalError);
}

TEST(FaultPlan, EmptinessAndChaining)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());

    plan.at(1.0, Fault{FaultKind::ServerCrash, 0})
        .at(2.0, Fault{FaultKind::ServerRepair, 0});
    EXPECT_FALSE(plan.empty());
    ASSERT_EQ(plan.scripted().size(), 2u);
    EXPECT_EQ(plan.scripted()[0].second.kind, FaultKind::ServerCrash);
    EXPECT_EQ(plan.scripted()[1].second.kind, FaultKind::ServerRepair);
}

// --- Scripted faults through the cluster ---------------------------------

TEST(FaultInjector, ScriptedCrashAndRepair)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(7), {});
    cluster.addServer(3.4);
    cluster.addServer(3.4);

    FaultInjector injector(sim, util::Rng(8));
    injector.attachCluster(cluster);
    injector.start(FaultPlan()
                       .at(1.0, Fault{FaultKind::ServerCrash, 0})
                       .at(2.0, Fault{FaultKind::ServerRepair, 0}));

    bool down_midway = false;
    sim.at(1.5, [&] {
        down_midway = cluster.isCrashed(0) && cluster.activeServers() == 1;
        EXPECT_EQ(injector.serversDown(), 1u);
    });
    sim.runUntil(3.0);

    EXPECT_TRUE(down_midway);
    EXPECT_FALSE(cluster.isCrashed(0));
    EXPECT_EQ(cluster.activeServers(), 2u);
    EXPECT_EQ(injector.serversDown(), 0u);
    ASSERT_EQ(injector.timeline().size(), 2u);
    EXPECT_DOUBLE_EQ(injector.timeline()[0].time, 1.0);
    EXPECT_EQ(injector.timeline()[0].kind, FaultKind::ServerCrash);
    EXPECT_EQ(injector.timeline()[0].target, 0u);
    EXPECT_DOUBLE_EQ(injector.timeline()[1].time, 2.0);
    EXPECT_EQ(injector.timeline()[1].kind, FaultKind::ServerRepair);
}

TEST(FaultInjector, AnyServerPicksAnActiveVictimAndRepairsFifo)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(9), {});
    for (int i = 0; i < 3; ++i)
        cluster.addServer(3.4);

    FaultInjector injector(sim, util::Rng(10));
    injector.attachCluster(cluster);
    injector.start(FaultPlan()
                       .at(1.0, Fault{FaultKind::ServerCrash, 0})
                       .at(2.0, Fault{FaultKind::ServerCrash, 1})
                       .at(3.0, Fault{FaultKind::ServerRepair}));

    sim.at(3.5, [&] {
        // Repairs with no target are FIFO: the first crash heals first.
        EXPECT_FALSE(cluster.isCrashed(0));
        EXPECT_TRUE(cluster.isCrashed(1));
    });
    sim.runUntil(4.0);

    // A random crash on the one-survivor fleet still finds a victim.
    injector.inject(Fault{FaultKind::ServerCrash});
    EXPECT_EQ(cluster.crashedServers(), 2u);
}

TEST(FaultInjector, FaultsWithoutAttachedSubsystemsAreFatal)
{
    sim::Simulation sim;
    FaultInjector injector(sim, util::Rng(11));
    EXPECT_THROW(injector.inject(Fault{FaultKind::ServerCrash, 0}),
                 FatalError);
    EXPECT_THROW(
        injector.inject(Fault{FaultKind::CoolingDegrade, kAnyServer, 0.5}),
        FatalError);
    EXPECT_THROW(
        injector.inject(Fault{FaultKind::PowerDerate, kAnyServer, 0.5}),
        FatalError);

    injector.start(FaultPlan());
    EXPECT_THROW(injector.start(FaultPlan()), FatalError);
}

TEST(FaultInjector, StopCancelsPendingFaults)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(12), {});
    cluster.addServer(3.4);

    FaultInjector injector(sim, util::Rng(13));
    injector.attachCluster(cluster);
    injector.start(FaultPlan().at(1.0, Fault{FaultKind::ServerCrash, 0}));
    injector.stop();
    sim.runUntil(2.0);

    EXPECT_TRUE(injector.timeline().empty());
    EXPECT_FALSE(cluster.isCrashed(0));
}

// --- Seeded victim choice ------------------------------------------------

namespace {

/** Five kAnyServer crashes with two FIFO repairs among them. */
std::vector<fault::InjectedFault>
runAnyServerCrashes(std::uint64_t seed)
{
    sim::Simulation sim;
    util::Rng rng(seed);
    workload::QueueingCluster cluster(sim, rng.child(), {});
    for (int i = 0; i < 8; ++i)
        cluster.addServer(3.4);

    FaultInjector injector(sim, rng.child());
    injector.attachCluster(cluster);
    FaultPlan plan;
    for (int i = 1; i <= 5; ++i)
        plan.at(static_cast<double>(i), Fault{FaultKind::ServerCrash});
    plan.at(2.5, Fault{FaultKind::ServerRepair})
        .at(4.5, Fault{FaultKind::ServerRepair});
    injector.start(plan);
    sim.runUntil(10.0);
    EXPECT_EQ(injector.serversDown(), 3u);
    return injector.timeline();
}

} // namespace

TEST(FaultInjector, AnyServerVictimsAreSeeded)
{
    const auto a = runAnyServerCrashes(21);
    const auto b = runAnyServerCrashes(21);
    const auto c = runAnyServerCrashes(22);

    ASSERT_EQ(a.size(), 7u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
    }
    // A different seed picks different victims.
    ASSERT_EQ(c.size(), a.size());
    bool differs = false;
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].target != c[i].target;
    EXPECT_TRUE(differs);
}

// --- Cooling faults ------------------------------------------------------

TEST(FaultInjector, CoolingDegradeDeratesTheFrequencyCeiling)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(31), {});
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    autoscale::AutoScalerConfig cfg;
    cfg.maxFrequency = 4.1;
    autoscale::AutoScaler scaler(sim, cluster, cfg);

    // Linear toy power model (100 W per GHz per server): a full tank
    // absorbs 760 W per server (well above 4.1 GHz's 410 W); at half
    // fluid each of the two servers gets 380 W, i.e. exactly 3.8 GHz.
    thermal::ImmersionTank tank("t", thermal::hfe7000(), 2, 1520.0);
    FaultInjector injector(sim, util::Rng(32));
    injector.attachCluster(cluster);
    injector.attachAutoScaler(scaler);
    injector.attachTank(tank, [](GHz f) { return 100.0 * f; });

    injector.inject(Fault{FaultKind::CoolingDegrade, kAnyServer, 0.5});
    EXPECT_DOUBLE_EQ(tank.fluidLevel(), 0.5);
    EXPECT_DOUBLE_EQ(tank.effectiveCondenserCapacity(), 760.0);
    EXPECT_NEAR(scaler.frequencyCeiling(), 3.8, 1e-6);

    injector.inject(Fault{FaultKind::CoolingRestore});
    EXPECT_DOUBLE_EQ(tank.fluidLevel(), 1.0);
    EXPECT_DOUBLE_EQ(scaler.frequencyCeiling(), cfg.maxFrequency);

    // A loss so deep even the base clock does not fit still floors the
    // ceiling at the base frequency rather than below it.
    injector.inject(Fault{FaultKind::CoolingDegrade, kAnyServer, 0.1});
    EXPECT_DOUBLE_EQ(scaler.frequencyCeiling(), cfg.baseFrequency);

    ASSERT_EQ(injector.timeline().size(), 3u);
    EXPECT_EQ(injector.timeline().front().kind, FaultKind::CoolingDegrade);
    EXPECT_DOUBLE_EQ(injector.timeline().front().magnitude, 0.5);
}

TEST(FaultInjector, FrequencyCeilingClampsTheFleet)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(33), {});
    cluster.addServer(4.1);
    autoscale::AutoScalerConfig cfg;
    autoscale::AutoScaler scaler(sim, cluster, cfg);

    EXPECT_THROW(scaler.setFrequencyCeiling(3.0), FatalError); // < base.
    scaler.setFrequencyCeiling(5.0); // Clamped to the configured max.
    EXPECT_DOUBLE_EQ(scaler.frequencyCeiling(), cfg.maxFrequency);
}

// --- Power-feed faults ---------------------------------------------------

TEST(FaultInjector, PowerDerateBrownsOutRecoverably)
{
    sim::Simulation sim;
    power::PowerBudget feed(1000.0);
    FaultInjector injector(sim, util::Rng(41));
    injector.attachPowerBudget(feed);

    const std::vector<power::PowerConsumer> consumers{
        {300.0, 300.0, 0}, {300.0, 300.0, 0}};

    injector.inject(Fault{FaultKind::PowerDerate, kAnyServer, 0.4});
    EXPECT_DOUBLE_EQ(feed.capacity(), 400.0);
    // Even the floors (600 W) breach the derated feed: a recoverable
    // brownout scales every minimum uniformly to fit.
    feed.allocate(consumers, true);
    EXPECT_EQ(feed.brownouts(), 1u);
    EXPECT_DOUBLE_EQ(feed.granted()[0], 200.0);
    EXPECT_DOUBLE_EQ(feed.granted()[1], 200.0);
    EXPECT_TRUE(feed.capped()[0]);
    EXPECT_TRUE(feed.capped()[1]);

    injector.inject(Fault{FaultKind::PowerRestore});
    EXPECT_DOUBLE_EQ(feed.capacity(), 1000.0);
    feed.allocate(consumers, true);
    EXPECT_EQ(feed.brownouts(), 1u); // Restored feed fits: no new event.
    EXPECT_DOUBLE_EQ(feed.granted()[0], 300.0);
    EXPECT_FALSE(feed.capped()[0]);
}

// --- Invariant checker ---------------------------------------------------

TEST(InvariantChecker, CountsChecksAndRecordsViolations)
{
    sim::Simulation sim;
    InvariantChecker checker(sim);
    checker.addCheck("always", [] { return true; });
    checker.addCheck("never", [] { return false; });
    EXPECT_THROW(checker.addCheck("empty", {}), FatalError);

    checker.evaluate();
    EXPECT_EQ(checker.checksRun(), 2u);
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].check, "never");

    checker.start(1.0);
    sim.runUntil(3.5);
    checker.stop();
    EXPECT_GT(checker.checksRun(), 2u);
    EXPECT_GT(checker.violations().size(), 1u);
}

TEST(InvariantChecker, WatchTankDetectsAnOverloadedCondenser)
{
    sim::Simulation sim;
    thermal::ImmersionTank tank("t", thermal::hfe7000(), 1, 100.0);
    InvariantChecker checker(sim);
    checker.watchTank(tank);

    tank.setHeatLoad(0, 90.0);
    checker.evaluate();
    EXPECT_TRUE(checker.violations().empty());

    tank.setFluidLevel(0.5); // 90 W load vs 50 W effective capacity.
    checker.evaluate();
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].check, "tank.condenser_keeps_up");
}

TEST(InvariantChecker, WatchClusterHoldsThroughCrashAndRepair)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(51), {});
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(300.0);

    InvariantChecker checker(sim);
    checker.watchCluster(cluster);
    checker.start(0.5);

    FaultInjector injector(sim, util::Rng(52));
    injector.attachCluster(cluster);
    injector.start(FaultPlan()
                       .at(2.0, Fault{FaultKind::ServerCrash, 1})
                       .at(4.0, Fault{FaultKind::ServerRepair, 1}));
    sim.runUntil(6.0);
    cluster.setArrivalRate(0.0);

    EXPECT_GT(checker.checksRun(), 0u);
    EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantChecker, WatchBudgetReadsTheLatestGrants)
{
    sim::Simulation sim;
    power::PowerBudget feed(1000.0);
    InvariantChecker checker(sim);
    checker.watchBudget(feed);

    feed.allocate({{400.0, 100.0, 0}, {400.0, 100.0, 0}});
    checker.evaluate();
    EXPECT_TRUE(checker.violations().empty());

    // A derate lands between allocations: the 800 W granted last no
    // longer fits the 500 W feed until the next allocation.
    feed.setCapacity(500.0);
    checker.evaluate();
    ASSERT_EQ(checker.violations().size(), 1u);
    EXPECT_EQ(checker.violations()[0].check, "feed.granted_within_capacity");
    feed.allocate({{400.0, 100.0, 0}, {400.0, 100.0, 0}});
    checker.evaluate();
    EXPECT_EQ(checker.violations().size(), 1u);

    // Servers gone: the grants shrink with the consumer set.
    feed.allocate({{400.0, 100.0, 0}});
    feed.setCapacity(450.0);
    checker.evaluate();
    feed.allocate({});
    feed.setCapacity(1.0);
    checker.evaluate();
    EXPECT_EQ(checker.violations().size(), 1u);
}

// --- One observer bundle -------------------------------------------------

TEST(Observers, OneBundleReachesWatchdogInjectorAndChecker)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(7), {});
    cluster.addServer(3.4);
    cluster.addServer(3.4);

    obs::MetricRegistry registry;
    obs::EventTracer tracer;
    tracer.enable([&sim] { return sim.now(); });
    obs::IncidentLog incidents;
    obs::FlightRecorder recorder;
    const obs::Observers bundle{&registry, &tracer, &incidents, &recorder};

    // Pages while any server is down.
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "servers_down";
    rule.signal = [&cluster] {
        return static_cast<double>(cluster.crashedServers());
    };
    rule.fireThreshold = 1.0;
    rule.clearThreshold = 0.0;
    watchdog.addRule(rule);
    FaultInjector injector(sim, util::Rng(8));
    injector.attachCluster(cluster);
    InvariantChecker checker(sim);
    checker.addCheck("no_crash",
                     [&cluster] { return cluster.crashedServers() == 0; });

    watchdog.attach(bundle);
    injector.attach(bundle);
    checker.attach(bundle);
    injector.start(FaultPlan()
                       .at(1.0, Fault{FaultKind::ServerCrash, 0})
                       .at(2.0, Fault{FaultKind::ServerRepair, 0}));
    sim.every(0.5, [&] { watchdog.evaluate(sim.now()); });
    checker.start(1.5); // Ticks at 1.5 (one server down) and 3.0.
    sim.runUntil(3.0);

    // Metrics.
    EXPECT_EQ(registry.counter("fault.server_crashes").value(), 1u);
    EXPECT_EQ(registry.counter("fault.server_repairs").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("fault.servers_down").value(), 0.0);
    EXPECT_EQ(registry.counter("invariant.checks").value(), 2u);
    EXPECT_EQ(registry.counter("invariant.violations").value(), 1u);
    EXPECT_EQ(registry.counter("watchdog.raised").value(), 1u);
    EXPECT_EQ(registry.counter("watchdog.cleared").value(), 1u);

    // The injector's instant trace event, at the crash instant.
    const obs::TraceEvent *crash = nullptr;
    for (const obs::TraceEvent &event : tracer.events()) {
        if (event.name == "server_crash")
            crash = &event;
    }
    ASSERT_NE(crash, nullptr);
    EXPECT_EQ(crash->cat, "fault");
    EXPECT_EQ(crash->phase, 'i');
    EXPECT_DOUBLE_EQ(crash->tsUs, 1e6);

    // The incident log's fault notes; the page adopted the crash.
    ASSERT_EQ(incidents.faults().size(), 2u);
    EXPECT_DOUBLE_EQ(incidents.faults()[0].t, 1.0);
    EXPECT_EQ(incidents.faults()[0].label, "server_crash#0");
    EXPECT_EQ(incidents.faults()[1].label, "server_repair#0");
    ASSERT_EQ(incidents.incidents().size(), 1u);
    ASSERT_FALSE(incidents.incidents()[0].faults.empty());
    EXPECT_EQ(incidents.incidents()[0].faults[0].label, "server_crash#0");

    // The recorder's fault, alert and violation events.
    using Noted = std::pair<obs::BlackboxEventKind, std::string>;
    std::vector<Noted> noted;
    for (const obs::BlackboxEvent &event : recorder.events())
        noted.emplace_back(event.kind, event.label);
    const std::vector<Noted> want{
        {obs::BlackboxEventKind::Fault, "server_crash#0"},
        {obs::BlackboxEventKind::AlertRaise, "servers_down"},
        {obs::BlackboxEventKind::Violation, "no_crash"},
        {obs::BlackboxEventKind::Fault, "server_repair#0"},
        {obs::BlackboxEventKind::AlertClear, "servers_down"}};
    EXPECT_EQ(noted, want);

    // attach({}) stops every further publication.
    watchdog.attach({});
    injector.attach({});
    checker.attach({});
    const std::size_t trace_events = tracer.size();
    const std::uint64_t recorder_events = recorder.eventsNoted();
    injector.inject(Fault{FaultKind::ServerCrash, 1});
    watchdog.evaluate(4.0);
    checker.evaluate();
    EXPECT_EQ(watchdog.raisedCount(), 2u);
    EXPECT_EQ(checker.violations().size(), 2u);
    EXPECT_EQ(registry.counter("fault.server_crashes").value(), 1u);
    EXPECT_EQ(registry.counter("invariant.checks").value(), 2u);
    EXPECT_EQ(registry.counter("invariant.violations").value(), 1u);
    EXPECT_EQ(registry.counter("watchdog.raised").value(), 1u);
    EXPECT_EQ(tracer.size(), trace_events);
    EXPECT_EQ(incidents.faults().size(), 2u);
    EXPECT_EQ(incidents.incidents().size(), 1u);
    EXPECT_EQ(recorder.eventsNoted(), recorder_events);
}

// --- The capacity-crisis experiment --------------------------------------

namespace {

fault::CrisisParams
miniCrisis()
{
    // A deliberately small instance (seconds of wall time): three
    // servers at ~63% utilization, one crash, short windows.
    fault::CrisisParams params;
    params.fleetSize = 3;
    params.qps = 1500.0;
    params.serviceMean = 5e-3;
    params.warmup = 5.0;
    params.crisisStart = 20.0;
    params.failFraction = 0.34;
    params.repairAfter = 20.0;
    params.horizon = 50.0;
    return params;
}

} // namespace

TEST(CrisisExperiment, ValidatesParameters)
{
    fault::CrisisParams params = miniCrisis();
    params.fleetSize = 1;
    EXPECT_THROW(
        fault::runCrisisExperiment(autoscale::Policy::Baseline, params),
        FatalError);

    params = miniCrisis();
    params.failFraction = 1.0;
    EXPECT_THROW(
        fault::runCrisisExperiment(autoscale::Policy::Baseline, params),
        FatalError);

    params = miniCrisis();
    params.crisisStart = params.warmup;
    EXPECT_THROW(
        fault::runCrisisExperiment(autoscale::Policy::Baseline, params),
        FatalError);

    params = miniCrisis();
    params.horizon = params.crisisStart;
    EXPECT_THROW(
        fault::runCrisisExperiment(autoscale::Policy::Baseline, params),
        FatalError);
}

TEST(CrisisExperiment, IsDeterministicForASeed)
{
    const auto a =
        fault::runCrisisExperiment(autoscale::Policy::OcA, miniCrisis());
    const auto b =
        fault::runCrisisExperiment(autoscale::Policy::OcA, miniCrisis());

    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.healthyP99, b.healthyP99);
    EXPECT_DOUBLE_EQ(a.crisisP99, b.crisisP99);
    EXPECT_DOUBLE_EQ(a.recoverySeconds, b.recoverySeconds);
    EXPECT_EQ(a.scaleOuts, b.scaleOuts);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.faults[i].time, b.faults[i].time);
        EXPECT_EQ(a.faults[i].target, b.faults[i].target);
    }
    EXPECT_EQ(a.serversCrashed, 1u);
    EXPECT_GT(a.invariantChecks, 0u);
    EXPECT_EQ(a.invariantViolations, 0u);
}

TEST(CrisisExperiment, EmptyPlanLeavesARunUntouched)
{
    // An armed injector with an empty plan must not perturb the
    // workload trajectory at all (it draws nothing from its Rng and
    // schedules no events).
    const auto run = [](bool with_injector) {
        sim::Simulation sim;
        util::Rng rng(77);
        workload::QueueingCluster cluster(sim, rng.child(), {});
        cluster.addServer(3.4);
        cluster.addServer(3.4);

        FaultInjector injector(sim, rng.child());
        if (with_injector) {
            injector.attachCluster(cluster);
            injector.start(FaultPlan());
        }
        cluster.setArrivalRate(800.0);
        sim.runUntil(20.0);
        cluster.setArrivalRate(0.0);
        return std::make_pair(cluster.completed(),
                              cluster.latencies().p99());
    };

    const auto bare = run(false);
    const auto armed = run(true);
    EXPECT_EQ(bare.first, armed.first);
    EXPECT_DOUBLE_EQ(bare.second, armed.second);
}

} // namespace
} // namespace imsim
