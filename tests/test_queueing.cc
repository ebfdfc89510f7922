/**
 * @file
 * Unit tests for the M/G/k queueing cluster: utilization law, latency
 * behaviour under load and frequency changes, server lifecycle,
 * counters, and VM-hour accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulation.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace {

workload::QueueingCluster::Params
defaultParams()
{
    workload::QueueingCluster::Params params;
    params.serviceMean = 2.6e-3;
    params.serviceCv = 1.5;
    params.kappa = 0.9;
    params.refFreq = 3.4;
    params.threadsPerServer = 4;
    return params;
}

TEST(Queueing, UtilizationFollowsLittlesLaw)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(1), defaultParams());
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(1000.0);
    sim.runUntil(300.0);
    // rho = lambda * s / (k * c) = 1000 * 0.0026 / 8 = 0.325.
    EXPECT_NEAR(cluster.fleetUtilization(180.0), 0.325, 0.03);
}

TEST(Queueing, LatencyAtLeastServiceTime)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(2), defaultParams());
    cluster.addServer(3.4);
    cluster.setArrivalRate(200.0);
    sim.runUntil(120.0);
    EXPECT_GT(cluster.completed(), 10000u);
    EXPECT_GT(cluster.latencies().mean(), 2.0e-3);
    EXPECT_GT(cluster.latencies().p95(), cluster.latencies().mean());
}

TEST(Queueing, HighLoadInflatesTail)
{
    sim::Simulation sim_lo;
    workload::QueueingCluster low(sim_lo, util::Rng(3), defaultParams());
    low.addServer(3.4);
    low.setArrivalRate(300.0);
    sim_lo.runUntil(120.0);

    sim::Simulation sim_hi;
    workload::QueueingCluster high(sim_hi, util::Rng(3), defaultParams());
    high.addServer(3.4);
    high.setArrivalRate(1300.0); // rho ~ 0.85.
    sim_hi.runUntil(120.0);

    EXPECT_GT(high.latencies().p95(), 1.5 * low.latencies().p95());
}

TEST(Queueing, OverclockingReducesUtilizationAndLatency)
{
    sim::Simulation sim_base;
    workload::QueueingCluster base(sim_base, util::Rng(4), defaultParams());
    base.addServer(3.4);
    base.setArrivalRate(1200.0);
    sim_base.runUntil(120.0);

    sim::Simulation sim_oc;
    workload::QueueingCluster oc(sim_oc, util::Rng(4), defaultParams());
    oc.addServer(4.1);
    oc.setArrivalRate(1200.0);
    sim_oc.runUntil(120.0);

    EXPECT_LT(oc.fleetUtilization(60.0), base.fleetUtilization(60.0));
    EXPECT_LT(oc.latencies().p95(), base.latencies().p95());
}

TEST(Queueing, FrequencyChangeMatchesEq1Prediction)
{
    // The utilization after a frequency change should match Eq. 1 with
    // kappa as the scalable fraction.
    const auto params = defaultParams();
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(5), params);
    cluster.addServer(3.4);
    cluster.setArrivalRate(900.0);
    sim.runUntil(200.0);
    const double util_before = cluster.fleetUtilization(60.0);
    cluster.setAllFrequencies(4.1);
    sim.runUntil(400.0);
    const double util_after = cluster.fleetUtilization(60.0);
    const double predicted =
        util_before * (params.kappa * 3.4 / 4.1 + (1 - params.kappa));
    EXPECT_NEAR(util_after, predicted, 0.03);
}

TEST(Queueing, RemoveServerDrains)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(6), defaultParams());
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(800.0);
    sim.runUntil(60.0);
    cluster.removeServer();
    EXPECT_EQ(cluster.activeServers(), 1u);
    EXPECT_EQ(cluster.serverCount(), 2u);
    const auto completed_before = cluster.completed();
    sim.runUntil(120.0);
    // The remaining server keeps serving.
    EXPECT_GT(cluster.completed(), completed_before);
}

/** Mean of utilization(id, window) over the active servers, in id order:
 *  what fleetUtilization() computes when its memo misses. */
double
freshFleetUtilization(const workload::QueueingCluster &cluster,
                      Seconds window)
{
    double total = 0.0;
    std::size_t active = 0;
    for (std::size_t id = 0; id < cluster.serverCount(); ++id) {
        if (!cluster.isActive(id))
            continue;
        total += cluster.utilization(id, window);
        ++active;
    }
    return active ? total / static_cast<double>(active) : 0.0;
}

TEST(Queueing, FleetUtilizationMemoFollowsEveryInputChange)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(15), defaultParams());
    for (int i = 0; i < 3; ++i)
        cluster.addServer(3.4);
    cluster.setArrivalRate(4500.0); // rho ~ 0.98: a backlog to absorb.
    sim.runUntil(200.0);

    // Every step happens at t = 200 (the event loop is paused), so only
    // the utilization-state stamp can tell a stale memo from a live one.
    auto expect_fresh = [&](const char *step) {
        for (Seconds window : {30.0, 180.0, 30.0})
            EXPECT_EQ(cluster.fleetUtilization(window),
                      freshFleetUtilization(cluster, window))
                << "after " << step << ", window " << window;
    };
    expect_fresh("warm-up");
    cluster.addServer(3.4);
    expect_fresh("addServer");
    cluster.crashServer(0);
    expect_fresh("crashServer");
    cluster.removeServer();
    expect_fresh("removeServer");
    cluster.repairServer(0);
    expect_fresh("repairServer");
    EXPECT_EQ(sim.now(), 200.0);
    sim.runUntil(200.5);
    expect_fresh("a later instant");
    // Once the cluster drains, time moves on with no record at all:
    // the window slides, and only the instant in the key can tell.
    cluster.setArrivalRate(0.0);
    sim.runUntil(260.0);
    expect_fresh("draining");
    sim.runUntil(270.0);
    expect_fresh("an idle later instant");
}

TEST(Queueing, RemoveLastServerThenFatal)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(7), defaultParams());
    cluster.addServer(3.4);
    cluster.removeServer();
    EXPECT_THROW(cluster.removeServer(), FatalError);
}

TEST(Queueing, NewServerAbsorbsBacklog)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(8), defaultParams());
    cluster.addServer(3.4);
    cluster.setArrivalRate(2500.0); // Far beyond one server's capacity.
    sim.runUntil(30.0);
    EXPECT_GT(cluster.queueDepth(), 0u);
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    cluster.setArrivalRate(500.0);
    sim.runUntil(120.0);
    EXPECT_EQ(cluster.queueDepth(), 0u);
}

TEST(Queueing, VmHoursIntegrateActiveServers)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(9), defaultParams());
    cluster.addServer(3.4);
    sim.runUntil(1800.0);
    cluster.addServer(3.4);
    sim.runUntil(3600.0);
    // 1 VM for 30 min + 2 VMs for 30 min = 1.5 VM-hours.
    EXPECT_NEAR(cluster.vmHours(), 1.5, 0.01);
    EXPECT_EQ(cluster.maxServers(), 2u);
}

TEST(Queueing, CountersExposeKappa)
{
    sim::Simulation sim;
    auto params = defaultParams();
    params.kappa = 0.75;
    workload::QueueingCluster cluster(sim, util::Rng(10), params);
    const std::size_t id = cluster.addServer(3.4);
    cluster.setArrivalRate(600.0);
    sim.runUntil(60.0);
    const auto before = cluster.counters(id);
    sim.runUntil(120.0);
    const auto after = cluster.counters(id);
    EXPECT_NEAR(after.scalableFraction(before), 0.75, 1e-9);
}

TEST(Queueing, ArrivalRateZeroStopsTraffic)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(11), defaultParams());
    cluster.addServer(3.4);
    cluster.setArrivalRate(500.0);
    sim.runUntil(60.0);
    cluster.setArrivalRate(0.0);
    const auto count = cluster.completed();
    sim.runUntil(120.0);
    // Only in-flight requests finish after the tap closes.
    EXPECT_LT(cluster.completed() - count, 10u);
}

TEST(Queueing, DeterministicGivenSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::Simulation sim;
        workload::QueueingCluster cluster(sim, util::Rng(seed),
                                          defaultParams());
        cluster.addServer(3.4);
        cluster.setArrivalRate(700.0);
        sim.runUntil(60.0);
        return cluster.latencies().p95();
    };
    EXPECT_DOUBLE_EQ(run(123), run(123));
    EXPECT_NE(run(123), run(124));
}

TEST(Queueing, LifetimeBusyFractionTracksLoad)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(12), defaultParams());
    const std::size_t id = cluster.addServer(3.4);
    cluster.setArrivalRate(1000.0);
    sim.runUntil(120.0);
    // rho = 1000 * 0.0026 / 4 = 0.65. The 120 s window spans the
    // server's whole life (the utilization window keeps 200 s).
    EXPECT_NEAR(cluster.utilization(id, 120.0), 0.65, 0.05);
}

TEST(Queueing, InvalidOperationsAreFatal)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(13), defaultParams());
    EXPECT_THROW(cluster.setFrequency(0, 3.4), FatalError);
    cluster.addServer(3.4);
    EXPECT_THROW(cluster.setFrequency(0, 0.0), FatalError);
    EXPECT_THROW(cluster.addServer(-1.0), FatalError);
    EXPECT_THROW(cluster.setArrivalRate(-5.0), FatalError);
    EXPECT_THROW(cluster.utilization(7, 30.0), FatalError);
    workload::QueueingCluster::Params no_cv = defaultParams();
    no_cv.serviceCv = 0.0;
    EXPECT_THROW(workload::QueueingCluster(sim, util::Rng(13), no_cv),
                 FatalError);
}

// Long, nearly deterministic service (1000 s, CV 0.001) on two
// threads per server: nothing completes while a test places requests.
workload::QueueingCluster::Params
slowParams()
{
    workload::QueueingCluster::Params params = defaultParams();
    params.serviceMean = 1000.0;
    params.serviceCv = 1e-3;
    params.kappa = 1.0;
    params.threadsPerServer = 2;
    return params;
}

/** Requests the cluster holds: busy threads plus the queue. */
std::size_t
placedRequests(const workload::QueueingCluster &cluster)
{
    std::size_t placed = cluster.queueDepth();
    for (std::size_t id = 0; id < cluster.serverCount(); ++id)
        placed += static_cast<std::size_t>(cluster.busyThreads(id));
    return placed;
}

/**
 * Feed exactly one request, arriving (a nanosecond or so) from now:
 * step the clock in picosecond slices until the arrival is placed.
 */
void
arriveNow(sim::Simulation &sim, workload::QueueingCluster &cluster)
{
    const std::size_t before = placedRequests(cluster);
    cluster.setArrivalRate(1e9);
    while (placedRequests(cluster) == before)
        sim.runUntil(sim.now() + 1e-12);
    cluster.setArrivalRate(0.0);
}

std::vector<int>
busyOf(const workload::QueueingCluster &cluster)
{
    std::vector<int> busy;
    for (std::size_t id = 0; id < cluster.serverCount(); ++id)
        busy.push_back(cluster.busyThreads(id));
    return busy;
}

// The load balancer takes the active server with the fewest busy
// threads, breaking ties on the lowest id, and never picks an inactive
// or a crashed server however idle it is.
TEST(Queueing, PickServerLeastBusyLowestIdSkipsDownServers)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(21), slowParams());
    for (int i = 0; i < 4; ++i)
        cluster.addServer(3.4);
    for (int i = 0; i < 3; ++i)
        arriveNow(sim, cluster); // Ties everywhere: 0, 1, then 2.
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{1, 1, 1, 0}));

    // The crashed server's request goes to the least busy survivor,
    // server 3, not to the lower ids that already hold one.
    cluster.crashServer(0);
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{0, 1, 1, 1}));
    EXPECT_EQ(cluster.removeServer(), 3u);

    // Active: 1 and 2, one busy thread each. Idle crashed server 0 and
    // inactive server 3 (a free thread) are skipped.
    arriveNow(sim, cluster);
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{0, 2, 1, 1}));
    arriveNow(sim, cluster);
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{0, 2, 2, 1}));
    arriveNow(sim, cluster);
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{0, 2, 2, 1}));
    EXPECT_EQ(cluster.queueDepth(), 1u);

    cluster.repairServer(0); // Absorbs the backlog.
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{1, 2, 2, 1}));
    EXPECT_EQ(cluster.queueDepth(), 0u);
}

// crashServer() cancels the crashed server's typed completion events
// and requeues their requests in arrival order, ahead of the backlog.
TEST(Queueing, CrashCancelsCompletionsAndRequeuesInArrivalOrder)
{
    sim::Simulation sim;
    workload::QueueingCluster cluster(sim, util::Rng(22), slowParams());
    cluster.addServer(3.4);
    cluster.addServer(3.4);
    // Requests #1..#6 arrive at t = 0, 100, ..., 500: #1 and #3 run on
    // server 0, #2 and #4 on server 1, and #5, #6 wait.
    for (int i = 0; i < 6; ++i) {
        sim.runUntil(100.0 * i);
        arriveNow(sim, cluster);
    }
    EXPECT_EQ(busyOf(cluster), (std::vector<int>{2, 2}));
    EXPECT_EQ(cluster.queueDepth(), 2u);
    EXPECT_EQ(sim.pendingEvents(), 4u);

    sim.runUntil(600.0);
    cluster.crashServer(0);
    EXPECT_EQ(cluster.queueDepth(), 4u);
    EXPECT_EQ(sim.pendingEvents(), 2u); // #1's and #3's completions.

    // Server 0's cancelled completions (due near t = 1000 and 1200)
    // never fire.
    sim.runUntil(1050.0);
    EXPECT_EQ(cluster.completed(), 0u);

    // Server 1 then serves the queue front first: #1 at ~1100 and #3
    // at ~1300 (latency ~2100 each), then #5 and #6. Backlog-first or
    // reversed requeueing would give ~1100/1200 or ~1900/2300 instead.
    sim.run();
    EXPECT_EQ(cluster.completed(), 6u);
    std::vector<double> latency = cluster.latencies().data();
    std::sort(latency.begin(), latency.end());
    const std::vector<double> expect{1000.0, 1000.0, 2100.0,
                                     2100.0, 2700.0, 2800.0};
    ASSERT_EQ(latency.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(latency[i], expect[i], 30.0) << "request " << i;
}

} // namespace
} // namespace imsim
