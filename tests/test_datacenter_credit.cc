/**
 * @file
 * Unit tests for the datacenter power-oversubscription simulator
 * (Takeaway 1's capping-vs-overclocking interplay) and the wear-credit
 * overclocking scheduler (the paper's wear-out-counter direction).
 */

#include <gtest/gtest.h>

#include <limits>

#include "cluster/datacenter.hh"
#include "core/credit.hh"
#include "power/capping.hh"
#include "reliability/lifetime.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace imsim {
namespace {

std::vector<cluster::RackConfig>
defaultRacks()
{
    // Two batch racks and one latency rack (higher priority).
    cluster::RackConfig batch;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    return {batch, batch, latency};
}

cluster::DatacenterPowerSim
makeSim(double oversub = 1.3)
{
    // Feed sized so the nominal fleet's diurnal peak just fits (~39.6 kW
    // at 70% utilization) but overclocking on top of it breaches the
    // 40 kW circuit — the oversubscribed regime Takeaway 1 warns about.
    return cluster::DatacenterPowerSim(defaultRacks(), 40000.0, oversub,
                                       1.2);
}

TEST(Datacenter, FleetPeakAccounting)
{
    const auto sim = makeSim();
    EXPECT_DOUBLE_EQ(sim.fleetNominalPeak(), 3 * 24 * 700.0);
}

TEST(Datacenter, NoOverclockNoCappedOverclock)
{
    auto sim = makeSim();
    util::Rng rng(1);
    const auto outcome =
        sim.run(cluster::OverclockPolicy::Never, rng, 3.0);
    EXPECT_DOUBLE_EQ(outcome.overclockShare, 0.0);
    EXPECT_DOUBLE_EQ(outcome.cappedOverclockShare, 0.0);
    EXPECT_NEAR(outcome.speedupDelivered, 1.0, 1e-12);
    EXPECT_GT(outcome.energyMwh, 0.0);
    EXPECT_LT(outcome.meanFeedUtilization, 1.0);
}

TEST(Datacenter, AlwaysOverclockingTriggersCapping)
{
    // Takeaway 1: indiscriminate overclocking in an oversubscribed
    // facility hits the limits and gets capped.
    auto sim = makeSim();
    util::Rng rng(2);
    const auto always =
        sim.run(cluster::OverclockPolicy::Always, rng, 3.0);
    util::Rng rng2(2);
    const auto never =
        sim.run(cluster::OverclockPolicy::Never, rng2, 3.0);
    EXPECT_GT(always.cappingMinutesShare, never.cappingMinutesShare);
    EXPECT_GT(always.cappedOverclockShare, 0.02);
    EXPECT_GT(always.energyMwh, never.energyMwh);
}

TEST(Datacenter, PowerAwarePolicyAvoidsWastedOverclocks)
{
    auto sim = makeSim();
    util::Rng rng_a(3);
    const auto always =
        sim.run(cluster::OverclockPolicy::Always, rng_a, 3.0);
    util::Rng rng_b(3);
    const auto aware =
        sim.run(cluster::OverclockPolicy::PowerAware, rng_b, 3.0);
    // The power-aware policy wastes (almost) nothing on capped
    // overclocks and caps less overall.
    EXPECT_LT(aware.cappedOverclockShare,
              always.cappedOverclockShare * 0.5 + 1e-9);
    EXPECT_LE(aware.cappingMinutesShare,
              always.cappingMinutesShare + 1e-9);
}

TEST(Datacenter, DiurnalValleysLeaveOverclockRoom)
{
    // "Providers can overclock during periods of power underutilization
    // due to ... diurnal patterns": the power-aware policy still serves
    // a large share of the overclock demand.
    auto sim = makeSim();
    util::Rng rng(4);
    const auto aware =
        sim.run(cluster::OverclockPolicy::PowerAware, rng, 3.0);
    EXPECT_GT(aware.overclockShare, 0.5);
    EXPECT_GT(aware.speedupDelivered, 1.08);
}

TEST(Datacenter, InvalidConfigurationIsFatal)
{
    EXPECT_THROW(cluster::DatacenterPowerSim({}, 1000.0), FatalError);
    auto racks = defaultRacks();
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 0.0), FatalError);
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 1000.0, 0.5),
                 FatalError);
    racks[0].overclockDemand = 1.5;
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 1000.0), FatalError);

    // NaN fails every range check instead of slipping past `x <= 0`.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    racks = defaultRacks();
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, nan), FatalError);
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 1000.0, nan),
                 FatalError);
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 1000.0, 1.2, nan),
                 FatalError);
    racks[0].overclockDemand = nan;
    EXPECT_THROW(cluster::DatacenterPowerSim(racks, 1000.0), FatalError);
    EXPECT_THROW(power::PowerBudget{nan}, FatalError);
    EXPECT_THROW(power::PowerBudget(1000.0, nan), FatalError);

    cluster::DatacenterPowerSim sim(defaultRacks(), 40000.0);
    auto physics = cluster::PerServerPhysics::openComputeImmersed();
    physics.utilSpread = nan;
    EXPECT_THROW(sim.enablePerServerFidelity(physics), FatalError);
}

// --- Credit scheduler ---------------------------------------------------------

// GCC 12 flags the aggregate rig below with a spurious
// -Wmaybe-uninitialized at -O2 (the members are all default-initialized);
// suppress it for this block only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

struct CreditRig
{
    reliability::LifetimeModel model;
    reliability::WearTracker tracker{model, 5.0};

    // HFE-7000 operating points (Table V anchors).
    reliability::StressCondition nominal{0.90, 51.0, 35.0, 1.0, 1.0};
    reliability::StressCondition green{0.98, 60.0, 35.0, 1.23, 1.0};
    reliability::StressCondition red{1.01, 64.0, 35.0, 1.30, 1.0};
};

TEST(CreditScheduler, NoDemandBanksCredit)
{
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    const auto decision = scheduler.decide(
        rig.nominal, rig.green, rig.red, false, 1.0 / 365.0);
    EXPECT_FALSE(decision.overclock);
    EXPECT_DOUBLE_EQ(decision.frequencyRatio, 1.0);
}

TEST(CreditScheduler, FreshPartGetsGreenBandOnly)
{
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    const auto decision = scheduler.decide(
        rig.nominal, rig.green, rig.red, true, 1.0 / 365.0);
    EXPECT_TRUE(decision.overclock);
    EXPECT_FALSE(decision.redBand);
    EXPECT_DOUBLE_EQ(decision.frequencyRatio, 1.23);
}

TEST(CreditScheduler, BankedCreditUnlocksRedBand)
{
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    // A year of cool nominal running banks substantial credit.
    scheduler.commit(rig.nominal, 1.0);
    EXPECT_GT(rig.tracker.credit(), 0.05);
    const auto decision = scheduler.decide(
        rig.nominal, rig.green, rig.red, true, 1.0 / 365.0);
    EXPECT_TRUE(decision.overclock);
    EXPECT_TRUE(decision.redBand);
    EXPECT_DOUBLE_EQ(decision.frequencyRatio, 1.30);
}

TEST(CreditScheduler, RedBandStopsBeforeTheSafetyReserve)
{
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    scheduler.commit(rig.nominal, 0.5); // Bank some credit.
    // Spend it down with repeated red-band months; eventually the
    // scheduler must fall back to green.
    int red_grants = 0;
    for (int month = 0; month < 120; ++month) {
        const auto decision = scheduler.decide(
            rig.nominal, rig.green, rig.red, true, 1.0 / 12.0);
        if (decision.redBand)
            ++red_grants;
        const auto &applied = decision.redBand ? rig.red
                              : decision.overclock ? rig.green
                                                   : rig.nominal;
        scheduler.commit(applied, 1.0 / 12.0);
    }
    EXPECT_GT(red_grants, 0);
    EXPECT_LT(red_grants, 120);
    // Never breaches the design budget at end of horizon.
    EXPECT_GE(rig.tracker.credit(), -1e-6);
}

TEST(CreditScheduler, FiveYearHorizonEndsWithinBudget)
{
    // Hourly scheduling across a full service life with diurnal demand:
    // the part retires at (or under) exactly its design budget.
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    util::Rng rng(7);
    const Years step = 1.0 / units::kHoursPerYear;
    double overclocked_hours = 0.0;
    for (int hour = 0; hour < 5 * 8766; hour += 6) {
        const bool demand = rng.bernoulli(0.4);
        const auto decision = scheduler.decide(
            rig.nominal, rig.green, rig.red, demand, 6.0 * step);
        const auto &applied = decision.redBand ? rig.red
                              : decision.overclock ? rig.green
                                                   : rig.nominal;
        if (decision.overclock)
            overclocked_hours += 6.0;
        scheduler.commit(applied, 6.0 * step);
    }
    EXPECT_NEAR(rig.tracker.age(), 5.0, 0.01);
    EXPECT_LE(rig.tracker.consumed(), 1.0 + 1e-6);
    // It overclocked a substantial share of the demanded hours.
    EXPECT_GT(overclocked_hours, 5000.0);
}

#pragma GCC diagnostic pop

TEST(CreditScheduler, PolicyValidation)
{
    CreditRig rig;
    core::CreditScheduler scheduler(rig.tracker);
    core::CreditPolicy bad;
    bad.redRatio = 1.1; // Below green.
    EXPECT_THROW(core::CreditScheduler(rig.tracker, bad), FatalError);
}

} // namespace
} // namespace imsim
