/**
 * @file
 * Unit tests for the power substrate: V-f curve anchors, the coupled
 * socket power/temperature solve (Sec. IV's 205 W -> ~300 W overclock
 * point and the ~11 W leakage saving), whole-server budget (Sec. III's
 * 700 W blade), facility PUE accounting (the 182 W savings breakdown),
 * and power capping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "power/capping.hh"
#include "power/facility.hh"
#include "power/server_power.hh"
#include "power/socket_power.hh"
#include "power/vf_curve.hh"
#include "thermal/cooling.hh"
#include "util/logging.hh"

namespace imsim {
namespace {

using power::OperatingPoint;
using power::SocketPowerModel;
using power::VfCurve;

TEST(VfCurve, PaperAnchors)
{
    const VfCurve curve = VfCurve::xeonW3175x();
    EXPECT_DOUBLE_EQ(curve.voltageFor(3.4), 0.90);
    // +23 % frequency requires 0.98 V (Sec. IV "Lifetime").
    EXPECT_NEAR(curve.voltageFor(3.4 * 1.23), 0.98, 1e-9);
    EXPECT_NEAR(curve.frequencyFor(0.98), 3.4 * 1.23, 1e-9);
}

TEST(VfCurve, FloorAtLowFrequency)
{
    const VfCurve curve = VfCurve::xeonW3175x();
    EXPECT_DOUBLE_EQ(curve.voltageFor(0.8), 0.70);
}

TEST(VfCurve, MarginIsSignedDistanceFromCurve)
{
    const VfCurve curve = VfCurve::xeonW3175x();
    EXPECT_NEAR(curve.margin(3.4, 0.95), 0.05, 1e-12);
    EXPECT_LT(curve.margin(4.5, 0.90), 0.0);
}

TEST(VfCurve, InvalidParametersAreFatal)
{
    EXPECT_THROW(VfCurve(0.0, 0.9, 0.1), FatalError);
    EXPECT_THROW(VfCurve(3.4, 0.9, -0.1), FatalError);
    const VfCurve curve = VfCurve::xeonW3175x();
    EXPECT_THROW(curve.voltageFor(0.0), FatalError);
}

TEST(SocketPower, NominalPointMatchesTdp)
{
    // Table III: the server Skylake sustains its all-core turbo at
    // ~204.4 W in air.
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    thermal::AirCooling air;
    const auto sol = socket.solve({3.1, 0.90, 1.0}, air);
    EXPECT_TRUE(sol.converged);
    EXPECT_NEAR(sol.total, 204.4, 2.5);
    EXPECT_NEAR(sol.tj, 92.0, 1.0);
}

TEST(SocketPower, OverclockPointAddsRoughly100W)
{
    // Sec. IV: 0.90 V -> 0.98 V and +23 % frequency lifts the package
    // from ~205 W toward ~305 W (the paper assumes +100 W; the V^3*f
    // model lands within ~10 %).
    const auto socket = SocketPowerModel::skylakeServer(2.6);
    thermal::TwoPhaseImmersionCooling fc(
        thermal::fc3284(),
        {thermal::BoilingInterface::Coating::DirectIhs});
    const auto nominal = socket.solve({2.6, 0.90, 1.0}, fc);
    const auto oc = socket.solve({2.6 * 1.23, 0.98, 1.0}, fc);
    EXPECT_NEAR(oc.total - nominal.total, 100.0, 12.0);
    EXPECT_GT(oc.tj, nominal.tj);
}

TEST(SocketPower, LeakageSavingPerSocket)
{
    // Table III discussion: cooling the junction 17-22 C saves ~11 W of
    // static power per socket.
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    const Watts saving =
        socket.leakagePower(92.0) - socket.leakagePower(73.0);
    EXPECT_NEAR(saving, 11.0, 1.5);
}

TEST(SocketPower, ImmersionReducesTotalAtSameOperatingPoint)
{
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    thermal::AirCooling air;
    thermal::TwoPhaseImmersionCooling fc(thermal::fc3284());
    const OperatingPoint op{3.1, 0.90, 1.0};
    EXPECT_LT(socket.solve(op, fc).total, socket.solve(op, air).total);
}

TEST(SocketPower, ActivityScalesDynamicOnly)
{
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    const OperatingPoint busy{3.1, 0.90, 1.0};
    const OperatingPoint half{3.1, 0.90, 0.5};
    EXPECT_NEAR(socket.dynamicPower(half), socket.dynamicPower(busy) * 0.5,
                1e-9);
    thermal::AirCooling air;
    // Leakage persists at idle.
    const auto idle = socket.solve({3.1, 0.90, 0.0}, air);
    EXPECT_GT(idle.total, 30.0);
}

TEST(SocketPower, MaxFrequencyReproducesTableIiiTurbo)
{
    thermal::AirCooling air8168;
    thermal::TwoPhaseImmersionCooling fc_plate(
        thermal::fc3284(),
        {thermal::BoilingInterface::Coating::CopperPlate});
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    const GHz f_air = socket.maxFrequencyAtPowerLimit(205.0, air8168);
    const GHz f_2pic = socket.maxFrequencyAtPowerLimit(205.0, fc_plate);
    // The 2PIC leakage saving buys about one 100 MHz bin.
    EXPECT_GT(f_2pic, f_air);
    EXPECT_NEAR(f_2pic - f_air, 0.1, 0.08);
}

TEST(SocketPower, MaxFrequencyMonotonicInLimit)
{
    thermal::AirCooling air;
    const auto socket = SocketPowerModel::skylakeServer(3.1);
    GHz prev = 0.0;
    for (Watts limit = 100.0; limit <= 400.0; limit += 50.0) {
        const GHz f = socket.maxFrequencyAtPowerLimit(limit, air);
        EXPECT_GE(f, prev);
        prev = f;
    }
}

TEST(ServerPower, OpenComputeBladeBudgetIs700WInAir)
{
    // Sec. III: 410 W CPUs + 120 W memory + 26 W motherboard + 30 W FPGA
    // + 72 W storage + 42 W fans = 700 W.
    auto server = power::ServerPowerModel::openComputeBlade(2.6);
    thermal::AirCooling air(thermal::CoolingTech::DirectEvaporative, 35.0,
                            0.21);
    const auto breakdown = server.compute({2.6, 0.90, 1.0}, air);
    EXPECT_NEAR(breakdown.sockets, 410.0, 10.0);
    EXPECT_DOUBLE_EQ(breakdown.memory, 120.0);
    EXPECT_DOUBLE_EQ(breakdown.fans, 42.0);
    EXPECT_DOUBLE_EQ(breakdown.other, 26.0 + 30.0 + 72.0);
    EXPECT_NEAR(breakdown.total, 700.0, 12.0);
}

TEST(ServerPower, ImmersionRemovesFans)
{
    auto server = power::ServerPowerModel::openComputeBlade(2.6);
    thermal::TwoPhaseImmersionCooling fc(thermal::fc3284());
    const auto breakdown = server.compute({2.6, 0.90, 1.0}, fc);
    EXPECT_DOUBLE_EQ(breakdown.fans, 0.0);
}

TEST(ServerPower, MemoryPowerScalesWithClock)
{
    auto server = power::ServerPowerModel::openComputeBlade(2.6);
    thermal::TwoPhaseImmersionCooling fc(thermal::fc3284());
    const auto base = server.compute({2.6, 0.90, 1.0}, fc, 2.4);
    const auto oc = server.compute({2.6, 0.90, 1.0}, fc, 3.0);
    EXPECT_NEAR(oc.memory / base.memory, 3.0 / 2.4, 1e-9);
}

TEST(Facility, PueMultipliesItPower)
{
    power::Facility evaporative(thermal::CoolingTech::DirectEvaporative);
    EXPECT_DOUBLE_EQ(evaporative.facilityPowerPeak(700.0), 840.0);
    EXPECT_NEAR(evaporative.overheadPeak(700.0), 140.0, 1e-9);
    power::Facility two_phase(thermal::CoolingTech::Immersion2P);
    EXPECT_DOUBLE_EQ(two_phase.facilityPowerPeak(700.0), 721.0);
}

TEST(Facility, PaperSavingsDecomposition)
{
    // Sec. IV: 2 x 11 W static + 42 W fans + ~118 W PUE = ~182 W.
    const auto savings = power::immersionSavings(700.0, 42.0, 11.0, 2);
    EXPECT_DOUBLE_EQ(savings.staticTotal, 22.0);
    EXPECT_DOUBLE_EQ(savings.fans, 42.0);
    EXPECT_NEAR(savings.pueOverhead, 118.0, 2.0);
    EXPECT_NEAR(savings.total, 182.0, 3.0);
}

TEST(RaplCapper, PassesWhenUnderLimit)
{
    power::RaplCapper capper(200.0);
    const auto power_at = [](GHz f) { return 50.0 * f; };
    EXPECT_DOUBLE_EQ(capper.clamp(3.0, power_at), 3.0);
}

TEST(RaplCapper, ClampsToLimit)
{
    power::RaplCapper capper(200.0);
    const auto power_at = [](GHz f) { return 50.0 * f; };
    EXPECT_NEAR(capper.clamp(6.0, power_at), 4.0, 0.01);
}

TEST(RaplCapper, FloorsAtMinimumFrequency)
{
    power::RaplCapper capper(10.0, 1.0);
    const auto power_at = [](GHz f) { return 50.0 * f; };
    EXPECT_DOUBLE_EQ(capper.clamp(6.0, power_at), 1.0);
}

TEST(RaplCapper, LimitCanBeRaisedForOverclocking)
{
    power::RaplCapper capper(205.0);
    capper.setPowerLimit(305.0);
    EXPECT_DOUBLE_EQ(capper.powerLimit(), 305.0);
    EXPECT_THROW(capper.setPowerLimit(0.0), FatalError);
}

TEST(PowerBudget, NoCappingUnderCapacity)
{
    power::PowerBudget budget(1000.0, 1.2);
    std::vector<power::PowerConsumer> consumers{
        {400.0, 100.0, 1}, {500.0, 100.0, 2}};
    budget.allocate(consumers);
    EXPECT_DOUBLE_EQ(budget.granted()[0], 400.0);
    EXPECT_DOUBLE_EQ(budget.granted()[1], 500.0);
    EXPECT_FALSE(budget.capped()[0]);
    EXPECT_FALSE(budget.capped()[1]);
}

TEST(PowerBudget, LowPriorityCappedFirst)
{
    power::PowerBudget budget(1000.0, 1.5);
    std::vector<power::PowerConsumer> consumers{
        {600.0, 200.0, 1},  // batch
        {600.0, 200.0, 2}}; // latency
    EXPECT_GT(consumers[0].demand + consumers[1].demand, budget.capacity());
    budget.allocate(consumers);
    // Latency keeps its demand; batch absorbs the whole cut.
    EXPECT_DOUBLE_EQ(budget.granted()[1], 600.0);
    EXPECT_FALSE(budget.capped()[1]);
    EXPECT_NEAR(budget.granted()[0], 400.0, 1e-9);
    EXPECT_TRUE(budget.capped()[0]);
}

TEST(PowerBudget, MarginalClassScaledUniformly)
{
    power::PowerBudget budget(900.0);
    std::vector<power::PowerConsumer> consumers{
        {400.0, 100.0, 1},  // a
        {400.0, 100.0, 1},  // b
        {300.0, 100.0, 2}}; // crit
    budget.allocate(consumers);
    const std::vector<Watts> &granted = budget.granted();
    EXPECT_DOUBLE_EQ(granted[2], 300.0);
    // 600 W left for a+b whose demands total 800 W above 200 W minimums.
    EXPECT_NEAR(granted[0], 300.0, 1e-6);
    EXPECT_NEAR(granted[0], granted[1], 1e-9);
}

TEST(PowerBudget, BrownoutIsFatal)
{
    power::PowerBudget budget(100.0);
    std::vector<power::PowerConsumer> consumers{{300.0, 200.0, 1}};
    EXPECT_THROW(budget.allocate(consumers), FatalError);
}

TEST(PowerBudget, AllocationsNeverExceedCapacity)
{
    power::PowerBudget budget(1000.0, 1.4);
    std::vector<power::PowerConsumer> consumers{
        {500.0, 50.0, 1}, {500.0, 50.0, 2}, {400.0, 50.0, 3}};
    budget.allocate(consumers);
    double total = 0.0;
    for (const Watts grant : budget.granted())
        total += grant;
    EXPECT_LE(total, 1000.0 + 1e-6);
}

TEST(PowerBudget, OversubscriptionRatioValidation)
{
    EXPECT_THROW(power::PowerBudget(1000.0, 0.9), FatalError);
    power::PowerBudget budget(1000.0, 1.25);
    EXPECT_DOUBLE_EQ(budget.provisionable(), 1250.0);
}

// ---------------------------------------------------------------------
// allocate() edge cases at the marginal priority class and the
// brownout boundary, plus the grants' lifecycle across calls.
// ---------------------------------------------------------------------

// Consumers tied at the marginal class's priority are scaled by one
// common fraction, regardless of their position in the input vector.
TEST(PowerBudget, TiedPrioritiesAtMarginalClassShareOneFraction)
{
    power::PowerBudget budget(1000.0, 1.5);
    std::vector<power::PowerConsumer> consumers{
        {400.0, 100.0, 1},  // tied_a
        {300.0, 100.0, 2},  // crit
        {600.0, 100.0, 1}}; // tied_b
    budget.allocate(consumers);
    const std::vector<Watts> &granted = budget.granted();
    const std::vector<std::uint8_t> &capped = budget.capped();
    // crit restores fully; 600 W remain for the tied class's minimums
    // (200 W) plus a uniform share of its 800 W restorable extra.
    EXPECT_DOUBLE_EQ(granted[1], 300.0);
    EXPECT_FALSE(capped[1]);
    const double frac_a = (granted[0] - 100.0) / 300.0;
    const double frac_b = (granted[2] - 100.0) / 500.0;
    EXPECT_NEAR(frac_a, frac_b, 1e-12);
    EXPECT_TRUE(capped[0]);
    EXPECT_TRUE(capped[2]);
    EXPECT_NEAR(granted[0] + granted[1] + granted[2], 1000.0, 1e-9);
}

// A class with zero restorable extra (demand == minimum) passes through
// the restore walk without dividing by its zero extra.
TEST(PowerBudget, ZeroRestorableExtraClassIsHandled)
{
    power::PowerBudget budget(700.0, 1.5);
    std::vector<power::PowerConsumer> consumers{
        {200.0, 200.0, 3},  // flat: demand == minimum, no extra.
        {350.0, 100.0, 2},  // mid
        {400.0, 100.0, 1}}; // low
    budget.allocate(consumers);
    const std::vector<Watts> &granted = budget.granted();
    const std::vector<std::uint8_t> &capped = budget.capped();
    EXPECT_DOUBLE_EQ(granted[0], 200.0);
    EXPECT_FALSE(capped[0]);
    EXPECT_DOUBLE_EQ(granted[1], 350.0);
    EXPECT_FALSE(capped[1]);
    // 50 W of room left for low's 300 W extra above its 100 W minimum.
    EXPECT_NEAR(granted[2], 150.0, 1e-9);
    EXPECT_TRUE(capped[2]);
}

// When a class's restorable extra equals the remaining room exactly,
// it restores fully (the <= branch) and is not reported as capped.
TEST(PowerBudget, ExactFitClassExtraEqualsRoom)
{
    power::PowerBudget budget(1000.0, 1.5);
    std::vector<power::PowerConsumer> consumers{
        {300.0, 100.0, 1},  // low
        {500.0, 100.0, 2},  // exact: extra 400 == room after crit.
        {400.0, 100.0, 3}}; // crit
    budget.allocate(consumers);
    const std::vector<Watts> &granted = budget.granted();
    const std::vector<std::uint8_t> &capped = budget.capped();
    EXPECT_DOUBLE_EQ(granted[2], 400.0);
    EXPECT_FALSE(capped[2]);
    // Exact fit restores fully through the <=-room branch: not capped.
    EXPECT_DOUBLE_EQ(granted[1], 500.0);
    EXPECT_FALSE(capped[1]);
    // Nothing left below the marginal class.
    EXPECT_DOUBLE_EQ(granted[0], 100.0);
    EXPECT_TRUE(capped[0]);
}

// validate=false skips the per-consumer input checks (the hot-path
// contract) but the brownout fatal stays armed.
TEST(PowerBudget, AllocateKeepsBrownoutFatalWithoutValidation)
{
    power::PowerBudget budget(100.0);
    std::vector<power::PowerConsumer> consumers{{300.0, 200.0, 1}};
    EXPECT_THROW(budget.allocate(consumers, false), FatalError);
    EXPECT_THROW(budget.allocate(consumers, true), FatalError);
}

// validate=true rejects malformed consumers.
TEST(PowerBudget, AllocateValidatesInputsWhenAsked)
{
    power::PowerBudget budget(1000.0);
    std::vector<power::PowerConsumer> consumers{
        {100.0, 200.0, 1}}; // minimum > demand.
    EXPECT_THROW(budget.allocate(consumers, true), FatalError);
}

// The exact boundary where the floors just fit: minimum_total == cap is
// the last point before a brownout, and every consumer must land
// precisely on its minimum (no uniform-scaling rounding, no crash).
TEST(PowerBudget, FloorsExactlyFillingCapacityAreGrantedVerbatim)
{
    power::PowerBudget budget(600.0);
    const std::vector<power::PowerConsumer> consumers{
        {500.0, 250.0, 1}, {400.0, 200.0, 0},
        {300.0, 150.0, 2}};
    budget.allocate(consumers, true);
    EXPECT_DOUBLE_EQ(budget.granted()[0], 250.0);
    EXPECT_DOUBLE_EQ(budget.granted()[1], 200.0);
    EXPECT_DOUBLE_EQ(budget.granted()[2], 150.0);
    EXPECT_TRUE(budget.capped()[0]);
    EXPECT_TRUE(budget.capped()[1]);
    EXPECT_TRUE(budget.capped()[2]);
    EXPECT_EQ(budget.brownouts(), 0u); // Fits: not a brownout.
}

TEST(PowerBudget, RecoverableBrownoutScalesFloorsUniformly)
{
    power::PowerBudget budget(1000.0);
    budget.setRecoverableBrownout(true);
    budget.setCapacity(300.0); // Derated below the 400 W floor total.

    const std::vector<power::PowerConsumer> consumers{
        {400.0, 300.0, 1}, {200.0, 100.0, 0}};
    budget.allocate(consumers, true);
    EXPECT_EQ(budget.brownouts(), 1u);
    // Every floor scaled by cap / minimum_total = 300/400.
    EXPECT_DOUBLE_EQ(budget.granted()[0], 225.0);
    EXPECT_DOUBLE_EQ(budget.granted()[1], 75.0);
    EXPECT_TRUE(budget.capped()[0]);
    EXPECT_TRUE(budget.capped()[1]);
}

// A derated feed that later recovers must re-converge to full grants —
// the brownout path leaves no sticky state behind.
TEST(PowerBudget, CapacityLoweredAndRestoredReconverges)
{
    power::PowerBudget budget(1000.0, 1.2);
    budget.setRecoverableBrownout(true);
    const std::vector<power::PowerConsumer> consumers{
        {400.0, 300.0, 1}, {300.0, 200.0, 0}};

    budget.allocate(consumers, true);
    EXPECT_DOUBLE_EQ(budget.granted()[0], 400.0);
    EXPECT_DOUBLE_EQ(budget.granted()[1], 300.0);

    budget.setCapacity(250.0); // Brownout: floors total 500 W.
    EXPECT_DOUBLE_EQ(budget.provisionable(), 300.0); // Ratio is kept.
    budget.allocate(consumers, true);
    EXPECT_EQ(budget.brownouts(), 1u);
    EXPECT_DOUBLE_EQ(budget.granted()[0] + budget.granted()[1], 250.0);

    budget.setCapacity(600.0); // Partial recovery: floors fit, demand no.
    budget.allocate(consumers, true);
    EXPECT_EQ(budget.brownouts(), 1u);
    EXPECT_DOUBLE_EQ(budget.granted()[0] + budget.granted()[1], 600.0);
    EXPECT_GE(budget.granted()[0], 300.0);
    EXPECT_GE(budget.granted()[1], 200.0);

    budget.setCapacity(1000.0); // Full recovery: back to full demand.
    budget.allocate(consumers, true);
    EXPECT_EQ(budget.brownouts(), 1u);
    EXPECT_DOUBLE_EQ(budget.granted()[0], 400.0);
    EXPECT_DOUBLE_EQ(budget.granted()[1], 300.0);
    EXPECT_FALSE(budget.capped()[0]);
    EXPECT_FALSE(budget.capped()[1]);
}

// One budget reused across calls, as the crisis feed reuses its budget
// while servers crash and come back: after every call its grants match
// a fresh budget's in size and bits, however the consumer set shrinks.
TEST(PowerBudget, GrantsFollowTheLatestConsumerSet)
{
    const std::vector<power::PowerConsumer> five{
        {500.0, 100.0, 1}, {300.0, 50.0, 2}, {400.0, 150.0, 1},
        {200.0, 200.0, 3}, {350.0, 100.0, 0}};
    const std::vector<power::PowerConsumer> three(five.begin(),
                                                  five.begin() + 3);
    power::PowerBudget reused(1000.0);
    reused.setRecoverableBrownout(true);
    const auto allocateBoth =
        [&reused](const std::vector<power::PowerConsumer> &consumers) {
            power::PowerBudget fresh(reused.capacity());
            fresh.setRecoverableBrownout(true);
            reused.allocate(consumers);
            fresh.allocate(consumers);
            const std::size_t n = consumers.size();
            ASSERT_EQ(reused.granted().size(), n);
            ASSERT_EQ(reused.capped().size(), n);
            ASSERT_EQ(fresh.granted().size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::memcmp(&reused.granted()[i],
                                      &fresh.granted()[i], sizeof(Watts)),
                          0)
                    << "consumer " << i;
            }
            EXPECT_EQ(reused.capped(), fresh.capped());
        };

    allocateBoth(five);  // 1750 W on 1000 W: the capped walk.
    allocateBoth(three); // 1200 W: still capped, on fewer consumers.
    allocateBoth({});    // Every server down.
    reused.setCapacity(400.0); // Floors total 600 W: a brownout.
    allocateBoth(five);
    EXPECT_EQ(reused.brownouts(), 1u);
    reused.setCapacity(1000.0);
    allocateBoth(three);
    EXPECT_EQ(reused.brownouts(), 1u);
}

} // namespace
} // namespace imsim
