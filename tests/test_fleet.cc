/**
 * @file
 * Fleet-layer tests: the scalar-vs-batched equivalence oracle that holds
 * the FP-identity contract of fleet/kernels.hh (a batched step must be
 * bit-for-bit equal to stepping the scalar ThermalNode /
 * SocketPowerModel / WearTracker objects one server at a time), edge
 * cases of the columnar state, and the DatacenterPowerSim run()
 * regression (instrumented and plain runs produce identical outcomes,
 * and every outcome, telemetry column and metric name is pinned for
 * each policy in both fidelity modes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/datacenter.hh"
#include "fleet/kernels.hh"
#include "fleet/state.hh"
#include "obs/fleet_agg.hh"
#include "obs/timeseries.hh"
#include "power/server_power.hh"
#include "power/socket_power.hh"
#include "reliability/lifetime.hh"
#include "thermal/cooling.hh"
#include "thermal/fluid.hh"
#include "thermal/junction.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/shard.hh"

namespace imsim {
namespace {

// ---------------------------------------------------------------------
// Scalar reference: one server of per-object state, stepped through the
// public scalar APIs exactly as a per-object fleet loop would.
// ---------------------------------------------------------------------

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

/// One scalar minute: SocketPowerModel -> ThermalNode -> WearTracker,
/// the coupling order the batched stepAll mirrors (leakage reads the
/// previous step's Tj, wear reads the new one).
void
stepScalar(ScalarServer &sv, Seconds dt)
{
    const power::VfCurve &vf = sv.socket.curve();
    const Volts volt = vf.voltageFor(sv.frequency);
    const power::OperatingPoint op{sv.frequency, volt, sv.utilization};
    const Watts dyn = sv.socket.dynamicPower(op);
    const Watts leak = sv.socket.leakagePower(sv.node.temperature());
    const Celsius ref = sv.cooling->referenceTemperature(dyn + leak);
    sv.node.step(dt, dyn + leak, ref);
    reliability::StressCondition cond;
    cond.voltage = volt;
    cond.tjMax = sv.node.temperature();
    cond.tMin = sv.tMin;
    cond.freqRatio = sv.frequency / vf.nominalFrequency();
    cond.dutyCycle = sv.utilization;
    sv.tracker.accrue(cond, fleet::secondsToYears(dt));
}

// ---------------------------------------------------------------------
// Fixtures: SKU tables and matched scalar/batched fleets.
// ---------------------------------------------------------------------

/// Mixed SKU table: the paper's immersed Open Compute blade (SKU 0)
/// plus an air-cooled variant of the same blade (SKU 1).
std::vector<fleet::SkuParams>
mixedSkus()
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

/// A scalar twin of fleet server @p i: same SKU coefficients, same
/// initial temperature, same operating point.
ScalarServer
scalarTwin(const fleet::FleetState &state,
           const std::vector<fleet::SkuParams> &skus, std::size_t i)
{
    static const auto server = power::ServerPowerModel::openComputeBlade();
    static const reliability::LifetimeModel lifetime;
    static const thermal::TwoPhaseImmersionCooling immersed(
        thermal::fc3284());
    static const thermal::AirCooling air;
    static const thermal::CoolingSystem *coolings[2] = {&immersed, &air};

    const fleet::SkuParams &p = skus[state.skuIndex[i]];
    return ScalarServer{
        server.socketModel(),
        thermal::ThermalNode(p.rth, p.thermalCap, p.coolantRef),
        reliability::WearTracker(lifetime, p.designLife),
        coolings[state.skuIndex[i]],
        p.level[state.freqLevel[i]].frequency,
        state.utilization[i],
        p.tMin,
    };
}

/// Build a fleet of @p servers cycling over @p sku_count SKUs with a
/// deterministic utilization spread and every 5th server overclocked.
fleet::FleetState
makeFleet(const std::vector<fleet::SkuParams> &skus, std::size_t servers,
          std::size_t sku_count)
{
    fleet::FleetState state;
    state.reserve(servers);
    for (std::size_t i = 0; i < servers; ++i) {
        const auto sku = static_cast<std::uint32_t>(i % sku_count);
        state.addServers(1, sku, skus[sku].coolantRef);
        state.utilization[i] =
            0.03 + 0.94 * static_cast<double>(i % 13) / 12.0;
        state.freqLevel[i] =
            i % 5 == 0 ? fleet::kOverclocked : fleet::kNominal;
    }
    return state;
}

/// The oracle proper: run @p minutes batched steps against per-server
/// scalar twins and demand bit equality on every physics column.
void
expectScalarBatchedIdentity(const std::vector<fleet::SkuParams> &skus,
                            std::size_t servers, std::size_t sku_count,
                            int minutes)
{
    fleet::FleetState state = makeFleet(skus, servers, sku_count);
    std::vector<ScalarServer> twins;
    twins.reserve(servers);
    for (std::size_t i = 0; i < servers; ++i)
        twins.push_back(scalarTwin(state, skus, i));

    for (int m = 0; m < minutes; ++m) {
        fleet::stepAll(state, skus, 60.0);
        for (std::size_t i = 0; i < servers; ++i) {
            ScalarServer &sv = twins[i];
            stepScalar(sv, 60.0);
            const fleet::SkuParams &p = skus[state.skuIndex[i]];
            const power::VfCurve &vf = sv.socket.curve();
            const Volts volt = vf.voltageFor(sv.frequency);
            const power::OperatingPoint op{sv.frequency, volt,
                                           sv.utilization};
            // Bit-exact (EXPECT_EQ, not EXPECT_DOUBLE_EQ): the contract
            // is identity, not closeness.
            EXPECT_EQ(state.dynamicPower[i], sv.socket.dynamicPower(op))
                << "server " << i << " minute " << m;
            EXPECT_EQ(state.tj[i], sv.node.temperature())
                << "server " << i << " minute " << m;
            EXPECT_EQ(state.wearConsumed[i], sv.tracker.consumed())
                << "server " << i << " minute " << m;
            EXPECT_EQ(state.serviceYears[i], sv.tracker.age())
                << "server " << i << " minute " << m;
            EXPECT_EQ(state.totalPower[i],
                      (state.dynamicPower[i] + state.leakagePower[i]) *
                              p.sockets +
                          p.constantPower)
                << "server " << i << " minute " << m;
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence oracle.
// ---------------------------------------------------------------------

TEST(FleetEquivalence, UniformSkuBitExact)
{
    const auto skus = mixedSkus();
    expectScalarBatchedIdentity(skus, 48, /*sku_count=*/1, /*minutes=*/8);
}

TEST(FleetEquivalence, MixedSkuBitExact)
{
    const auto skus = mixedSkus();
    ASSERT_EQ(skus.size(), 2u);
    expectScalarBatchedIdentity(skus, 64, /*sku_count=*/2, /*minutes=*/8);
}

TEST(FleetEquivalence, SingleServerFleet)
{
    const auto skus = mixedSkus();
    expectScalarBatchedIdentity(skus, 1, /*sku_count=*/1, /*minutes=*/20);
}

TEST(FleetEquivalence, StepAllComposesFromKernels)
{
    const auto skus = mixedSkus();
    fleet::FleetState a = makeFleet(skus, 32, 2);
    fleet::FleetState b = makeFleet(skus, 32, 2);

    // The range kernels over two ranges, as shards would call them.
    const Years year_step = fleet::secondsToYears(60.0);
    for (int m = 0; m < 5; ++m) {
        fleet::stepAll(a, skus, 60.0);
        fleet::prepareThermalStep(b, skus, 60.0);
        for (const auto &[begin, end] :
             {std::pair<std::size_t, std::size_t>{0, 13}, {13, 32}}) {
            fleet::stepPower(b, skus, begin, end);
            fleet::stepThermal(b, skus, 60.0, begin, end);
            fleet::stepWear(b, skus, year_step, begin, end);
        }
    }
    EXPECT_EQ(a.dynamicPower, b.dynamicPower);
    EXPECT_EQ(a.leakagePower, b.leakagePower);
    EXPECT_EQ(a.totalPower, b.totalPower);
    EXPECT_EQ(a.tj, b.tj);
    EXPECT_EQ(a.wearConsumed, b.wearConsumed);
    EXPECT_EQ(a.serviceYears, b.serviceYears);
}

/** @return whether @p a and @p b hold the same bits. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FleetState, SummarizeMatchesSeparateFolds)
{
    const auto skus = mixedSkus();
    fleet::FleetState state = makeFleet(skus, 40, 2);
    fleet::stepAll(state, skus, 60.0);
    double tj_sum = 0.0;
    double power = 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
        tj_sum += state.tj[i];
        power += state.totalPower[i];
    }
    const fleet::FleetState::Summary summary = state.summarize();
    EXPECT_EQ(summary.meanTj, tj_sum / 40.0);
    EXPECT_EQ(summary.maxTj,
              *std::max_element(state.tj.begin(), state.tj.end()));
    EXPECT_EQ(summary.power, power);

    // Equal maxima: the first one is kept, as std::max_element does.
    std::fill(state.tj.begin(), state.tj.end(), -5.0);
    state.tj[7] = -0.0;
    state.tj[31] = +0.0;
    EXPECT_TRUE(std::signbit(state.summarize().maxTj));

    const fleet::FleetState::Summary empty = fleet::FleetState{}.summarize();
    EXPECT_EQ(empty.meanTj, 0.0);
    EXPECT_EQ(empty.maxTj, 0.0);
    EXPECT_EQ(empty.power, 0.0);
}

TEST(FleetEquivalence, RepriceMatchesFreshStepPower)
{
    // After a frequency change at unchanged Tj, re-pricing with the
    // stored leakage must equal a fresh stepPower bit for bit.
    const auto skus = mixedSkus();
    for (const std::size_t sku_count : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message() << sku_count << " SKUs");
        fleet::FleetState state = makeFleet(skus, 50, sku_count);
        fleet::stepAll(state, skus, 60.0); // Tj leaves the coolant ref.
        fleet::stepPower(state, skus, 0, state.size()); // Current-Tj leak.
        for (std::size_t i = 0; i < state.size(); i += 3) {
            state.freqLevel[i] = state.freqLevel[i] == fleet::kNominal
                                     ? fleet::kOverclocked
                                     : fleet::kNominal;
        }
        fleet::FleetState fresh = state;
        fleet::stepPower(fresh, skus, 0, fresh.size());
        ASSERT_FALSE(sameBits(state.totalPower, fresh.totalPower));

        // Two ranges and an empty one, as shards would call it.
        fleet::repricePower(state, skus, 0, 17);
        fleet::repricePower(state, skus, 17, 17);
        fleet::repricePower(state, skus, 17, state.size());
        EXPECT_TRUE(sameBits(state.dynamicPower, fresh.dynamicPower));
        EXPECT_TRUE(sameBits(state.leakagePower, fresh.leakagePower));
        EXPECT_TRUE(sameBits(state.totalPower, fresh.totalPower));
    }
    fleet::FleetState state = makeFleet(skus, 4, 1);
    EXPECT_THROW(fleet::repricePower(state, skus, 3, 5), FatalError);
    EXPECT_THROW(fleet::repricePower(state, {}, 0, 4), FatalError);
}

// ---------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------

TEST(FleetEdgeCases, ZeroUtilizationFleet)
{
    const auto skus = mixedSkus();
    fleet::FleetState state = makeFleet(skus, 24, 2);
    for (std::size_t i = 0; i < state.size(); ++i)
        state.utilization[i] = 0.0;

    for (int m = 0; m < 10; ++m)
        fleet::stepAll(state, skus, 60.0);

    for (std::size_t i = 0; i < state.size(); ++i) {
        const fleet::SkuParams &p = skus[state.skuIndex[i]];
        EXPECT_EQ(state.dynamicPower[i], 0.0);
        EXPECT_GT(state.leakagePower[i], 0.0);
        // With no dynamic power the junction relaxes toward the
        // leakage-only steady state, staying at or above the coolant.
        EXPECT_GE(state.tj[i], p.coolantRef);
        // Idle servers still wear: the supply stays up, so the duty
        // floor applies and wear stays strictly positive and finite.
        EXPECT_GT(state.wearConsumed[i], 0.0);
        EXPECT_TRUE(std::isfinite(state.wearConsumed[i]));
    }
}

TEST(FleetEdgeCases, WearAccumulationStaysFinite)
{
    // Years of minutes on a hot overclocked fleet: wear must grow
    // monotonically without ever producing NaN/inf.
    const auto skus = mixedSkus();
    fleet::FleetState state = makeFleet(skus, 8, 2);
    for (std::size_t i = 0; i < state.size(); ++i) {
        state.utilization[i] = 1.0;
        state.freqLevel[i] = fleet::kOverclocked;
    }

    double prev_mean = 0.0;
    for (int m = 0; m < 20000; ++m) {
        fleet::stepAll(state, skus, 60.0);
        if (m % 4000 == 0) {
            const double mean = state.meanWearConsumed();
            EXPECT_TRUE(std::isfinite(mean)) << "minute " << m;
            EXPECT_GT(mean, prev_mean) << "minute " << m;
            prev_mean = mean;
        }
    }
    for (std::size_t i = 0; i < state.size(); ++i) {
        EXPECT_TRUE(std::isfinite(state.wearConsumed[i]));
        EXPECT_TRUE(std::isfinite(state.tj[i]));
        EXPECT_TRUE(std::isfinite(state.meanWearCredit(skus)));
    }
}

TEST(FleetEdgeCases, AllCappedMinute)
{
    // Feed sized barely above the physics floor (idle leakage +
    // constant power): every rack must be capped every minute, and the
    // per-server loop must survive an entire horizon in that state.
    auto physics = cluster::PerServerPhysics::openComputeImmersed();
    const fleet::SkuParams &p = physics.skus[0];

    std::vector<cluster::RackConfig> racks(2);
    for (auto &r : racks) {
        r.servers = 8;
        r.overclockDemand = 0.5;
    }
    const double servers_total = 16.0;
    const Watts floor_per_server =
        p.leakRef * std::exp((p.coolantRef - p.leakRefTj) / p.leakTheta) *
            p.sockets +
        p.constantPower;
    const Watts feed = 1.05 * servers_total * floor_per_server;

    cluster::DatacenterPowerSim sim(racks, feed, /*oversubscription=*/1.2,
                                    /*oc_speedup=*/1.2);
    sim.enablePerServerFidelity(std::move(physics));

    util::Rng rng(11);
    const auto outcome =
        sim.run(cluster::OverclockPolicy::Always, rng, 1.0);
    EXPECT_DOUBLE_EQ(outcome.cappingMinutesShare, 1.0);
    EXPECT_EQ(outcome.fleet.servers, 16u);
    EXPECT_TRUE(std::isfinite(outcome.fleet.meanWearConsumed));
    EXPECT_GT(outcome.fleet.meanTj, 0.0);
    EXPECT_GT(outcome.energyMwh, 0.0);
}

// ---------------------------------------------------------------------
// Instrumentation regression: run() without telemetry or metrics must
// produce the outcome of an instrumented run.
// ---------------------------------------------------------------------

void
expectOutcomesIdentical(const cluster::DatacenterOutcome &plain,
                        const cluster::DatacenterOutcome &instrumented)
{
    EXPECT_EQ(plain.policy, instrumented.policy);
    EXPECT_EQ(plain.energyMwh, instrumented.energyMwh);
    EXPECT_EQ(plain.meanFeedUtilization,
              instrumented.meanFeedUtilization);
    EXPECT_EQ(plain.cappingMinutesShare,
              instrumented.cappingMinutesShare);
    EXPECT_EQ(plain.overclockShare, instrumented.overclockShare);
    EXPECT_EQ(plain.cappedOverclockShare,
              instrumented.cappedOverclockShare);
    EXPECT_EQ(plain.speedupDelivered, instrumented.speedupDelivered);
    EXPECT_EQ(plain.fleet.servers, instrumented.fleet.servers);
    EXPECT_EQ(plain.fleet.meanTj, instrumented.fleet.meanTj);
    EXPECT_EQ(plain.fleet.peakTj, instrumented.fleet.peakTj);
    EXPECT_EQ(plain.fleet.meanWearConsumed,
              instrumented.fleet.meanWearConsumed);
    EXPECT_EQ(plain.fleet.meanWearCredit,
              instrumented.fleet.meanWearCredit);
    EXPECT_EQ(plain.fleet.meanServerPower,
              instrumented.fleet.meanServerPower);
}

TEST(DatacenterRunOverloads, RackAggregateIdenticalWithTelemetry)
{
    std::vector<cluster::RackConfig> racks(3);
    racks[2].priority = 2;
    cluster::DatacenterPowerSim sim(racks, 40000.0, 1.3, 1.2);

    // Identical seeds: telemetry attachment must not perturb the run.
    util::Rng rng_plain(7);
    util::Rng rng_inst(7);
    const auto plain =
        sim.run(cluster::OverclockPolicy::PowerAware, rng_plain, 2.0);
    obs::TimeSeries telemetry;
    const auto instrumented = sim.run(cluster::OverclockPolicy::PowerAware,
                                      rng_inst, 2.0, &telemetry);

    expectOutcomesIdentical(plain, instrumented);
    EXPECT_EQ(telemetry.rows(), static_cast<std::size_t>(2.0 * 24 * 60));
}

TEST(DatacenterRunOverloads, PerServerIdenticalWithTelemetry)
{
    std::vector<cluster::RackConfig> racks(2);
    for (auto &r : racks)
        r.servers = 12;
    cluster::DatacenterPowerSim sim(racks, 18000.0, 1.2, 1.2);
    sim.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());

    util::Rng rng_plain(21);
    util::Rng rng_inst(21);
    const auto plain =
        sim.run(cluster::OverclockPolicy::PowerAware, rng_plain, 1.0);
    obs::TimeSeries telemetry;
    const auto instrumented = sim.run(cluster::OverclockPolicy::PowerAware,
                                      rng_inst, 1.0, &telemetry);

    expectOutcomesIdentical(plain, instrumented);
    ASSERT_EQ(telemetry.columns().size(), 7u);
    EXPECT_EQ(telemetry.columns()[4], "mean_tj_c");
    EXPECT_EQ(telemetry.columns()[5], "max_tj_c");
    EXPECT_EQ(telemetry.columns()[6], "mean_wear");
}

// ---------------------------------------------------------------------
// Pinned outcomes: every DatacenterOutcome field, the telemetry schema
// and the telemetry's minute totals of run() for each policy in both
// fidelity modes. A refactor of the minute loop must reproduce them
// bit for bit (EXPECT_EQ, not closeness); a model change that moves
// them must update them deliberately.
// ---------------------------------------------------------------------

/** Minute totals summed from a run's telemetry. */
struct TelemetryTotals
{
    std::uint64_t minutes = 0;         ///< Rows.
    std::uint64_t cappingMinutes = 0;  ///< Sum of `capped`.
    double ocServerMinutes = 0.0;      ///< Sum of `oc_server_minutes`.

    bool operator==(const TelemetryTotals &) const = default;
};

void
PrintTo(const TelemetryTotals &t, std::ostream *os)
{
    *os << "{" << t.minutes << ", " << t.cappingMinutes << ", "
        << t.ocServerMinutes << "}";
}

struct PinnedRun
{
    cluster::OverclockPolicy policy;
    cluster::DatacenterOutcome outcome;
    TelemetryTotals totals;
};

void
expectPinnedRuns(const cluster::DatacenterPowerSim &sim,
                 std::uint64_t seed, double days,
                 const std::vector<PinnedRun> &pins,
                 const std::vector<std::string> &columns)
{
    for (const PinnedRun &pin : pins) {
        SCOPED_TRACE(static_cast<int>(pin.policy));
        util::Rng rng(seed);
        obs::TimeSeries telemetry;
        const auto outcome = sim.run(pin.policy, rng, days, &telemetry);
        expectOutcomesIdentical(pin.outcome, outcome);
        ASSERT_EQ(telemetry.columns(), columns);
        TelemetryTotals totals;
        totals.minutes = telemetry.rows();
        for (std::size_t i = 0; i < telemetry.rows(); ++i) {
            totals.cappingMinutes +=
                static_cast<std::uint64_t>(telemetry.row(i)[2]);
            totals.ocServerMinutes += telemetry.row(i)[3];
        }
        EXPECT_EQ(totals, pin.totals);
        EXPECT_EQ(totals.minutes, static_cast<std::size_t>(days * 24 * 60));
    }
}

TEST(DatacenterRunOverloads, RackAggregatePinnedOutcomes)
{
    using cluster::OverclockPolicy;
    std::vector<cluster::RackConfig> racks(3);
    racks[2].priority = 2;
    const cluster::DatacenterPowerSim sim(racks, 40000.0, 1.3, 1.2);
    const std::vector<PinnedRun> pins = {
        {OverclockPolicy::Never,
         {OverclockPolicy::Never, 1.4732607239254818, 0.76732329371119112,
          0.003472222222222222, 0, 0, 1, {}},
         {2880, 10, 0}},
        {OverclockPolicy::Always,
         {OverclockPolicy::Always, 1.6060641343150646, 0.83649173662243914,
          0.25833333333333336, 1, 0.24324487097243486, 1.1513510258055155,
          {}},
         {2880, 744, 46937.385605291478}},
        {OverclockPolicy::PowerAware,
         {OverclockPolicy::PowerAware, 1.5728314129780037,
          0.81918302759270756, 0.003472222222222222, 0.6364054224696033, 0,
          1.1272810844939194, {}},
         {2880, 10, 29871.206715754091}},
    };
    expectPinnedRuns(
        sim, 7, 2.0, pins,
        {"feed_draw_w", "feed_utilization", "capped", "oc_server_minutes"});
}

TEST(DatacenterRunOverloads, PerServerPinnedOutcomes)
{
    using cluster::OverclockPolicy;
    std::vector<cluster::RackConfig> racks(2);
    for (auto &r : racks)
        r.servers = 12;
    racks[1].priority = 2;
    // Feed sized so capping, capped overclocks and the PowerAware
    // backout all occur within the day.
    cluster::DatacenterPowerSim sim(racks, 11500.0, 1.2, 1.2);
    sim.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    const std::vector<PinnedRun> pins = {
        {OverclockPolicy::Never,
         {OverclockPolicy::Never, 0.25713540536797663, 0.93165001944917658,
          0.38194444444444442, 0, 0, 1,
          {24, 58.284031466868072, 64.532698212478323,
           0.00011551979000005893, 0.0004320503674263649,
           455.12460845228605}},
         {1440, 550, 0}},
        {OverclockPolicy::Always,
         {OverclockPolicy::Always, 0.26014708762454014, 0.94256191168309889,
          0.48541666666666666, 1, 0.34095902804704664, 1.1318081943905725,
          {24, 58.743105368287019, 66.819285615064288,
           0.00013411533418176397, 0.00041345482324465989,
           466.60287963057976}},
         {1440, 699, 7737}},
        {OverclockPolicy::PowerAware,
         {OverclockPolicy::PowerAware, 0.25967103613947562,
          0.94083708746185379, 0.38194444444444442, 0.33488432208866487, 0,
          1.0669768644177251,
          {24, 58.460105716569728, 64.532698212478323,
           0.0001227556284986138, 0.00042481452892781011,
           459.52788833764617}},
         {1440, 550, 2591}},
    };
    expectPinnedRuns(
        sim, 21, 1.0, pins,
        {"feed_draw_w", "feed_utilization", "capped", "oc_server_minutes",
         "mean_tj_c", "max_tj_c", "mean_wear"});
}

TEST(DatacenterRunOverloads, HorizonShorterThanOneMinuteIsFatal)
{
    std::vector<cluster::RackConfig> racks(2);
    for (auto &r : racks)
        r.servers = 4;
    cluster::DatacenterPowerSim rack_sim(racks, 8000.0, 1.2, 1.2);
    cluster::DatacenterPowerSim server_sim(racks, 8000.0, 1.2, 1.2);
    server_sim.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const cluster::DatacenterPowerSim *sim : {&rack_sim, &server_sim}) {
        for (const double days : {1e-13, 0.5 / 1440.0, 0.0, -1.0, nan, inf}) {
            SCOPED_TRACE(days);
            util::Rng rng(3);
            EXPECT_THROW(
                sim->run(cluster::OverclockPolicy::PowerAware, rng, days),
                FatalError);
        }
        // Exactly one minute is the shortest valid horizon.
        util::Rng rng(3);
        obs::TimeSeries telemetry;
        const auto outcome = sim->run(cluster::OverclockPolicy::PowerAware,
                                      rng, 1.0 / 1440.0, &telemetry);
        EXPECT_EQ(telemetry.rows(), 1u);
        EXPECT_TRUE(std::isfinite(outcome.meanFeedUtilization));
        EXPECT_TRUE(std::isfinite(outcome.cappingMinutesShare));
    }
    for (const double days : {1e-13, nan, inf}) {
        util::Rng rng(3);
        EXPECT_THROW(server_sim.startPerServerSession(
                         cluster::OverclockPolicy::Never, rng, days),
                     FatalError);
    }
}

// ---------------------------------------------------------------------
// Sharded determinism oracle: the intra-run parallelism contract of
// DatacenterPowerSim::setSimThreads and the sharded fleet kernels —
// threads == 1 is the serial loop, and ANY thread count (and any shard
// plan) reproduces it bit-for-bit. EXPECT_EQ throughout: the contract
// is identity, not closeness.
// ---------------------------------------------------------------------

void
expectColumnsIdentical(const fleet::FleetState &a,
                       const fleet::FleetState &b)
{
    EXPECT_EQ(a.dynamicPower, b.dynamicPower);
    EXPECT_EQ(a.leakagePower, b.leakagePower);
    EXPECT_EQ(a.totalPower, b.totalPower);
    EXPECT_EQ(a.tj, b.tj);
    EXPECT_EQ(a.wearConsumed, b.wearConsumed);
    EXPECT_EQ(a.serviceYears, b.serviceYears);
}

TEST(ShardedDeterminism, StepAllMatchesSerialAcrossPlansAndThreads)
{
    const auto skus = mixedSkus();
    const std::size_t n = 257; // Prime: every plan splits unevenly.
    fleet::FleetState serial = makeFleet(skus, n, 2);
    for (int m = 0; m < 6; ++m)
        fleet::stepAll(serial, skus, 60.0);

    for (std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
        for (std::size_t threads : {1u, 2u, 7u, 8u}) {
            fleet::FleetState state = makeFleet(skus, n, 2);
            const util::ShardPlan plan = util::ShardPlan::even(n, shards);
            util::ShardRunner runner(threads);
            for (int m = 0; m < 6; ++m)
                fleet::stepAll(state, skus, 60.0, plan, runner);
            expectColumnsIdentical(serial, state);
        }
    }
}

TEST(ShardedDeterminism, StepAllMatchesSerialOnAlignedPlan)
{
    const auto skus = mixedSkus();
    // Rack-aligned plan over uneven groups, the datacenter's geometry.
    const std::vector<std::size_t> group_begin = {0, 9, 18, 40, 47, 61};
    const std::size_t n = group_begin.back();
    fleet::FleetState serial = makeFleet(skus, n, 2);
    fleet::FleetState state = makeFleet(skus, n, 2);
    const util::ShardPlan plan = util::ShardPlan::alignedTo(group_begin, 3);
    util::ShardRunner runner(4);
    for (int m = 0; m < 6; ++m) {
        fleet::stepAll(serial, skus, 60.0);
        fleet::stepAll(state, skus, 60.0, plan, runner);
    }
    expectColumnsIdentical(serial, state);
}

void
expectSeriesIdentical(const obs::TimeSeries &a, const obs::TimeSeries &b)
{
    ASSERT_EQ(a.columns(), b.columns());
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        ASSERT_EQ(a.row(i), b.row(i)) << "row " << i;
}

struct ShardedRun
{
    cluster::DatacenterOutcome outcome;
    obs::TimeSeries telemetry;
    obs::TimeSeries aggSeries;
};

/// One PowerAware run at @p threads sim threads with telemetry and a
/// FleetAggregator attached (so the sharded observe path is exercised
/// alongside the sharded physics). 4800 servers in per-server mode so
/// the grain-derived plan has several shards.
ShardedRun
runShardedDatacenter(std::size_t threads, bool per_server, bool mixed_sku)
{
    const std::size_t rack_count = per_server ? 120 : 96;
    std::vector<cluster::RackConfig> racks(rack_count);
    for (std::size_t r = 0; r < racks.size(); ++r) {
        racks[r].servers = 40;
        racks[r].priority = r % 3 == 0 ? 2 : 1;
        racks[r].overclockDemand = 0.6;
    }
    // ~330 W per server: capping and the PowerAware backout both fire
    // even over the short early-diurnal horizon, so every sharded
    // branch runs.
    cluster::DatacenterPowerSim sim(
        racks, 330.0 * 40.0 * static_cast<double>(rack_count), 1.25, 1.2);
    if (per_server) {
        auto physics = cluster::PerServerPhysics::openComputeImmersed();
        if (mixed_sku) {
            physics.skus = mixedSkus();
            physics.rackSku.resize(rack_count);
            for (std::size_t r = 0; r < rack_count; ++r)
                physics.rackSku[r] = static_cast<std::uint32_t>(r % 2);
        }
        sim.enablePerServerFidelity(std::move(physics));
    }
    sim.setSimThreads(threads);

    obs::FleetAggregator::Config cfg;
    cfg.skuCount = mixed_sku ? 2 : 1;
    obs::FleetAggregator agg(cfg);
    sim.attachObservability(&agg, nullptr);

    ShardedRun run;
    util::Rng rng(31);
    run.outcome = sim.run(cluster::OverclockPolicy::PowerAware, rng, 0.1,
                          &run.telemetry);
    run.aggSeries = agg.takeSeries();
    return run;
}

void
expectShardedRunsIdentical(bool per_server, bool mixed_sku)
{
    const ShardedRun serial =
        runShardedDatacenter(1, per_server, mixed_sku);
    EXPECT_GT(serial.outcome.cappingMinutesShare, 0.0);
    for (const std::size_t threads : {2u, 7u, 8u}) {
        const ShardedRun sharded =
            runShardedDatacenter(threads, per_server, mixed_sku);
        expectOutcomesIdentical(serial.outcome, sharded.outcome);
        expectSeriesIdentical(serial.telemetry, sharded.telemetry);
        expectSeriesIdentical(serial.aggSeries, sharded.aggSeries);
    }
}

TEST(ShardedDeterminism, DatacenterPerServerUniformSku)
{
    expectShardedRunsIdentical(/*per_server=*/true, /*mixed_sku=*/false);
}

TEST(ShardedDeterminism, DatacenterPerServerMixedSku)
{
    expectShardedRunsIdentical(/*per_server=*/true, /*mixed_sku=*/true);
}

TEST(ShardedDeterminism, DatacenterRackAggregate)
{
    expectShardedRunsIdentical(/*per_server=*/false, /*mixed_sku=*/false);
}

TEST(ShardedDeterminism, ConcurrentSnapshotDuringShardedRun)
{
    // The shard-race oracle scripts/tsan.sh holds under
    // IMSIM_SANITIZE=thread: a sharded per-server run while an outside
    // thread hammers the aggregator's mutex-published snapshot(). Any
    // unsynchronised column access between shard workers, the minute
    // loop, or the poller is a TSan report.
    std::vector<cluster::RackConfig> racks(120);
    for (auto &r : racks)
        r.servers = 40;
    cluster::DatacenterPowerSim sim(racks, 2.4e6, 1.25, 1.2);
    sim.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    sim.setSimThreads(4);
    obs::FleetAggregator::Config cfg;
    cfg.record = false;
    obs::FleetAggregator agg(cfg);
    sim.attachObservability(&agg, nullptr);

    std::atomic<bool> stop{false};
    std::size_t polled = 0;
    std::thread poller([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const obs::FleetSample sample = agg.snapshot();
            if (sample.units > 0) {
                EXPECT_TRUE(std::isfinite(sample.fleetPower));
                ++polled;
            }
        }
    });
    util::Rng rng(5);
    const auto outcome =
        sim.run(cluster::OverclockPolicy::Always, rng, 0.02);
    stop.store(true, std::memory_order_relaxed);
    poller.join();
    EXPECT_EQ(outcome.fleet.servers, 4800u);
    EXPECT_GT(agg.ticks(), 0u);
}

} // namespace
} // namespace imsim
