/**
 * @file
 * Unit tests for the extension modules: DVFS transition costs, the
 * synthetic-telemetry trace generator and opportunity analysis, the
 * live-migration model with the overclock-stop-gap policy, the
 * predictive scaler, and environmental accounting.
 */

#include <gtest/gtest.h>

#include <limits>

#include "autoscale/predictive.hh"
#include "cluster/migration.hh"
#include "power/dvfs.hh"
#include "thermal/environment.hh"
#include "util/logging.hh"
#include "workload/trace.hh"

namespace imsim {
namespace {

// --- DVFS transitions ---------------------------------------------------------

TEST(Dvfs, TransitionsTakeTensOfMicroseconds)
{
    // The paper's premise: a frequency change costs tens of microseconds.
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    const auto up = dvfs.transition(3.4, 4.1);
    EXPECT_GT(up.latency, 1e-6);
    EXPECT_LT(up.latency, 1e-3);
    EXPECT_EQ(up.steps, 7);
}

TEST(Dvfs, DownTransitionsAreFasterThanUp)
{
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    const auto up = dvfs.transition(3.4, 4.1);
    const auto down = dvfs.transition(4.1, 3.4);
    EXPECT_LT(down.latency, up.latency);
}

TEST(Dvfs, NoOpTransitionIsFree)
{
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    const auto none = dvfs.transition(3.4, 3.4);
    EXPECT_EQ(none.steps, 0);
    EXPECT_DOUBLE_EQ(none.latency, 0.0);
    EXPECT_DOUBLE_EQ(none.energyJ, 0.0);
}

TEST(Dvfs, ScaleUpBeatsScaleOutByOrdersOfMagnitude)
{
    // Sec. V: 60 s scale-out vs tens-of-microseconds scale-up.
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    const double ratio = dvfs.scaleOutToScaleUpRatio(60.0, 3.4, 4.1);
    EXPECT_GT(ratio, 1e5);
}

TEST(Dvfs, GovernorOverheadIsNegligible)
{
    // A 3 s decision loop that changes frequency every tick loses a
    // vanishing fraction of time to the transitions themselves.
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    EXPECT_LT(dvfs.dutyCycleOverhead(3.0, 1.0), 1e-4);
}

TEST(Dvfs, InvalidInputsAreFatal)
{
    power::DvfsModel dvfs(power::VfCurve::xeonW3175x());
    EXPECT_THROW(dvfs.transition(0.0, 3.4), FatalError);
    EXPECT_THROW(dvfs.dutyCycleOverhead(0.0, 0.5), FatalError);
    EXPECT_THROW(dvfs.scaleOutToScaleUpRatio(-1.0, 3.4, 4.1), FatalError);
}

// --- Trace generation and opportunity analysis ---------------------------------

TEST(Trace, GeneratesRequestedLength)
{
    workload::TraceGenerator gen;
    util::Rng rng(1);
    const auto trace = gen.generate(rng, 7.0);
    EXPECT_EQ(trace.size(), 7u * 288u); // 5-minute samples.
    for (const double u : trace) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(Trace, MeanUtilizationNearTarget)
{
    workload::TraceParams params;
    params.meanUtil = 0.45;
    workload::TraceGenerator gen(params);
    util::Rng rng(2);
    const auto trace = gen.generate(rng, 14.0);
    double total = 0.0;
    for (const double u : trace)
        total += u;
    EXPECT_NEAR(total / trace.size(), 0.45, 0.05);
}

TEST(Trace, DiurnalPatternPresent)
{
    workload::TraceGenerator gen;
    util::Rng rng(3);
    const auto trace = gen.generate(rng, 7.0);
    // Compare 16:00 samples (peak) against 04:00 samples (trough).
    double peak = 0.0;
    double trough = 0.0;
    int peak_n = 0;
    int trough_n = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double t = static_cast<double>(i) * gen.params().sampleInterval;
        const double hour = std::fmod(t / 3600.0, 24.0);
        if (hour >= 15.0 && hour < 17.0) {
            peak += trace[i];
            ++peak_n;
        } else if (hour >= 3.0 && hour < 5.0) {
            trough += trace[i];
            ++trough_n;
        }
    }
    ASSERT_GT(peak_n, 0);
    ASSERT_GT(trough_n, 0);
    EXPECT_GT(peak / peak_n, trough / trough_n + 0.15);
}

TEST(Trace, OpportunityLargerUnderImmersion)
{
    // The Sec. IV claim: with air cooling there is some turbo headroom
    // at partial utilization; 2PIC guarantees more.
    workload::TraceGenerator gen;
    util::Rng rng(4);
    const auto trace = gen.generate(rng, 3.0);

    const auto governor = hw::TurboGovernor::skylake8180();
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    thermal::AirCooling air(thermal::CoolingTech::DirectEvaporative, 35.0,
                            0.21);
    thermal::TwoPhaseImmersionCooling fc(
        thermal::fc3284(),
        {thermal::BoilingInterface::Coating::DirectIhs});

    const auto air_report =
        workload::analyzeOpportunity(governor, socket, air, trace);
    const auto fc_report =
        workload::analyzeOpportunity(governor, socket, fc, trace);

    // Sec. IV: opportunities exist "still with air cooling, depending on
    // the number of active cores and their utilizations"...
    EXPECT_GT(air_report.overclockShare, 0.1);
    EXPECT_LT(air_report.overclockShare, 0.95);
    // ...and 2PIC extends them (lower leakage frees power budget).
    EXPECT_GT(fc_report.overclockShare, air_report.overclockShare);
    EXPECT_GE(fc_report.meanSustainable, air_report.meanSustainable);
    const double sum = fc_report.turboShare + fc_report.overclockShare +
                       fc_report.guaranteedShare;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Trace, HigherTdpShrinksAirOpportunity)
{
    // "Such opportunities will diminish in future component generations
    // with higher TDP": emulate a higher-power part by shrinking the
    // governor's power budget relative to its dynamic demand.
    workload::TraceGenerator gen;
    util::Rng rng(5);
    const auto trace = gen.generate(rng, 3.0);
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    thermal::AirCooling air(thermal::CoolingTech::DirectEvaporative, 35.0,
                            0.21);

    auto today = hw::TurboGovernor::skylake8180();
    auto future = hw::TurboGovernor::skylake8180();
    future.setTdp(160.0); // Same table, tighter effective budget.

    const auto today_report =
        workload::analyzeOpportunity(today, socket, air, trace);
    const auto future_report =
        workload::analyzeOpportunity(future, socket, air, trace);
    EXPECT_LT(future_report.meanSustainable,
              today_report.meanSustainable);
}

TEST(Trace, InvalidParamsAreFatal)
{
    workload::TraceParams params;
    params.meanUtil = 1.5;
    EXPECT_THROW(workload::TraceGenerator{params}, FatalError);
    params.meanUtil = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(workload::TraceGenerator{params}, FatalError);
    params = {};
    params.noisePhi = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(workload::TraceGenerator{params}, FatalError);
    workload::TraceGenerator gen;
    util::Rng rng(6);
    EXPECT_THROW(gen.generate(rng, 0.0), FatalError);
    EXPECT_THROW(gen.generate(rng, std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
    EXPECT_THROW(gen.generate(rng, std::numeric_limits<double>::infinity()),
                 FatalError);
    // Positive but too short to yield a single sample.
    EXPECT_THROW(gen.generate(rng, 1e-13), FatalError);
}

TEST(Trace, OpportunityActiveCoresFollowGovernor)
{
    // A sample's active cores are round(u * governor.cores()) clamped to
    // [1, cores]: an idle sample counts one core, a saturated one all.
    const auto governor = hw::TurboGovernor::skylake8180();
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    thermal::AirCooling air(thermal::CoolingTech::DirectEvaporative, 35.0,
                            0.21);
    const auto check = [&](double u, int active_cores) {
        SCOPED_TRACE(u);
        const auto report =
            workload::analyzeOpportunity(governor, socket, air, {u});
        // One sample: the mean sustainable frequency is that sample's.
        const hw::FrequencyDomain domain =
            governor.classify(report.meanSustainable, active_cores);
        const bool oc = domain == hw::FrequencyDomain::Overclocking ||
                        domain == hw::FrequencyDomain::NonOperating;
        EXPECT_EQ(report.overclockShare, oc ? 1.0 : 0.0);
        EXPECT_EQ(report.turboShare,
                  domain == hw::FrequencyDomain::Turbo ? 1.0 : 0.0);
        EXPECT_EQ(report.guaranteedShare,
                  domain == hw::FrequencyDomain::Guaranteed ? 1.0 : 0.0);
        return report.meanSustainable;
    };
    const GHz idle = check(0.0, 1);
    const GHz saturated = check(1.0, governor.cores());
    // Samples that round to the same core count give the same answer.
    EXPECT_EQ(check(0.01, 1), idle);
    EXPECT_EQ(check(0.99, governor.cores()), saturated);
    // More active cores share the same power budget.
    EXPECT_GT(idle, saturated);
}

TEST(Trace, OpportunityRejectsOutOfRangeSamples)
{
    const auto governor = hw::TurboGovernor::skylake8180();
    const auto socket = power::SocketPowerModel::skylakeServer(2.6);
    thermal::AirCooling air(thermal::CoolingTech::DirectEvaporative, 35.0,
                            0.21);
    for (const double u : {std::numeric_limits<double>::quiet_NaN(), 1.5,
                           -0.1}) {
        SCOPED_TRACE(u);
        EXPECT_THROW(workload::analyzeOpportunity(governor, socket, air,
                                                  {0.5, u}),
                     FatalError);
    }
}

// --- Live migration -------------------------------------------------------------

TEST(Migration, ConvergentPreCopyTerminates)
{
    cluster::MigrationModel model;
    const auto est = model.estimate();
    EXPECT_TRUE(est.converged);
    EXPECT_GT(est.rounds, 1);
    EXPECT_GT(est.totalTime, 10.0);  // 16 GB over 10 Gbps: tens of s.
    EXPECT_LT(est.totalTime, 120.0);
    EXPECT_LT(est.downtime, 1.0);    // Sub-second stop-and-copy.
    EXPECT_GT(est.dataCopiedGb, model.params().memoryGb);
}

TEST(Migration, DirtierGuestsTakeLonger)
{
    cluster::MigrationParams calm;
    calm.dirtyRateGbps = 0.5;
    cluster::MigrationParams busy;
    busy.dirtyRateGbps = 4.0;
    const auto calm_est = cluster::MigrationModel(calm).estimate();
    const auto busy_est = cluster::MigrationModel(busy).estimate();
    EXPECT_GT(busy_est.totalTime, calm_est.totalTime);
    EXPECT_GT(busy_est.downtime, calm_est.downtime);
}

TEST(Migration, NonConvergentGuestForcesStopAndCopy)
{
    cluster::MigrationParams hostile;
    hostile.dirtyRateGbps = 12.0; // Dirties faster than the link copies.
    const auto est = cluster::MigrationModel(hostile).estimate();
    EXPECT_FALSE(est.converged);
    EXPECT_GT(est.downtime, 0.5);
}

TEST(Migration, OverclockStopGapBeatsAllOtherResponses)
{
    // The Sec. V argument: overclock immediately, migrate in the
    // background — less degradation than enduring or migrating alone.
    cluster::MigrationModel migration;
    const double slowdown = 0.8;     // 20 % interference.
    const double oc_speedup = 1.21;  // OC1 on a core-bound app.
    const Seconds hotspot = 1800.0;  // Half an hour.
    const double wear = 2e-5;        // Per overclocked hour.

    const auto endure = cluster::evaluateHotspot(
        cluster::HotspotResponse::Endure, slowdown, oc_speedup, hotspot,
        migration, wear);
    const auto migrate = cluster::evaluateHotspot(
        cluster::HotspotResponse::MigrateOnly, slowdown, oc_speedup,
        hotspot, migration, wear);
    const auto stopgap = cluster::evaluateHotspot(
        cluster::HotspotResponse::OverclockStopGap, slowdown, oc_speedup,
        hotspot, migration, wear);

    EXPECT_LT(migrate.degradationSeconds, endure.degradationSeconds);
    EXPECT_LT(stopgap.degradationSeconds, migrate.degradationSeconds);
    EXPECT_GT(stopgap.wearFractionSpent, 0.0);
    // The stop-gap only overclocks for the migration window, not the
    // whole hotspot.
    EXPECT_LT(stopgap.overclockedTime, hotspot);
}

TEST(Migration, OverclockOnlySpendsWearForTheWholeHotspot)
{
    cluster::MigrationModel migration;
    const auto oc_only = cluster::evaluateHotspot(
        cluster::HotspotResponse::OverclockOnly, 0.8, 1.21, 3600.0,
        migration, 2e-5);
    EXPECT_DOUBLE_EQ(oc_only.overclockedTime, 3600.0);
    EXPECT_NEAR(oc_only.wearFractionSpent, 2e-5, 1e-12);
    EXPECT_DOUBLE_EQ(oc_only.migrationTime, 0.0);
}

TEST(Migration, InvalidInputsAreFatal)
{
    EXPECT_THROW(cluster::MigrationModel({0.0}), FatalError);
    cluster::MigrationModel migration;
    EXPECT_THROW(cluster::evaluateHotspot(
                     cluster::HotspotResponse::Endure, 1.5, 1.2, 60.0,
                     migration, 0.0),
                 FatalError);
    EXPECT_THROW(cluster::evaluateHotspot(
                     cluster::HotspotResponse::Endure, 0.8, 0.9, 60.0,
                     migration, 0.0),
                 FatalError);
}

// --- Predictive scaling -----------------------------------------------------------

TEST(Predictive, TracksLinearRamp)
{
    autoscale::HoltForecaster forecaster;
    for (int i = 0; i <= 20; ++i)
        forecaster.observe(i * 30.0, 0.20 + 0.001 * i * 30.0);
    // Signal: util = 0.2 + 0.001/s. Forecast 60 s out.
    EXPECT_NEAR(forecaster.forecast(60.0),
                0.20 + 0.001 * 660.0, 0.03);
    EXPECT_NEAR(forecaster.trend(), 0.001, 2e-4);
}

TEST(Predictive, FlatSignalForecastsItself)
{
    autoscale::HoltForecaster forecaster;
    for (int i = 0; i <= 20; ++i)
        forecaster.observe(i * 30.0, 0.35);
    EXPECT_NEAR(forecaster.forecast(300.0), 0.35, 1e-6);
}

TEST(Predictive, PlansProactiveScaleOutBeforeBreach)
{
    autoscale::HoltForecaster forecaster;
    // Ramping at 0.002/s from 0.30: crosses 0.50 in 100 s.
    for (int i = 0; i <= 20; ++i)
        forecaster.observe(i * 10.0, 0.30 + 0.002 * i * 10.0);
    const auto decision =
        autoscale::planProactive(forecaster, 0.50 + 0.40, 60.0, 600.0);
    // Breach of 0.90 predicted within the horizon but after 60 s: start
    // nothing yet.
    EXPECT_FALSE(decision.scaleOutNow);
    EXPECT_GT(decision.predictedBreach, 60.0);

    const auto urgent =
        autoscale::planProactive(forecaster, 0.52, 60.0, 600.0);
    // Breach of 0.52 arrives in under 60 s: scale out now and bridge
    // with overclock.
    EXPECT_TRUE(urgent.scaleOutNow);
    EXPECT_TRUE(urgent.overclockBridge);
}

TEST(Predictive, NoBreachNoAction)
{
    autoscale::HoltForecaster forecaster;
    for (int i = 0; i <= 10; ++i)
        forecaster.observe(i * 30.0, 0.30 - 0.0001 * i);
    const auto decision =
        autoscale::planProactive(forecaster, 0.50, 60.0, 600.0);
    EXPECT_FALSE(decision.scaleOutNow);
    EXPECT_FALSE(decision.overclockBridge);
    EXPECT_LT(decision.predictedBreach, 0.0);
}

TEST(Predictive, InvalidInputsAreFatal)
{
    EXPECT_THROW(autoscale::HoltForecaster(0.0, 0.5), FatalError);
    autoscale::HoltForecaster forecaster;
    forecaster.observe(10.0, 0.5);
    EXPECT_THROW(forecaster.observe(5.0, 0.5), FatalError);
    EXPECT_THROW(forecaster.forecast(-1.0), FatalError);
}

// --- Environmental accounting -------------------------------------------------------

TEST(Environment, ImmersionMatchesEvaporativeWue)
{
    // Sec. IV: "WUE will be at par with evaporative-cooled datacenters".
    EXPECT_DOUBLE_EQ(
        thermal::EnvironmentModel::waterUsageEffectiveness(
            thermal::CoolingTech::Immersion2P),
        thermal::EnvironmentModel::waterUsageEffectiveness(
            thermal::CoolingTech::DirectEvaporative));
}

TEST(Environment, LowerPueLowersEnergyCarbon)
{
    thermal::EnvironmentModel model;
    const auto air = model.footprint(
        thermal::CoolingTech::DirectEvaporative, 636.0);
    const auto immersion =
        model.footprint(thermal::CoolingTech::Immersion2P, 636.0);
    EXPECT_LT(immersion.co2EnergyKg, air.co2EnergyKg);
    EXPECT_LT(immersion.energyKwh, air.energyKwh);
}

TEST(Environment, VaporTrapsSuppressFluidCarbon)
{
    thermal::EnvironmentParams no_traps;
    no_traps.vaporTrapEfficiency = 0.0;
    thermal::EnvironmentParams traps;
    traps.vaporTrapEfficiency = 0.95;
    const double loss_g = 600.0; // A year of service events.
    const auto leaky = thermal::EnvironmentModel(no_traps).footprint(
        thermal::CoolingTech::Immersion2P, 636.0, loss_g);
    const auto trapped = thermal::EnvironmentModel(traps).footprint(
        thermal::CoolingTech::Immersion2P, 636.0, loss_g);
    EXPECT_NEAR(trapped.co2VaporKg, leaky.co2VaporKg * 0.05, 1e-9);
    EXPECT_LT(trapped.co2TotalKg, leaky.co2TotalKg);
}

TEST(Environment, RenewablesScaleEnergyCarbon)
{
    thermal::EnvironmentParams all_renewable;
    all_renewable.renewableFraction = 1.0;
    const auto footprint =
        thermal::EnvironmentModel(all_renewable)
            .footprint(thermal::CoolingTech::Immersion2P, 836.0);
    EXPECT_DOUBLE_EQ(footprint.co2EnergyKg, 0.0);
}

TEST(Environment, InvalidInputsAreFatal)
{
    thermal::EnvironmentParams params;
    params.renewableFraction = 1.5;
    EXPECT_THROW(thermal::EnvironmentModel{params}, FatalError);
    thermal::EnvironmentModel model;
    EXPECT_THROW(
        model.footprint(thermal::CoolingTech::Immersion2P, -1.0),
        FatalError);
}

} // namespace
} // namespace imsim
