/**
 * @file
 * Closed-loop control environment: determinism oracle across
 * --sim-threads, knob clamping, crisis survival, the PID/TCO
 * acceptance bar, and the regression pins for the autoscale boundary
 * and trace-generator fixes that shipped alongside the environment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "autoscale/predictive.hh"
#include "cluster/datacenter.hh"
#include "control/controllers.hh"
#include "control/env.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/trace.hh"

using namespace imsim;
using imsim::FatalError;

namespace {

control::ControlEnvConfig
shortConfig(std::size_t sim_threads = 1)
{
    control::ControlEnvConfig cfg;
    cfg.days = 0.05; // 14 five-minute epochs.
    cfg.simThreads = sim_threads;
    return cfg;
}

fault::FaultPlan
shortCrises(double days)
{
    const Seconds horizon = days * 86400.0;
    fault::FaultPlan plan;
    plan.at(0.10 * horizon,
            {fault::FaultKind::ServerCrash, fault::kAnyServer, 0.0});
    plan.at(0.30 * horizon,
            {fault::FaultKind::ServerRepair, fault::kAnyServer, 0.0});
    plan.at(0.40 * horizon,
            {fault::FaultKind::PowerDerate, fault::kAnyServer, 0.7});
    plan.at(0.60 * horizon,
            {fault::FaultKind::PowerRestore, fault::kAnyServer, 0.0});
    plan.at(0.70 * horizon,
            {fault::FaultKind::CoolingDegrade, fault::kAnyServer, 0.5});
    plan.at(0.90 * horizon,
            {fault::FaultKind::CoolingRestore, fault::kAnyServer, 0.0});
    return plan;
}

/** A scripted action schedule that exercises every knob. */
control::Action
scriptedAction(std::size_t epoch, const control::ControlEnv &env)
{
    control::Action action;
    switch (epoch % 4) {
      case 0:
        action.frequencyCeiling = env.maxCeiling();
        break;
      case 1:
        action.frequencyCeiling = env.minCeiling();
        action.feedCapacity = 0.8 * env.config().feedCapacity;
        break;
      case 2:
        action.frequencyCeiling =
            0.5 * (env.minCeiling() + env.maxCeiling());
        action.packingFraction = 0.5;
        break;
      case 3:
        action.frequencyCeiling = env.maxCeiling();
        action.packingFraction = 0.75;
        break;
    }
    return action;
}

struct Episode
{
    std::vector<control::Observation> observations;
    control::ControlOutcome outcome;
};

Episode
runScripted(std::size_t sim_threads)
{
    control::ControlEnvConfig cfg = shortConfig(sim_threads);
    cfg.crises = shortCrises(cfg.days);
    util::Rng rng(4242);
    control::ControlEnv env(cfg, rng);
    Episode episode;
    env.act(scriptedAction(0, env));
    bool more = true;
    while (more) {
        more = env.step();
        episode.observations.push_back(env.observe());
        env.act(scriptedAction(env.epochsDone(), env));
    }
    episode.outcome = env.finish();
    return episode;
}

} // namespace

// ---- determinism oracle -------------------------------------------------

TEST(ControlEnv, BitIdenticalAcrossSimThreads)
{
    const Episode serial = runScripted(1);
    const Episode sharded = runScripted(8);

    ASSERT_EQ(serial.observations.size(), sharded.observations.size());
    for (std::size_t i = 0; i < serial.observations.size(); ++i) {
        const auto &a = serial.observations[i];
        const auto &b = sharded.observations[i];
        // Bitwise: the sharded minute loop and aggregator reductions
        // promise exact reproduction, not approximate agreement.
        EXPECT_EQ(a.maxTjC, b.maxTjC) << "epoch " << i;
        EXPECT_EQ(a.p99TjC, b.p99TjC) << "epoch " << i;
        EXPECT_EQ(a.meanTjC, b.meanTjC) << "epoch " << i;
        EXPECT_EQ(a.fleetPowerW, b.fleetPowerW) << "epoch " << i;
        EXPECT_EQ(a.meanUtil, b.meanUtil) << "epoch " << i;
        EXPECT_EQ(a.p99WearRatePerYear, b.p99WearRatePerYear)
            << "epoch " << i;
        EXPECT_EQ(a.tailP99S, b.tailP99S) << "epoch " << i;
        EXPECT_EQ(a.epochRequests, b.epochRequests) << "epoch " << i;
        EXPECT_EQ(a.epochEnergyKwh, b.epochEnergyKwh) << "epoch " << i;
        EXPECT_EQ(a.epochCostUsd, b.epochCostUsd) << "epoch " << i;
        EXPECT_EQ(a.meanFrequencyGhz, b.meanFrequencyGhz)
            << "epoch " << i;
        EXPECT_EQ(a.frequencyCeilingGhz, b.frequencyCeilingGhz)
            << "epoch " << i;
        EXPECT_EQ(a.feedCapacityW, b.feedCapacityW) << "epoch " << i;
        EXPECT_EQ(a.crashedVms, b.crashedVms) << "epoch " << i;
    }
    EXPECT_EQ(serial.outcome.p99LatencyS, sharded.outcome.p99LatencyS);
    EXPECT_EQ(serial.outcome.requests, sharded.outcome.requests);
    EXPECT_EQ(serial.outcome.energyMwh, sharded.outcome.energyMwh);
    EXPECT_EQ(serial.outcome.totalCostUsd, sharded.outcome.totalCostUsd);
    EXPECT_EQ(serial.outcome.wearConsumed, sharded.outcome.wearConsumed);
    EXPECT_EQ(serial.outcome.maxTjC, sharded.outcome.maxTjC);
}

TEST(ControlEnv, SameSeedSameActionsReproduce)
{
    const Episode a = runScripted(1);
    const Episode b = runScripted(1);
    EXPECT_EQ(a.outcome.totalCostUsd, b.outcome.totalCostUsd);
    EXPECT_EQ(a.outcome.p99LatencyS, b.outcome.p99LatencyS);
    EXPECT_EQ(a.outcome.requests, b.outcome.requests);
}

// ---- environment semantics ----------------------------------------------

TEST(ControlEnv, EpochAccountingAndHorizon)
{
    util::Rng rng(7);
    control::ControlEnv env(shortConfig(), rng);
    EXPECT_EQ(env.totalEpochs(), 14u);
    EXPECT_EQ(env.epochsDone(), 0u);
    EXPECT_EQ(env.observe().t, 0.0);

    std::size_t steps = 0;
    while (env.step())
        ++steps;
    EXPECT_EQ(steps + 1, env.totalEpochs());
    EXPECT_EQ(env.epochsDone(), env.totalEpochs());
    const auto outcome = env.finish();
    EXPECT_EQ(outcome.epochs, 14u);
    EXPECT_GT(outcome.requests, 0u);
    EXPECT_GT(outcome.energyMwh, 0.0);
    EXPECT_GT(outcome.p99LatencyS, 0.0);
    // Stepping or finishing past the horizon is a caller bug.
    EXPECT_THROW(env.step(), FatalError);
    EXPECT_THROW(env.finish(), FatalError);
}

TEST(ControlEnv, ActionsAreClampedToBounds)
{
    util::Rng rng(11);
    control::ControlEnv env(shortConfig(), rng);

    control::Action wild;
    wild.frequencyCeiling = 99.0;
    wild.feedCapacity = 1.0;      // Far below the capping floors.
    wild.packingFraction = 1e-6;  // Below the configured minimum.
    env.act(wild);
    env.step();
    const auto &obs = env.observe();
    EXPECT_EQ(obs.frequencyCeilingGhz, env.maxCeiling());
    EXPECT_GE(obs.feedCapacityW, 1.0);
    EXPECT_LT(obs.feedCapacityW, env.config().feedCapacity);
    EXPECT_EQ(obs.packingFraction, env.config().minPackingFraction);

    control::Action low;
    low.frequencyCeiling = 0.1;
    env.act(low);
    env.step();
    EXPECT_EQ(env.observe().frequencyCeilingGhz, env.minCeiling());
}

TEST(ControlEnv, NanPackingActionIsFatal)
{
    // std::clamp passes NaN through; the session knob must refuse it
    // rather than store it and behave as if packing were 1.
    util::Rng rng(11);
    control::ControlEnv env(shortConfig(), rng);
    control::Action action;
    action.packingFraction = std::numeric_limits<double>::quiet_NaN();
    env.act(action);
    EXPECT_THROW(env.step(), FatalError);
}

TEST(PerServerSession, NanKnobsAreFatal)
{
    std::vector<cluster::RackConfig> racks(2);
    for (auto &r : racks)
        r.servers = 4;
    cluster::DatacenterPowerSim sim(racks, 8000.0, 1.2, 1.2);
    sim.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    util::Rng rng(5);
    auto session =
        sim.startPerServerSession(cluster::OverclockPolicy::Always, rng, 0.01);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(session->setPackingFraction(nan), FatalError);
    EXPECT_THROW(session->setFeedCapacity(nan), FatalError);
    EXPECT_THROW(session->setFrequencyCeiling(nan), FatalError);
    // A refused knob leaves the session's setting untouched.
    EXPECT_EQ(session->packingFraction(), 1.0);
    EXPECT_EQ(session->feedCapacity(), 8000.0);
    session->stepMinutes(session->totalMinutes());
    EXPECT_GT(session->finish().energyMwh, 0.0);
}

TEST(ControlEnv, SurvivesScriptedCrises)
{
    control::ControlEnvConfig cfg = shortConfig();
    cfg.crises = shortCrises(cfg.days);
    util::Rng rng(21);
    control::ControlEnv env(cfg, rng);

    control::Action full;
    full.frequencyCeiling = env.maxCeiling();
    env.act(full);

    bool saw_crash = false;
    bool saw_derate = false;
    bool saw_cooling_clamp = false;
    bool more = true;
    while (more) {
        more = env.step();
        const auto &obs = env.observe();
        saw_crash = saw_crash || obs.crashedVms > 0;
        saw_derate = saw_derate || obs.powerDerateFraction < 1.0;
        if (obs.coolingDegraded) {
            // The action asks for full overclock every epoch; a
            // degraded tank overrides it to the nominal point.
            EXPECT_EQ(obs.frequencyCeilingGhz, env.minCeiling());
            saw_cooling_clamp = true;
        }
        if (obs.powerDerateFraction < 1.0) {
            EXPECT_LE(obs.feedCapacityW,
                      obs.powerDerateFraction *
                          env.config().feedCapacity);
        }
        env.act(full);
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_derate);
    EXPECT_TRUE(saw_cooling_clamp);

    const auto outcome = env.finish();
    EXPECT_GT(outcome.requests, 0u);
    // Every VM was repaired, so the run ends with a whole cluster.
    EXPECT_EQ(env.observe().crashedVms, 0u);
}

TEST(ControlEnv, FrequencyCeilingMovesDeliveredClockAndPower)
{
    // Two identical envs, one pinned nominal and one pinned at the
    // overclock point: the overclocked fleet must deliver a higher
    // mean clock and draw more power over the same traces.
    auto runPinned = [](GHz target) {
        control::ControlEnvConfig cfg = shortConfig();
        util::Rng rng(33);
        control::ControlEnv env(cfg, rng);
        control::Action action;
        action.frequencyCeiling = target;
        env.act(action);
        double freq_sum = 0.0;
        bool more = true;
        std::size_t epochs = 0;
        while (more) {
            more = env.step();
            freq_sum += env.observe().meanFrequencyGhz;
            ++epochs;
            env.act(action);
        }
        const auto outcome = env.finish();
        return std::make_pair(freq_sum / static_cast<double>(epochs),
                              outcome.energyMwh);
    };
    const auto nominal = runPinned(0.0);   // Clamped up to minCeiling.
    const auto overclocked = runPinned(99.0);
    EXPECT_GT(overclocked.first, nominal.first);
    EXPECT_GT(overclocked.second, nominal.second);
}

// ---- controllers --------------------------------------------------------

TEST(Controllers, PidHoldsTjBandAndModulates)
{
    control::ControlEnvConfig cfg;
    cfg.days = 1.0;
    util::Rng rng(7001);
    control::ControlEnv env(cfg, rng);
    const Celsius setpoint = 66.0;
    control::PidTjController pid(setpoint, env.minCeiling(),
                                 env.maxCeiling());

    std::size_t epochs = 0;
    std::size_t in_band = 0;
    bool modulated = false;
    env.act(pid.decide(env.observe()));
    bool more = true;
    while (more) {
        more = env.step();
        const auto &obs = env.observe();
        ++epochs;
        if (obs.maxTjC <= setpoint + 2.5)
            ++in_band;
        if (obs.frequencyCeilingGhz < env.maxCeiling() - 1e-9 &&
            obs.frequencyCeilingGhz > env.minCeiling() + 1e-9)
            modulated = true;
        env.act(pid.decide(env.observe()));
    }
    env.finish();
    // The servo keeps the hottest junction at or under the setpoint
    // band in (nearly) every epoch; single-minute burst transients the
    // epoch-level loop cannot preempt are allowed in the remainder.
    EXPECT_GE(static_cast<double>(in_band) /
                  static_cast<double>(epochs),
              0.95);
    EXPECT_TRUE(modulated);
}

TEST(Controllers, PidMatchesOcAOnTcoWithLowerWear)
{
    // The bench's acceptance bar: over a full diurnal day the PID must
    // match or beat always-overclock on cost per request while
    // consuming less lifetime (it backs off when thermals say the
    // marginal speedup is not worth the wear).
    auto runWith = [](control::Controller &controller) {
        control::ControlEnvConfig cfg;
        cfg.days = 1.0;
        util::Rng rng(7001);
        control::ControlEnv env(cfg, rng);
        return control::runEpisode(env, controller);
    };
    control::ControlEnvConfig probe;
    util::Rng rng(7001);
    control::ControlEnv env(probe, rng);
    const GHz floor = env.minCeiling();
    const GHz cap = env.maxCeiling();

    control::StaticOcController oca(
        control::StaticOcController::Mode::OcA, floor, cap);
    control::PidTjController pid(66.0, floor, cap);
    const auto oca_out = runWith(oca);
    const auto pid_out = runWith(pid);

    EXPECT_LE(pid_out.costPerMRequestsUsd, oca_out.costPerMRequestsUsd);
    EXPECT_LT(pid_out.wearConsumed, oca_out.wearConsumed);
}

TEST(Controllers, LadderControllersStayInsideTheEnvelope)
{
    control::ControlEnvConfig cfg = shortConfig();
    util::Rng rng(55);
    control::ControlEnv env(cfg, rng);
    control::GreedyTcoController greedy(env.minCeiling(),
                                        env.maxCeiling());
    control::BanditController bandit(env.minCeiling(), env.maxCeiling(),
                                     /*seed=*/99);
    control::Observation obs = env.observe();
    for (int i = 0; i < 50; ++i) {
        obs.t = static_cast<double>(i) * 300.0;
        obs.epochRequests = 1000.0;
        obs.epochCostUsd = 0.05 + 0.01 * static_cast<double>(i % 3);
        obs.tailP99S = (i % 5 == 0) ? 10.0 : 0.5;
        const auto ga = greedy.decide(obs);
        const auto ba = bandit.decide(obs);
        EXPECT_GE(ga.frequencyCeiling, env.minCeiling());
        EXPECT_LE(ga.frequencyCeiling, env.maxCeiling());
        EXPECT_GE(ba.frequencyCeiling, env.minCeiling());
        EXPECT_LE(ba.frequencyCeiling, env.maxCeiling());
    }
}

TEST(Controllers, StaticOcBFollowsTheClock)
{
    control::StaticOcController ocb(
        control::StaticOcController::Mode::OcB, 2.7, 3.32);
    control::Observation obs;
    obs.t = 3.0 * 3600.0; // 03:00 — off-peak.
    EXPECT_EQ(ocb.decide(obs).frequencyCeiling, 3.32);
    obs.t = 16.0 * 3600.0; // 16:00 — the documented peak.
    EXPECT_EQ(ocb.decide(obs).frequencyCeiling, 2.7);
    obs.t = 23.0 * 3600.0; // 23:00 — off-peak again.
    EXPECT_EQ(ocb.decide(obs).frequencyCeiling, 3.32);
}

// ---- regression pins for the satellite fixes ----------------------------

TEST(PlanProactive, BreachExactlyAtScaleOutLatencyIsCovered)
{
    autoscale::HoltForecaster forecaster(0.4, 0.2);
    forecaster.observe(0.0, 0.50);
    forecaster.observe(10.0, 0.60);
    ASSERT_GT(forecaster.trend(), 0.0);

    // Pick the threshold so the forecast crosses it somewhere inside
    // the horizon, then read the predicted breach back and re-plan
    // with the scale-out latency equal to it: the VM lands with zero
    // slack, so both the scale-out and the overclock bridge must fire
    // (before the fix the bridge used a strict < and skipped the ==
    // case, leaving exactly-zero-slack breaches uncovered).
    const double threshold = forecaster.forecast(100.0);
    const auto probe =
        autoscale::planProactive(forecaster, threshold,
                                 /*scale_out_latency=*/1.0,
                                 /*horizon=*/1000.0);
    ASSERT_GE(probe.predictedBreach, 0.0);

    const auto at_boundary = autoscale::planProactive(
        forecaster, threshold, probe.predictedBreach, 1000.0);
    EXPECT_TRUE(at_boundary.scaleOutNow);
    EXPECT_TRUE(at_boundary.overclockBridge);
    // The two decisions share one boundary sense: they can never
    // disagree, at the boundary or anywhere else.
    EXPECT_EQ(at_boundary.scaleOutNow, at_boundary.overclockBridge);

    const auto before_boundary = autoscale::planProactive(
        forecaster, threshold, 0.99 * probe.predictedBreach, 1000.0);
    EXPECT_FALSE(before_boundary.scaleOutNow);
    EXPECT_FALSE(before_boundary.overclockBridge);
    EXPECT_EQ(before_boundary.scaleOutNow,
              before_boundary.overclockBridge);
}

TEST(HoltForecaster, DuplicateTimestampIsFatal)
{
    autoscale::HoltForecaster forecaster(0.4, 0.2);
    forecaster.observe(5.0, 1.0);
    EXPECT_THROW(forecaster.observe(5.0, 2.0), FatalError);
    EXPECT_THROW(forecaster.observe(4.0, 2.0), FatalError);
}

TEST(HoltForecaster, NearZeroDtDoesNotExplodeTheTrend)
{
    autoscale::HoltForecaster forecaster(0.4, 0.2);
    forecaster.observe(0.0, 1.0);
    forecaster.observe(10.0, 2.0);
    const double trend_before = forecaster.trend();
    ASSERT_GT(trend_before, 0.0);

    // A sample 1 ns later: the per-second slope against such a dt
    // would be ~1e9x the real trend; the guard keeps the trend put and
    // lets the level absorb the sample.
    forecaster.observe(10.0 + 1e-9, 5.0);
    EXPECT_EQ(forecaster.trend(), trend_before);
    EXPECT_GT(forecaster.level(), 2.0 * 0.4); // Level still updated.

    // A normally spaced successor keeps working.
    forecaster.observe(20.0, 3.0);
    EXPECT_TRUE(std::isfinite(forecaster.trend()));
    EXPECT_TRUE(std::isfinite(forecaster.forecast(60.0)));
}

TEST(TraceGenerator, DiurnalPeakAtSixteenHundred)
{
    workload::TraceParams params;
    params.meanUtil = 0.45;
    params.diurnalAmplitude = 0.2;
    params.weekendDip = 0.0;
    params.noiseSigma = 0.0; // Deterministic: the pure diurnal shape.
    params.burstProb = 0.0;
    params.sampleInterval = 60.0;
    workload::TraceGenerator generator(params);
    util::Rng rng(1);
    const auto trace = generator.generate(rng, 1.0);
    ASSERT_EQ(trace.size(), 1440u);

    std::size_t argmax = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace[i] > trace[argmax])
            argmax = i;
    }
    // Documented peak: 16:00, +/- 30 minutes.
    const double peak_s = static_cast<double>(argmax) * params.sampleInterval;
    EXPECT_NEAR(peak_s, 16.0 * 3600.0, 30.0 * 60.0);

    // And the trough lands twelve hours opposite, at 04:00.
    std::size_t argmin = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        if (trace[i] < trace[argmin])
            argmin = i;
    }
    EXPECT_NEAR(static_cast<double>(argmin) * params.sampleInterval,
                4.0 * 3600.0, 30.0 * 60.0);
}

TEST(TraceGenerator, NonDivisibleSampleIntervalKeepsFinalSample)
{
    workload::TraceParams params;
    params.sampleInterval = 7.0; // 86400 / 7 = 12342.857...
    workload::TraceGenerator generator(params);
    util::Rng rng(2);
    const auto trace = generator.generate(rng, 1.0);
    // Rounded up: the final partial interval is sampled, not dropped.
    EXPECT_EQ(trace.size(), 12343u);
    const double last_s =
        static_cast<double>(trace.size() - 1) * params.sampleInterval;
    EXPECT_LT(last_s, 86400.0);
    EXPECT_GE(last_s, 86400.0 - 7.0);

    // Exact multiples stay exact (no spurious extra sample).
    params.sampleInterval = 60.0;
    workload::TraceGenerator exact(params);
    EXPECT_EQ(exact.generate(rng, 1.0).size(), 1440u);
}
