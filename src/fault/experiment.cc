#include "fault/experiment.hh"

#include <algorithm>

#include "fault/invariants.hh"
#include "obs/blackbox.hh"
#include "obs/watchdog.hh"
#include "power/capping.hh"
#include "thermal/tank.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace fault {

using autoscale::perVmPower;

CrisisOutcome
runCrisisExperiment(autoscale::Policy policy, const CrisisParams &params)
{
    util::fatalIf(params.fleetSize < 2,
                  "runCrisisExperiment: need at least two servers");
    util::fatalIf(params.failFraction <= 0.0 || params.failFraction >= 1.0,
                  "runCrisisExperiment: fail fraction out of (0, 1)");
    util::fatalIf(params.crisisStart <= params.warmup,
                  "runCrisisExperiment: crisis must start after warmup");
    util::fatalIf(params.horizon <= params.crisisStart,
                  "runCrisisExperiment: horizon must exceed crisis start");

    sim::Simulation sim;
    util::Rng rng(params.seed);

    workload::QueueingCluster::Params cp;
    cp.serviceMean = params.serviceMean;
    cp.serviceCv = params.serviceCv;
    cp.kappa = params.kappa;
    cp.refFreq = 3.4;
    cp.threadsPerServer = params.threadsPerVm;
    workload::QueueingCluster cluster(sim, rng.child(), cp);

    autoscale::AutoScalerConfig cfg;
    cfg.policy = policy;
    cfg.maxFrequency = params.maxFrequency;
    cfg.maxVms = params.fleetSize;
    for (std::size_t i = 0; i < params.fleetSize; ++i)
        cluster.addServer(cfg.baseFrequency);
    autoscale::AutoScaler scaler(sim, cluster, cfg);

    // Shared tank and feed, sized so the healthy fleet fits even fully
    // overclocked — the crisis stresses capacity, not sizing.
    const Watts per_server_max = perVmPower(cfg.maxFrequency, 1.0);
    thermal::ImmersionTank tank(
        "crisis tank", thermal::hfe7000(), params.fleetSize + 8,
        static_cast<double>(params.fleetSize) * per_server_max * 1.2);
    power::PowerBudget feed(
        static_cast<double>(params.fleetSize) * per_server_max, 1.2);

    FaultInjector injector(sim, rng.child());
    injector.attachCluster(cluster);
    injector.attachAutoScaler(scaler);
    injector.attachTank(tank, [](GHz f) { return perVmPower(f, 1.0); });
    injector.attachPowerBudget(feed);

    // The SLO watchdog: the operator's pager for this run. It watches
    // the *trailing-window* tail latency (not the whole-phase P99 the
    // outcome reports), the tank fluid level, and feed brownouts; its
    // first page after the crash instant is the run's detection
    // latency. Pure observers — the trajectory is byte-identical with
    // or without them.
    cluster.enableTailTracking(params.tailWindow);
    obs::IncidentLog incident_log;
    obs::Watchdog watchdog;
    {
        obs::WatchdogRule sla;
        sla.name = "sla_p99";
        sla.kind = obs::AlertKind::TailLatency;
        sla.signal = [&cluster] { return cluster.recentTailQuantile(99.0); };
        sla.fireThreshold = params.slaP99;
        sla.clearThreshold = 0.8 * params.slaP99;
        watchdog.addRule(sla);

        obs::WatchdogRule fluid;
        fluid.name = "fluid_level";
        fluid.kind = obs::AlertKind::FluidLevel;
        fluid.signal = [&tank] { return tank.fluidLevel(); };
        fluid.fireThreshold = 0.95;
        fluid.clearThreshold = 0.99;
        fluid.fireAbove = false;
        watchdog.addRule(fluid);

        obs::WatchdogRule brownout;
        brownout.name = "feed_brownout";
        brownout.kind = obs::AlertKind::Brownout;
        brownout.signal = [&feed] {
            return static_cast<double>(feed.brownouts());
        };
        brownout.fireThreshold = 1.0;
        brownout.clearThreshold = 0.0; // Cumulative count: never clears.
        watchdog.addRule(brownout);
    }
    sim.every(params.watchdogPeriod,
              [&watchdog, &sim] { watchdog.evaluate(sim.now()); });

    InvariantChecker checker(sim);
    checker.watchCluster(cluster);
    checker.watchTank(tank);
    checker.watchBudget(feed);

    // The black-box flight recorder: the same signals the pager and
    // the outcome read, folded into bounded multi-resolution rings,
    // plus every alert/fault/violation in its event ring. Registered
    // after the watchdog's every() above so a tick at the same instant
    // samples the already-evaluated alert state. Pure observer.
    if (obs::FlightRecorder *box = params.blackbox) {
        box->addChannel("p99_latency_s", [&cluster] {
            return cluster.recentTailQuantile(99.0);
        });
        box->addChannel("queue_depth", [&cluster] {
            return static_cast<double>(cluster.queueDepth());
        });
        box->addChannel("active_servers", [&cluster] {
            return static_cast<double>(cluster.activeServers());
        });
        box->addChannel("fluid_level",
                        [&tank] { return tank.fluidLevel(); });
        box->addChannel("feed_brownouts", [&feed] {
            return static_cast<double>(feed.brownouts());
        });
        box->addChannel("alerts_firing", [&watchdog] {
            return static_cast<double>(watchdog.firingCount());
        });
        sim.every(params.watchdogPeriod,
                  [box, &sim] { box->tick(sim.now()); });
    }

    // One observer bundle for the run: the incident log always, the
    // flight recorder when given, and the optional observability
    // capture (wired like the auto-scaler experiments: one capture per
    // run, merged by the caller). The attach order is the metric
    // registration order, i.e. the telemetry CSV's column order.
    autoscale::ObsCapture *capture = params.obs;
    obs::Observers observers;
    observers.incidents = &incident_log;
    observers.recorder = params.blackbox;
    if (capture) {
        observers.metrics = &capture->registry;
        observers.tracer = &capture->tracer;
    }
    scaler.attach(observers);
    watchdog.attach(observers);
    injector.attach(observers);
    checker.attach(observers);
    if (capture)
        capture->arm(sim);

    scaler.start();
    checker.start(5.0);
    cluster.setArrivalRate(params.qps);

    // Heat and feed accounting each decision period: tank slots mirror
    // server heat, the feed allocates against current demand.
    std::vector<power::PowerConsumer> consumers;
    sim.every(cfg.decisionPeriod, [&] {
        consumers.clear();
        const Watts idle_floor = perVmPower(cfg.baseFrequency, 0.0);
        for (std::size_t id = 0; id < cluster.serverCount(); ++id) {
            const bool on = cluster.isActive(id);
            const Watts draw =
                on ? perVmPower(cluster.frequency(id),
                                cluster.utilization(id, cfg.shortWindow))
                   : 0.0;
            if (id < tank.slots())
                tank.setHeatLoad(id, draw);
            if (on) {
                consumers.push_back(power::PowerConsumer{
                    draw, std::min(draw, idle_floor), 0});
            }
        }
        feed.allocate(consumers, false);
    });

    // Measurement phases. All phase events are scheduled before the
    // injector arms the fault plan, so at the crisis instant the
    // healthy-phase capture runs before the crashes land (the kernel
    // breaks timestamp ties by scheduling order).
    sim.at(params.warmup, [&] { cluster.resetLatencies(); });

    double healthy_p99 = 0.0;
    sim.at(params.crisisStart, [&] {
        healthy_p99 = cluster.latencies().p99();
        cluster.resetLatencies();
    });

    const Seconds crisis_end =
        std::min(params.crisisStart + params.repairAfter, params.horizon);
    double crisis_p99 = 0.0;
    sim.at(crisis_end, [&] { crisis_p99 = cluster.latencies().p99(); });

    // Recovery detection: the backlog the crash created (requeued
    // in-flight work plus arrivals the shrunken fleet cannot absorb)
    // has drained and stayed drained — a global queue shorter than one
    // service round (one request per live thread) for 15 consecutive
    // 1 s samples. The first few seconds after the crash are skipped
    // so the requeue burst must actually clear.
    double recovery_at = -1.0;
    int recovery_streak = 0;
    sim.every(1.0, [&] {
        if (sim.now() <= params.crisisStart + 5.0 || recovery_at >= 0.0)
            return;
        const std::size_t one_round =
            cluster.activeServers() *
            static_cast<std::size_t>(params.threadsPerVm);
        recovery_streak =
            cluster.queueDepth() <= one_round ? recovery_streak + 1 : 0;
        if (recovery_streak >= 15) {
            recovery_at =
                sim.now() - 14.0; // Streak start, not streak end.
        }
    });

    // The fault plan: a scripted mass crash (plus optional cooling /
    // feed degradation over the same window), repairs after the MTTR.
    FaultPlan plan;
    const auto crash_count = static_cast<std::size_t>(std::max(
        1.0, std::floor(static_cast<double>(params.fleetSize) *
                            params.failFraction +
                        0.5)));
    for (std::size_t i = 0; i < crash_count; ++i)
        plan.at(params.crisisStart, Fault{FaultKind::ServerCrash});
    if (params.coolingDegradeLevel < 1.0) {
        plan.at(params.crisisStart,
                Fault{FaultKind::CoolingDegrade, kAnyServer,
                      params.coolingDegradeLevel});
    }
    if (params.powerDerateFraction < 1.0) {
        plan.at(params.crisisStart,
                Fault{FaultKind::PowerDerate, kAnyServer,
                      params.powerDerateFraction});
    }
    const Seconds repair_time = params.crisisStart + params.repairAfter;
    if (repair_time < params.horizon) {
        for (std::size_t i = 0; i < crash_count; ++i)
            plan.at(repair_time, Fault{FaultKind::ServerRepair});
        if (params.coolingDegradeLevel < 1.0)
            plan.at(repair_time, Fault{FaultKind::CoolingRestore});
        if (params.powerDerateFraction < 1.0)
            plan.at(repair_time, Fault{FaultKind::PowerRestore});
    }
    injector.start(plan);

    sim.runUntil(params.horizon);
    cluster.setArrivalRate(0.0);
    incident_log.closeAll(params.horizon);

    if (capture) {
        incident_log.exportTrace(capture->tracer, params.horizon);
        capture->finish();
    }

    CrisisOutcome out;
    out.policy = policy;
    out.healthyP99 = healthy_p99;
    out.crisisP99 = crisis_p99;
    out.recoverySeconds =
        recovery_at >= 0.0 ? recovery_at - params.crisisStart : -1.0;
    out.slaMet = crisis_p99 <= params.slaP99;
    out.serversCrashed = crash_count;
    out.scaleOuts = scaler.scaleOuts();
    out.avgFrequency = scaler.averageFrequency();
    out.requests = cluster.completed();
    out.invariantChecks = checker.checksRun();
    out.invariantViolations =
        static_cast<std::uint64_t>(checker.violations().size());
    out.brownouts = feed.brownouts();
    const Seconds first_page = watchdog.firstRaiseAfter(params.crisisStart);
    out.detectSeconds =
        first_page >= 0.0 ? first_page - params.crisisStart : -1.0;
    out.alertsRaised = watchdog.raisedCount();
    out.incidents = incident_log;
    out.faults = injector.timeline();
    return out;
}

} // namespace fault
} // namespace imsim
