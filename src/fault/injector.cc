#include "fault/injector.hh"

#include <algorithm>

#include "autoscale/autoscaler.hh"
#include "obs/blackbox.hh"
#include "obs/incident.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/capping.hh"
#include "thermal/tank.hh"
#include "util/logging.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace fault {

FaultInjector::FaultInjector(sim::Simulation &simulation, util::Rng rng_in)
    : sim(simulation), rng(rng_in)
{}

void
FaultInjector::attachCluster(workload::QueueingCluster &cluster_in)
{
    cluster = &cluster_in;
}

void
FaultInjector::attachAutoScaler(autoscale::AutoScaler &scaler_in)
{
    scaler = &scaler_in;
}

void
FaultInjector::attachTank(thermal::ImmersionTank &tank_in,
                          std::function<Watts(GHz)> per_server_power_at)
{
    util::fatalIf(!per_server_power_at,
                  "FaultInjector::attachTank: need a power model to derive "
                  "the derated frequency ceiling");
    tank = &tank_in;
    perServerPowerAt = std::move(per_server_power_at);
}

void
FaultInjector::attachPowerBudget(power::PowerBudget &budget_in)
{
    budget = &budget_in;
    nominalFeedCapacity = budget_in.capacity();
    budget_in.setRecoverableBrownout(true);
}

void
FaultInjector::attach(const obs::Observers &bundle)
{
    observers = bundle;
    obs::MetricRegistry *metrics = observers.metrics;
    if (!metrics) {
        crashMetric = repairMetric = coolingMetric = powerMetric = nullptr;
        return;
    }
    crashMetric = &metrics->counter("fault.server_crashes");
    repairMetric = &metrics->counter("fault.server_repairs");
    coolingMetric = &metrics->counter("fault.cooling_faults");
    powerMetric = &metrics->counter("fault.power_faults");
    metrics->registerGauge("fault.servers_down", [this] {
        return static_cast<double>(downIds.size());
    });
}

void
FaultInjector::start(const FaultPlan &plan)
{
    util::fatalIf(started, "FaultInjector::start: already started");
    started = true;
    for (const auto &entry : plan.scripted()) {
        const Fault fault = entry.second;
        sim.at(entry.first, [this, fault] {
            if (!stopped)
                inject(fault);
        });
    }
}

void
FaultInjector::stop()
{
    stopped = true;
}

void
FaultInjector::inject(const Fault &fault)
{
    switch (fault.kind) {
      case FaultKind::ServerCrash: {
        const std::size_t target = fault.target == kAnyServer
                                       ? pickVictim()
                                       : fault.target;
        if (target == kAnyServer)
            return; // Nothing left to kill.
        injectCrash(target);
        return;
      }
      case FaultKind::ServerRepair: {
        std::size_t target = fault.target;
        if (target == kAnyServer) {
            if (downIds.empty())
                return; // Nothing to repair.
            target = downIds.front();
        }
        injectRepair(target);
        return;
      }
      case FaultKind::CoolingDegrade:
        applyFluidLevel(fault.magnitude);
        record(fault.kind, kAnyServer, fault.magnitude);
        return;
      case FaultKind::CoolingRestore:
        applyFluidLevel(1.0);
        record(fault.kind, kAnyServer, 1.0);
        return;
      case FaultKind::PowerDerate:
        applyFeedCapacity(fault.magnitude);
        record(fault.kind, kAnyServer, fault.magnitude);
        return;
      case FaultKind::PowerRestore:
        applyFeedCapacity(1.0);
        record(fault.kind, kAnyServer, 1.0);
        return;
    }
    util::panic("FaultInjector::inject: unhandled kind");
}

void
FaultInjector::injectCrash(std::size_t target)
{
    util::fatalIf(!cluster,
                  "FaultInjector: server fault without an attached cluster");
    cluster->crashServer(target);
    if (scaler)
        scaler->invalidateServerCounters(target);
    downIds.push_back(target);
    if (crashMetric)
        crashMetric->inc();
    record(FaultKind::ServerCrash, target, 0.0);
}

void
FaultInjector::injectRepair(std::size_t target)
{
    util::fatalIf(!cluster,
                  "FaultInjector: server fault without an attached cluster");
    cluster->repairServer(target);
    downIds.erase(std::remove(downIds.begin(), downIds.end(), target),
                  downIds.end());
    if (repairMetric)
        repairMetric->inc();
    record(FaultKind::ServerRepair, target, 0.0);
}

void
FaultInjector::applyFluidLevel(double level)
{
    util::fatalIf(!tank,
                  "FaultInjector: cooling fault without an attached tank");
    tank->setFluidLevel(level);
    if (coolingMetric)
        coolingMetric->inc();
    if (!scaler)
        return;
    // Find the highest frequency whose worst-case per-server power the
    // degraded condenser still absorbs across the current fleet, and
    // push it into the scaler as a ceiling. A refill (level 1.0) lifts
    // the ceiling back to the configured maximum.
    const auto &cfg = scaler->config();
    std::size_t sharing = tank->slots();
    if (cluster && cluster->activeServers() > 0)
        sharing = cluster->activeServers();
    const Watts per_server =
        tank->effectiveCondenserCapacity() / static_cast<double>(sharing);
    const power::RaplCapper capper(per_server, cfg.baseFrequency);
    const GHz ceiling = capper.clamp(cfg.maxFrequency, perServerPowerAt);
    scaler->setFrequencyCeiling(std::max(ceiling, cfg.baseFrequency));
}

void
FaultInjector::applyFeedCapacity(double fraction)
{
    util::fatalIf(!budget,
                  "FaultInjector: power fault without an attached budget");
    budget->setCapacity(nominalFeedCapacity * fraction);
    if (powerMetric)
        powerMetric->inc();
}

std::size_t
FaultInjector::pickVictim()
{
    util::fatalIf(!cluster,
                  "FaultInjector: server fault without an attached cluster");
    std::vector<std::size_t> candidates;
    candidates.reserve(cluster->serverCount());
    for (std::size_t id = 0; id < cluster->serverCount(); ++id) {
        if (cluster->isActive(id))
            candidates.push_back(id);
    }
    if (candidates.empty())
        return kAnyServer;
    const auto pick = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    return candidates[pick];
}

void
FaultInjector::record(FaultKind kind, std::size_t target, double magnitude)
{
    injected.push_back(InjectedFault{sim.now(), kind, target, magnitude});
    if (observers.incidents || observers.recorder) {
        std::string label = faultKindName(kind);
        if (target != kAnyServer) {
            label += '#';
            label += std::to_string(target);
        }
        if (observers.incidents)
            observers.incidents->noteFault(sim.now(), label);
        if (observers.recorder)
            observers.recorder->noteFault(sim.now(), label);
    }
    if (obs::EventTracer *tracer = observers.tracer) {
        const double target_arg =
            target == kAnyServer ? -1.0 : static_cast<double>(target);
        tracer->instantAt(faultKindName(kind), "fault", sim.now(),
                          {{"target", target_arg},
                           {"magnitude", magnitude}});
    }
}

} // namespace fault
} // namespace imsim
