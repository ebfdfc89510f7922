#include "fault/invariants.hh"

#include <numeric>

#include "obs/blackbox.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "power/capping.hh"
#include "thermal/tank.hh"
#include "util/logging.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace fault {

InvariantChecker::InvariantChecker(sim::Simulation &simulation)
    : sim(simulation)
{}

void
InvariantChecker::addCheck(std::string name, std::function<bool()> holds)
{
    util::fatalIf(!holds, "InvariantChecker::addCheck: empty predicate");
    util::fatalIf(running,
                  "InvariantChecker::addCheck: call before start()");
    checks.push_back(Check{std::move(name), std::move(holds)});
}

void
InvariantChecker::watchCluster(const workload::QueueingCluster &cluster)
{
    addCheck("cluster.thread_accounting", [&cluster] {
        const int threads = cluster.params().threadsPerServer;
        for (std::size_t id = 0; id < cluster.serverCount(); ++id) {
            const int busy = cluster.busyThreads(id);
            if (busy < 0 || busy > threads)
                return false;
        }
        return true;
    });
    addCheck("cluster.crashed_not_active", [&cluster] {
        for (std::size_t id = 0; id < cluster.serverCount(); ++id) {
            if (cluster.isCrashed(id) && cluster.isActive(id))
                return false;
        }
        return true;
    });
    addCheck("cluster.server_accounting", [&cluster] {
        return cluster.activeServers() + cluster.crashedServers() <=
               cluster.serverCount();
    });
}

void
InvariantChecker::watchTank(const thermal::ImmersionTank &tank)
{
    addCheck("tank.condenser_keeps_up",
             [&tank] { return tank.condenserKeepsUp(); });
}

void
InvariantChecker::watchBudget(const power::PowerBudget &budget)
{
    addCheck("feed.granted_within_capacity", [&budget] {
        const Watts granted = std::accumulate(
            budget.granted().begin(), budget.granted().end(), 0.0);
        return granted <= budget.capacity() + 1e-6;
    });
}

void
InvariantChecker::attach(const obs::Observers &bundle)
{
    observers = bundle;
    obs::MetricRegistry *metrics = observers.metrics;
    checkMetric = metrics ? &metrics->counter("invariant.checks") : nullptr;
    violationMetric =
        metrics ? &metrics->counter("invariant.violations") : nullptr;
}

void
InvariantChecker::start(Seconds period)
{
    util::fatalIf(period <= 0.0,
                  "InvariantChecker::start: period must be positive");
    util::fatalIf(running, "InvariantChecker::start: already running");
    running = true;
    tickEvent = sim.every(period, [this] { evaluate(); });
}

void
InvariantChecker::stop()
{
    if (!running)
        return;
    sim.cancel(tickEvent);
    running = false;
}

void
InvariantChecker::evaluate()
{
    for (const auto &check : checks) {
        ++evaluations;
        if (checkMetric)
            checkMetric->inc();
        if (check.holds())
            continue;
        failures.push_back(Violation{sim.now(), check.name});
        if (observers.recorder)
            observers.recorder->violation(sim.now(), check.name);
        if (violationMetric)
            violationMetric->inc();
        if (obs::EventTracer *tracer = observers.tracer) {
            tracer->instantAt("invariant_violation", "fault", sim.now(),
                              {{"check_index",
                                static_cast<double>(failures.size())}});
        }
    }
}

} // namespace fault
} // namespace imsim
