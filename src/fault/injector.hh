/**
 * @file
 * The fault injector: executes a FaultPlan against the simulated
 * datacenter, wiring typed faults into the subsystem hooks —
 * QueueingCluster crash/repair, ImmersionTank fluid level (with a
 * RAPL-style frequency derate pushed into the auto-scaler), and
 * PowerBudget feed derates (with recoverable brownouts).
 *
 * Everything runs on the simulation's virtual clock from an explicit
 * Rng substream, so fault sequences are reproducible for a seed and
 * bit-identical across exp::SweepRunner job counts.
 */

#ifndef IMSIM_FAULT_INJECTOR_HH
#define IMSIM_FAULT_INJECTOR_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "fault/plan.hh"
#include "obs/observers.hh"
#include "sim/simulation.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace imsim {

namespace autoscale {
class AutoScaler;
} // namespace autoscale

namespace obs {
class Counter;
} // namespace obs

namespace power {
class PowerBudget;
} // namespace power

namespace thermal {
class ImmersionTank;
} // namespace thermal

namespace workload {
class QueueingCluster;
} // namespace workload

namespace fault {

/** One fault actually injected (the run's fault timeline). */
struct InjectedFault
{
    Seconds time;
    FaultKind kind;
    std::size_t target;   ///< Server id, or kAnyServer for non-server faults.
    double magnitude;
};

/**
 * Executes fault plans against attached subsystems.
 *
 * Attach the targets a plan needs before start(); faults whose target
 * subsystem is not attached are fatal (a plan that asks for a derate
 * nobody models is a configuration error, not a silent no-op). All
 * attached objects must outlive the injector.
 */
class FaultInjector
{
  public:
    /**
     * @param simulation Event kernel the faults are scheduled on.
     * @param rng        Substream for kAnyServer victim choice (fork it
     *                   from the run's root Rng).
     */
    FaultInjector(sim::Simulation &simulation, util::Rng rng);

    /** Attach the cluster crash/repair faults act on. */
    void attachCluster(workload::QueueingCluster &cluster);

    /**
     * Attach the auto-scaler. Crashes invalidate its per-server counter
     * baselines; cooling degrades push a frequency ceiling into it.
     */
    void attachAutoScaler(autoscale::AutoScaler &scaler);

    /**
     * Attach the tank cooling faults act on. @p per_server_power_at
     * maps a core frequency to one server's worst-case power draw [W];
     * the injector bisects it (RaplCapper) against the degraded
     * condenser capacity to find the frequency ceiling the surviving
     * fluid can still absorb.
     */
    void attachTank(thermal::ImmersionTank &tank,
                    std::function<Watts(GHz)> per_server_power_at);

    /**
     * Attach the power feed. Remembers the nominal capacity for
     * PowerRestore and switches the budget to recoverable brownouts: a
     * derated feed may legitimately fall below the fleet's power
     * floors, which must shed harder, not abort the run.
     */
    void attachPowerBudget(power::PowerBudget &budget);

    /**
     * Attach observers; reads all four members. Call before start().
     *  - metrics: counters `fault.server_crashes`,
     *    `fault.server_repairs`, `fault.cooling_faults`,
     *    `fault.power_faults` and gauge `fault.servers_down`,
     *    registered here.
     *  - tracer: an instant trace event per injected fault.
     *  - incidents, recorder: every injected fault is noted on the
     *    incident timeline and in the recorder's event ring as a
     *    `<kind>#<target>` label, so watchdog incidents and post-mortem
     *    dumps carry the faults that caused them.
     */
    void attach(const obs::Observers &bundle);

    /**
     * Arm @p plan: its scripted faults are scheduled at their times.
     * May only be called once.
     */
    void start(const FaultPlan &plan);

    /** Stop injecting: pending scripted faults no-op. */
    void stop();

    /** Inject @p fault right now (also usable without start()). */
    void inject(const Fault &fault);

    /** @return every fault injected so far, in injection order. */
    const std::vector<InjectedFault> &timeline() const { return injected; }

    /** @return servers currently down from injected crashes. */
    std::size_t serversDown() const { return downIds.size(); }

  private:
    void injectCrash(std::size_t target);
    void injectRepair(std::size_t target);
    void applyFluidLevel(double level);
    void applyFeedCapacity(double fraction);
    std::size_t pickVictim();
    void record(FaultKind kind, std::size_t target, double magnitude);

    sim::Simulation &sim;
    util::Rng rng;
    workload::QueueingCluster *cluster = nullptr;
    autoscale::AutoScaler *scaler = nullptr;
    thermal::ImmersionTank *tank = nullptr;
    std::function<Watts(GHz)> perServerPowerAt;
    power::PowerBudget *budget = nullptr;
    Watts nominalFeedCapacity = 0.0;

    bool started = false;
    bool stopped = false;
    std::vector<std::size_t> downIds; ///< Crash order (FIFO repairs).
    std::vector<InjectedFault> injected;

    obs::Observers observers;
    obs::Counter *crashMetric = nullptr;
    obs::Counter *repairMetric = nullptr;
    obs::Counter *coolingMetric = nullptr;
    obs::Counter *powerMetric = nullptr;
};

} // namespace fault
} // namespace imsim

#endif // IMSIM_FAULT_INJECTOR_HH
