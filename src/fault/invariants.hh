/**
 * @file
 * Runtime invariant checking for fault-injection runs.
 *
 * Fault injection is only trustworthy if the model stays physical while
 * being kicked: power granted must never exceed the feed capacity, heat
 * must not exceed what the condenser can reject (after the derate
 * reacts), junction temperatures must stay under the throttle point,
 * and the cluster's server accounting must stay consistent. The
 * InvariantChecker evaluates such predicates periodically on the
 * virtual clock and reports violations through obs — without ever
 * perturbing the model itself, so an armed checker leaves trajectories
 * bit-identical.
 */

#ifndef IMSIM_FAULT_INVARIANTS_HH
#define IMSIM_FAULT_INVARIANTS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/observers.hh"
#include "sim/simulation.hh"
#include "util/units.hh"

namespace imsim {

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

/** One recorded invariant violation. */
struct Violation
{
    Seconds time;
    std::string check;
};

/**
 * Periodically evaluates named boolean predicates ("the invariant
 * holds") and records every failure. Checks must be pure reads of the
 * watched objects; all watched objects must outlive the checker.
 */
class InvariantChecker
{
  public:
    explicit InvariantChecker(sim::Simulation &simulation);

    /** Register @p holds under @p name; false at a tick = violation. */
    void addCheck(std::string name, std::function<bool()> holds);

    /**
     * Canned cluster accounting checks: per-server busy threads within
     * [0, threadsPerServer], crashed servers never active, and
     * active + crashed never exceeding the servers ever added.
     */
    void watchCluster(const workload::QueueingCluster &cluster);

    /** Canned tank check: heat <= the (possibly degraded) condenser. */
    void watchTank(const thermal::ImmersionTank &tank);

    /**
     * Canned feed check: the budget's last allocation grants no more
     * than its current capacity.
     */
    void watchBudget(const power::PowerBudget &budget);

    /**
     * Attach observers; reads `metrics`, `tracer` and `recorder`. Call
     * before start().
     *  - metrics: counters `invariant.checks` (ticks x checks
     *    evaluated) and `invariant.violations`, registered here.
     *  - tracer: an instant trace event per violation.
     *  - recorder: every violation goes through its violation(): it
     *    lands in the event ring and triggers a post-mortem dump when
     *    the recorder is armed.
     */
    void attach(const obs::Observers &bundle);

    /** Evaluate all checks every @p period seconds, starting now. */
    void start(Seconds period);

    /** Stop periodic evaluation. */
    void stop();

    /** Evaluate every check once, immediately. */
    void evaluate();

    /** @return all violations recorded so far, in time order. */
    const std::vector<Violation> &violations() const { return failures; }

    /** @return total predicate evaluations performed. */
    std::uint64_t checksRun() const { return evaluations; }

  private:
    struct Check
    {
        std::string name;
        std::function<bool()> holds;
    };

    sim::Simulation &sim;
    std::vector<Check> checks;
    std::vector<Violation> failures;
    std::uint64_t evaluations = 0;
    sim::EventId tickEvent = 0;
    bool running = false;

    obs::Observers observers;
    obs::Counter *checkMetric = nullptr;
    obs::Counter *violationMetric = nullptr;
};

} // namespace fault
} // namespace imsim

#endif // IMSIM_FAULT_INVARIANTS_HH
