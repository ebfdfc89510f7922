/**
 * @file
 * Fault plans: what goes wrong, and when.
 *
 * Sec. VII ("Cost analysis") prices overclocking as spare capacity: when
 * part of the fleet is lost — a power-feed derate, a cooling problem, or
 * plain server crashes — the surviving machines overclock to cover the
 * gap instead of keeping idle spares provisioned. A FaultPlan describes
 * such an episode: scripted faults pinned to simulation times, executed
 * by fault::FaultInjector on the deterministic event kernel.
 */

#ifndef IMSIM_FAULT_PLAN_HH
#define IMSIM_FAULT_PLAN_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "util/units.hh"

namespace imsim {
namespace fault {

/** Typed fault categories the injector understands. */
enum class FaultKind
{
    ServerCrash,    ///< Kill a server VM; in-flight work is requeued.
    ServerRepair,   ///< Bring a crashed server back into the fleet.
    CoolingDegrade, ///< Tank fluid loss: magnitude = level fraction.
    CoolingRestore, ///< Refill the tank to the nominal level.
    PowerDerate,    ///< Feed derate: magnitude = capacity fraction.
    PowerRestore,   ///< Restore the nominal feed capacity.
};

/** @return a printable fault-kind name. */
const char *faultKindName(FaultKind kind);

/** Sentinel target: let the injector pick (random victim / FIFO repair). */
constexpr std::size_t kAnyServer = ~std::size_t{0};

/** One fault to inject. */
struct Fault
{
    FaultKind kind;
    /** Server id for crash/repair; kAnyServer lets the injector choose. */
    std::size_t target = kAnyServer;
    /**
     * CoolingDegrade: fluid level fraction in [0.05, 1).
     * PowerDerate: remaining capacity fraction in (0, 1).
     * Ignored by the other kinds.
     */
    double magnitude = 0.0;
};

/**
 * A deterministic fault schedule: scripted (time, fault) pairs. Plans
 * are plain data — build one, hand it to FaultInjector::start(). An
 * empty plan injects nothing, so attaching an injector with an empty
 * plan leaves a run bit-identical to one without the injector.
 */
class FaultPlan
{
  public:
    /** Schedule @p fault at absolute simulation time @p t (chainable). */
    FaultPlan &at(Seconds t, Fault fault);

    /** @return the scripted (time, fault) events, in insertion order. */
    const std::vector<std::pair<Seconds, Fault>> &scripted() const
    {
        return events;
    }

    /** @return whether the plan injects nothing at all. */
    bool empty() const { return events.empty(); }

  private:
    std::vector<std::pair<Seconds, Fault>> events;
};

} // namespace fault
} // namespace imsim

#endif // IMSIM_FAULT_PLAN_HH
