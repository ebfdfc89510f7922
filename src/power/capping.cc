#include "power/capping.hh"

#include <algorithm>
#include <numeric>

#include "obs/profiler.hh"
#include "util/logging.hh"

namespace imsim {
namespace power {

RaplCapper::RaplCapper(Watts power_limit, GHz f_min)
    : limit(power_limit), fMin(f_min)
{
    util::fatalIf(power_limit <= 0.0, "RaplCapper: limit must be positive");
    util::fatalIf(f_min <= 0.0, "RaplCapper: frequency floor must be > 0");
}

void
RaplCapper::setPowerLimit(Watts watts)
{
    util::fatalIf(watts <= 0.0, "RaplCapper: limit must be positive");
    limit = watts;
}

PowerBudget::PowerBudget(Watts capacity, double oversubscription)
    : cap(capacity), oversub(oversubscription)
{
    util::fatalIf(!(capacity > 0.0),
                  "PowerBudget: capacity must be positive");
    util::fatalIf(!(oversubscription >= 1.0),
                  "PowerBudget: oversubscription ratio must be >= 1");
}

void
PowerBudget::setCapacity(Watts capacity)
{
    util::fatalIf(!(capacity > 0.0),
                  "PowerBudget: capacity must be positive");
    cap = capacity;
}

void
PowerBudget::setRecoverableBrownout(bool recoverable)
{
    recoverableBrownout = recoverable;
}

void
PowerBudget::allocate(const std::vector<PowerConsumer> &consumers,
                      bool validate)
{
    obs::ProfScope prof("power.allocate");
    const std::size_t n = consumers.size();

    // Input validation hoisted out of the allocation loops: one pass,
    // skippable by hot callers whose inputs hold by construction.
    if (validate) {
        for (const auto &c : consumers) {
            util::fatalIf(c.demand < 0.0 || c.minimum < 0.0,
                          "PowerBudget::allocate: negative power");
            util::fatalIf(c.minimum > c.demand,
                          "PowerBudget::allocate: minimum exceeds demand");
        }
    }

    Watts demand_total = 0.0;
    Watts minimum_total = 0.0;
    for (const auto &c : consumers) {
        demand_total += c.demand;
        minimum_total += c.minimum;
    }

    grants.resize(n);
    cappedFlags.resize(n);

    if (demand_total <= cap) {
        for (std::size_t i = 0; i < n; ++i) {
            grants[i] = consumers[i].demand;
            cappedFlags[i] = 0;
        }
        return;
    }

    if (minimum_total > cap) {
        // Even fully capped demand breaches the circuit. With nominal
        // capacity that is a sizing error and stays fatal; on a derated
        // feed (fault injection) recoverable mode sheds below the
        // floors instead, scaling every minimum uniformly so the draw
        // exactly fits the derated circuit.
        util::fatalIf(!recoverableBrownout,
                      "PowerBudget::allocate: even fully capped demand "
                      "breaches circuit capacity (brownout)");
        ++brownoutCount;
        const double frac = cap / minimum_total;
        for (std::size_t i = 0; i < n; ++i) {
            grants[i] = consumers[i].minimum * frac;
            cappedFlags[i] = grants[i] + 1e-9 < consumers[i].demand ? 1 : 0;
        }
        return;
    }

    // Shed demand lowest-priority-first: order the index array by
    // descending priority (ties by consumer index, so grants match the
    // old priority-map walk bit for bit); all classes before the
    // marginal class keep their demand, classes after drop to their
    // minimum, and the marginal class is scaled uniformly between
    // minimum and demand.
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&consumers](std::size_t a, std::size_t b) {
                  if (consumers[a].priority != consumers[b].priority)
                      return consumers[a].priority > consumers[b].priority;
                  return a < b;
              });

    for (std::size_t i = 0; i < n; ++i)
        grants[i] = consumers[i].minimum;
    Watts committed = minimum_total;

    // Restore demand to the highest-priority classes first.
    std::size_t begin = 0;
    while (begin < n) {
        const int prio = consumers[order[begin]].priority;
        std::size_t end = begin;
        Watts class_extra = 0.0;
        while (end < n && consumers[order[end]].priority == prio) {
            const auto &c = consumers[order[end]];
            class_extra += c.demand - c.minimum;
            ++end;
        }
        const Watts room = cap - committed;
        if (class_extra <= room) {
            for (std::size_t j = begin; j < end; ++j)
                grants[order[j]] = consumers[order[j]].demand;
            committed += class_extra;
        } else {
            const double frac = class_extra > 0.0 ? room / class_extra : 0.0;
            for (std::size_t j = begin; j < end; ++j) {
                const auto &c = consumers[order[j]];
                grants[order[j]] = c.minimum + frac * (c.demand - c.minimum);
            }
            committed = cap;
            break;
        }
        begin = end;
    }

    for (std::size_t i = 0; i < n; ++i)
        cappedFlags[i] = grants[i] + 1e-9 < consumers[i].demand ? 1 : 0;
}

} // namespace power
} // namespace imsim
