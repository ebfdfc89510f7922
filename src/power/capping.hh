/**
 * @file
 * Power capping: a RAPL-style per-socket capper and a datacenter power
 * hierarchy with oversubscription and priority-aware capping.
 *
 * Sec. IV ("Power consumption") warns that overclocking in oversubscribed
 * datacenters increases the chance of hitting delivery limits and
 * triggering capping mechanisms that rely on frequency reduction — which
 * can negate overclocking gains. The hierarchy here reproduces that
 * interaction: budgets at the (feed -> rack -> server) levels, capping
 * applied lowest-priority-first when breached (the workload-priority-based
 * schemes of [38], [62], [70]).
 */

#ifndef IMSIM_POWER_CAPPING_HH
#define IMSIM_POWER_CAPPING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hh"

namespace imsim {

namespace power {

/**
 * RAPL-style power capper for one socket: clamps requested frequency so
 * that estimated package power stays under the running average limit.
 */
class RaplCapper
{
  public:
    /**
     * @param power_limit Package power limit [W].
     * @param f_min       Lowest frequency the capper may force [GHz].
     */
    RaplCapper(Watts power_limit, GHz f_min = 1.0);

    /**
     * Clamp a requested frequency.
     *
     * @param requested  Frequency the governor wants [GHz].
     * @param power_at   Callable: package power at a given frequency [W].
     * @return the highest frequency <= requested whose power fits the cap.
     */
    template <typename PowerFn>
    GHz
    clamp(GHz requested, PowerFn &&power_at) const
    {
        if (power_at(requested) <= limit)
            return requested;
        GHz lo = fMin;
        GHz hi = requested;
        if (power_at(lo) > limit)
            return lo; // Even the floor breaches; deliver the floor.
        for (int iter = 0; iter < 50; ++iter) {
            const GHz mid = 0.5 * (lo + hi);
            if (power_at(mid) <= limit)
                lo = mid;
            else
                hi = mid;
        }
        return lo;
    }

    /** @return the configured power limit [W]. */
    Watts powerLimit() const { return limit; }

    /** Change the power limit (e.g. to enable overclocking). */
    void setPowerLimit(Watts watts);

  private:
    Watts limit;
    GHz fMin;
};

/** A power consumer inside the hierarchy. */
struct PowerConsumer
{
    std::string name;
    Watts demand;      ///< Uncapped power demand [W].
    Watts minimum;     ///< Power floor when fully capped [W].
    int priority;      ///< Higher value = more critical, capped last.
};

/** Per-consumer allocation after capping. */
struct CapAllocation
{
    std::string name;
    Watts granted;     ///< Power the consumer may draw [W].
    bool capped;       ///< Whether it received less than its demand.
};

/**
 * Caller-owned scratch buffers for the allocation hot path: results are
 * written here (indexed like the consumer vector) and the internal
 * priority ordering reuses the index array, so a warm scratch makes
 * PowerBudget::allocate() allocation-free. Reuse one instance across
 * calls (e.g. across simulated minutes).
 */
struct AllocScratch
{
    /** Power granted to consumer i [W]. */
    std::vector<Watts> granted;
    /** Whether consumer i received less than its demand (0/1). */
    std::vector<std::uint8_t> capped;
    /** Internal: consumer indices ordered by (priority desc, index). */
    std::vector<std::size_t> order;
};

/**
 * One level of the datacenter power-delivery hierarchy (e.g. a rack PDU or
 * row feed) with an oversubscribed budget.
 */
class PowerBudget
{
  public:
    /**
     * @param capacity         Physical circuit capacity [W].
     * @param oversubscription Provisioned demand / capacity ratio >= 1;
     *                         e.g. 1.2 means 20 % oversubscribed.
     */
    explicit PowerBudget(Watts capacity, double oversubscription = 1.0);

    /** @return circuit capacity [W]. */
    Watts capacity() const { return cap; }

    /**
     * Change the circuit capacity [W], e.g. a feed derate while a
     * transformer or UPS leg is out (the power-feed fault). The
     * oversubscription ratio is kept, so provisionable() shrinks with
     * the cap; restore by setting the original capacity back.
     */
    void setCapacity(Watts capacity);

    /** @return demand providers are allowed to provision [W]. */
    Watts provisionable() const { return cap * oversub; }

    /**
     * Select how allocate() handles a brownout (total minima exceeding
     * capacity). By default it is fatal — with nominal capacity that is
     * a sizing error. Under fault injection a derated feed can make it
     * happen legitimately, so recoverable mode instead scales every
     * consumer's minimum uniformly by capacity / total-minimum and
     * counts the event in brownouts().
     */
    void setRecoverableBrownout(bool recoverable);

    /** @return brownout allocations survived in recoverable mode. */
    std::uint64_t brownouts() const { return brownoutCount; }

    /**
     * Allocate power across consumers, priority-aware:
     * if total demand fits the capacity everyone gets their demand;
     * otherwise lower-priority consumers are reduced toward their
     * minimum first (uniform scaling within a priority class), then the
     * next priority class, and so on.
     */
    std::vector<CapAllocation>
    allocate(const std::vector<PowerConsumer> &consumers) const;

    /**
     * Scratch-space overload of allocate(): identical grants (consumers
     * referred to by index, not name), written into @p scratch's
     * buffers. With a warm scratch the call performs no heap
     * allocation, which is what the datacenter minute loop runs on.
     *
     * @param validate Check per-consumer invariants (non-negative
     *        power, minimum <= demand) before allocating. Hot callers
     *        whose inputs hold structurally pass false to keep the
     *        checks off the per-minute path; the brownout fatal (total
     *        minimum exceeding capacity) fires regardless.
     */
    void allocate(const std::vector<PowerConsumer> &consumers,
                  AllocScratch &scratch, bool validate = true) const;

    /** @return true when @p consumers' total demand breaches capacity. */
    bool breached(const std::vector<PowerConsumer> &consumers) const;

  private:
    Watts cap;
    double oversub;
    bool recoverableBrownout = false;
    mutable std::uint64_t brownoutCount = 0;
};

} // namespace power
} // namespace imsim

#endif // IMSIM_POWER_CAPPING_HH
