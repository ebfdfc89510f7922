/**
 * @file
 * Batched physics kernels over FleetState columns.
 *
 * Each kernel advances one physical quantity for every server in a
 * contiguous loop, replacing N scalar-object calls:
 *
 *  - stepPower:   power::SocketPowerModel::dynamicPower +
 *                 leakagePower + the power::ServerPowerModel
 *                 aggregation (sockets + constant components);
 *                 repricePower redoes only the dynamic part and the
 *                 aggregation after a frequency change;
 *  - stepThermal: thermal::ThermalNode::step (exact exponential RC
 *                 update against the SKU's coolant reference);
 *  - stepWear:    reliability::LifetimeModel::wearFraction (gate
 *                 oxide + electromigration + thermal cycling with the
 *                 duty-cycle idle floor), accumulated WearTracker-style
 *                 into wearConsumed/serviceYears.
 *
 * FP-identity contract (held by tests/test_fleet.cc): for identical
 * inputs, a kernel step is bit-for-bit equal to stepping the scalar
 * classes above one server at a time. The kernels win their speed from
 * layout and hoisting, never from reordered arithmetic: per-(SKU,
 * level) pure values (voltage ratios, voltage-driven wear factors, the
 * RC decay factor) are computed once instead of per server, and the
 * scalar paths' per-call argument validation runs once per kernel call.
 * repricePower is held to the same identity against stepPower under
 * one precondition: Tj is unchanged since the servers' last stepPower,
 * so the stored leakagePower is the value stepPower would recompute.
 *
 * Steady-state calls are allocation-free: the only buffer (per-SKU
 * thermal decay factors) lives in FleetState::thermalDecayScratch and
 * stabilises after the first step.
 *
 * Sharding: every kernel also has a [begin, end) range overload whose
 * per-server arithmetic chain is identical to the whole-fleet loop —
 * each server's update reads and writes only index i (and shared
 * *read-only* SKU tables / pre-sized scratch), so running disjoint
 * ranges on different threads produces bit-identical columns in any
 * interleaving. The prepare*() helpers hoist the serial, shared-state
 * part (scratch sizing, per-SKU decay factors) out of the range calls;
 * callers must invoke them once per step before fanning ranges out.
 */

#ifndef IMSIM_FLEET_KERNELS_HH
#define IMSIM_FLEET_KERNELS_HH

#include <cstddef>
#include <vector>

#include "fleet/state.hh"
#include "util/shard.hh"
#include "util/units.hh"

namespace imsim {
namespace fleet {

/**
 * Recompute dynamicPower/leakagePower/totalPower for servers
 * [@p begin, @p end) from their frequency level, utilization, and
 * current junction temperature (explicit power<->temperature coupling:
 * leakage reads the Tj of the previous thermal step).
 */
void stepPower(FleetState &state, const std::vector<SkuParams> &skus,
               std::size_t begin, std::size_t end);

/**
 * Re-price servers [@p begin, @p end) after a frequency-level change:
 * recompute dynamicPower and totalPower from their level and
 * utilization, reusing the stored leakagePower. Requires that no Tj in
 * the range changed since the range's last stepPower (leakage depends
 * on Tj alone), which makes the columns bit-identical to a fresh
 * stepPower at a fraction of the cost (no exp per server).
 */
void repricePower(FleetState &state, const std::vector<SkuParams> &skus,
                  std::size_t begin, std::size_t end);

/** stepPower over the whole fleet. */
inline void
stepPower(FleetState &state, const std::vector<SkuParams> &skus)
{
    stepPower(state, skus, 0, state.size());
}

/**
 * Advance every junction temperature by @p dt seconds holding each
 * server's current socket power (dynamicPower + leakagePower)
 * constant, with the SKU's coolant reference — the exact exponential
 * ThermalNode::step update.
 */
void stepThermal(FleetState &state, const std::vector<SkuParams> &skus,
                 Seconds dt);

/**
 * Serial prologue for sharded thermal steps: compute the per-SKU decay
 * factors exp(-dt / (R*C)) into FleetState::thermalDecayScratch. Must
 * run (once per step, on one thread) before any range stepThermal of
 * the same dt.
 */
void prepareThermalStep(FleetState &state,
                        const std::vector<SkuParams> &skus, Seconds dt);

/**
 * stepThermal over servers [@p begin, @p end) using the decay factors
 * prepared by prepareThermalStep(). Elementwise in i — safe and
 * bit-identical under any disjoint-range threading.
 */
void stepThermal(FleetState &state, const std::vector<SkuParams> &skus,
                 Seconds dt, std::size_t begin, std::size_t end);

/**
 * Accrue @p duration years of wear on every server under its current
 * stress (level voltage/frequency ratio, junction temperature, and
 * utilization as the duty cycle; cycle floor at the SKU's tMin).
 * Requires tj >= tMin for every server, as the scalar model does.
 */
void stepWear(FleetState &state, const std::vector<SkuParams> &skus,
              Years duration);

/**
 * Serial prologue for sharded wear steps: size the oxide/Arrhenius
 * scratch columns to the fleet (the only allocating part of stepWear,
 * and only until the high-water mark stabilises). Must run before any
 * range stepWear.
 */
void prepareWearStep(FleetState &state);

/**
 * stepWear over servers [@p begin, @p end) using scratch sized by
 * prepareWearStep(). The three transcendental passes run over this
 * range only; every pass is elementwise in i, so disjoint ranges
 * thread safely and bit-identically.
 */
void stepWear(FleetState &state, const std::vector<SkuParams> &skus,
              Years duration, std::size_t begin, std::size_t end);

/**
 * One fleet minute at full fidelity: power from the current operating
 * points, thermal advance by @p dt, wear accrual for the same
 * interval (dt converted to years).
 */
void stepAll(FleetState &state, const std::vector<SkuParams> &skus,
             Seconds dt);

/**
 * Sharded stepAll: the same fleet minute fanned over @p runner's
 * threads, one fused power->thermal->wear pass per shard of @p plan
 * (all three kernels are elementwise in i, so no barrier is needed
 * *between* them within a minute — the conservative barrier sits at
 * the end of the call, before any cross-server reduction). Serial
 * prologues (scratch sizing, per-SKU decay) run on the calling thread
 * first. Bit-identical to the serial stepAll for any plan and any
 * thread count.
 */
void stepAll(FleetState &state, const std::vector<SkuParams> &skus,
             Seconds dt, const util::ShardPlan &plan,
             util::ShardRunner &runner);

/** @return @p dt seconds as years (the wear-accrual unit). */
constexpr Years
secondsToYears(Seconds dt)
{
    return dt / (units::kHoursPerYear * units::kSecondsPerHour);
}

} // namespace fleet
} // namespace imsim

#endif // IMSIM_FLEET_KERNELS_HH
