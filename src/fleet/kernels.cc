#include "fleet/kernels.hh"

#include <algorithm>
#include <cmath>

#include "reliability/lifetime.hh"
#include "reliability/mechanisms.hh"
#include "util/logging.hh"

namespace imsim {
namespace fleet {

namespace {

/**
 * Price server @p i at its operating point with leakage @p leak: the
 * dynamic power and the server total, the arithmetic stepPower and
 * repricePower share.
 */
inline void
priceServer(FleetState &state, const SkuParams &p, std::size_t i,
            double leak)
{
    const SkuLevelParams &lv = p.level[state.freqLevel[i]];
    // SocketPowerModel::dynamicPower: dynNominal * activity *
    // v_ratio^3 * f_ratio, multiplied left to right.
    const double dyn = p.dynNominal * state.utilization[i] * lv.vRatio *
                       lv.vRatio * lv.vRatio * lv.fRatio;
    // ServerPowerModel aggregation: sockets plus the constant
    // component budget.
    const double total = (dyn + leak) * p.sockets + p.constantPower;
    state.dynamicPower[i] = dyn;
    state.totalPower[i] = total;
}

} // namespace

void
stepPower(FleetState &state, const std::vector<SkuParams> &skus,
          std::size_t begin, std::size_t end)
{
    util::fatalIf(begin > end || end > state.size(),
                  "stepPower: bad server range");
    util::fatalIf(skus.empty(), "stepPower: no SKUs");
    for (std::size_t i = begin; i < end; ++i) {
        const SkuParams &p = skus[state.skuIndex[i]];
        // SocketPowerModel::leakagePower at the current junction
        // temperature (explicit coupling: Tj from the last thermal
        // step, the transient analogue of the scalar fixed point).
        const double leak =
            p.leakRef * std::exp((state.tj[i] - p.leakRefTj) / p.leakTheta);
        priceServer(state, p, i, leak);
        state.leakagePower[i] = leak;
    }
}

void
repricePower(FleetState &state, const std::vector<SkuParams> &skus,
             std::size_t begin, std::size_t end)
{
    util::fatalIf(begin > end || end > state.size(),
                  "repricePower: bad server range");
    util::fatalIf(skus.empty(), "repricePower: no SKUs");
    for (std::size_t i = begin; i < end; ++i)
        priceServer(state, skus[state.skuIndex[i]], i,
                    state.leakagePower[i]);
}

void
prepareThermalStep(FleetState &state, const std::vector<SkuParams> &skus,
                   Seconds dt)
{
    util::fatalIf(dt < 0.0, "stepThermal: negative dt");
    util::fatalIf(skus.empty(), "stepThermal: no SKUs");
    // The decay factor exp(-dt / (R*C)) depends only on the SKU, so it
    // is computed once per SKU instead of once per server — the same
    // exp the scalar ThermalNode::step evaluates per call, reused.
    std::vector<double> &decay = state.thermalDecayScratch;
    decay.resize(skus.size());
    for (std::size_t s = 0; s < skus.size(); ++s)
        decay[s] = std::exp(-dt / (skus[s].rth * skus[s].thermalCap));
}

void
stepThermal(FleetState &state, const std::vector<SkuParams> &skus,
            Seconds dt, std::size_t begin, std::size_t end)
{
    util::fatalIf(begin > end || end > state.size(),
                  "stepThermal: bad server range");
    util::fatalIf(state.thermalDecayScratch.size() != skus.size(),
                  "stepThermal: prepareThermalStep() not run");
    (void)dt; // Folded into the prepared decay factors.
    const std::vector<double> &decay = state.thermalDecayScratch;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t s = state.skuIndex[i];
        const SkuParams &p = skus[s];
        // ThermalNode::step: target = steadyState(power, ref) =
        // ref + rth * power; temp = target + (temp - target) * decay.
        const double node_power =
            state.dynamicPower[i] + state.leakagePower[i];
        const double target = p.coolantRef + p.rth * node_power;
        state.tj[i] = target + (state.tj[i] - target) * decay[s];
    }
}

void
stepThermal(FleetState &state, const std::vector<SkuParams> &skus,
            Seconds dt)
{
    prepareThermalStep(state, skus, dt);
    stepThermal(state, skus, dt, 0, state.size());
}

void
prepareWearStep(FleetState &state)
{
    // Scratch sizing is the only allocating (and thus only
    // non-thread-safe) part of stepWear; hoisted here so range calls
    // can fan out over pre-sized columns.
    const std::size_t n = state.size();
    state.wearOxideScratch.resize(n);
    state.wearArrheniusScratch.resize(n);
}

void
stepWear(FleetState &state, const std::vector<SkuParams> &skus,
         Years duration, std::size_t begin, std::size_t end)
{
    util::fatalIf(duration < 0.0, "stepWear: negative duration");
    util::fatalIf(skus.empty(), "stepWear: no SKUs");
    util::fatalIf(begin > end || end > state.size(),
                  "stepWear: bad server range");
    util::fatalIf(state.wearOxideScratch.size() != state.size() ||
                      state.wearArrheniusScratch.size() != state.size(),
                  "stepWear: prepareWearStep() not run");
    using namespace reliability::constants;
    // Loop-invariant pieces of the mechanism rates, written exactly as
    // reliability/mechanisms.cc computes them.
    const double vertex = -kOxideTempA / (2.0 * kOxideTempC);
    const double tref = units::toKelvin(kTjRef);
    // The wear update is split into per-transcendental passes: a tight
    // loop around a single libm call pipelines far better than one fat
    // body serialising three of them (each server's arithmetic chain is
    // unchanged, so FP identity is unaffected — only the program order
    // across servers moves, which is also why disjoint ranges of the
    // same passes thread safely). The intermediate factors land in
    // scratch columns that stabilise after the first call.
    std::vector<double> &oxide = state.wearOxideScratch;
    std::vector<double> &arrhenius = state.wearArrheniusScratch;

    // gateOxideRate's temperature factor: clamp at the quadratic's
    // low-temperature vertex, then exp(temp_term); the voltage factor
    // kOxideA * exp(volt_term) is hoisted into lv.oxideVoltFactor.
    for (std::size_t i = begin; i < end; ++i) {
        const double dtj = std::max(state.tj[i] - kTjRef, vertex);
        const double temp_term = kOxideTempA * dtj + kOxideTempC * dtj * dtj;
        oxide[i] = std::exp(temp_term);
    }

    // electromigrationRate's Arrhenius factor; kEmA * (j * j) is
    // hoisted into lv.emBase.
    for (std::size_t i = begin; i < end; ++i) {
        const double t = units::toKelvin(state.tj[i]);
        arrhenius[i] =
            std::exp(kEmEa / units::kBoltzmannEv * (1.0 / tref - 1.0 / t));
    }

    // Combine with the level factors, add thermalCyclingRate
    // (Coffin-Manson on the swing down to the SKU's cycle floor), and
    // accrue: LifetimeModel::wearFraction with dutyCycle = utilization
    // (voltage/current-driven wear scales with duty under an idle
    // floor; thermal cycling does not), accumulated WearTracker-style.
    for (std::size_t i = begin; i < end; ++i) {
        const SkuParams &p = skus[state.skuIndex[i]];
        const SkuLevelParams &lv = p.level[state.freqLevel[i]];
        const double gate_oxide = lv.oxideVoltFactor * oxide[i];
        const double em = lv.emBase * arrhenius[i];
        const double swing = state.tj[i] - p.tMin;
        util::fatalIf(swing < 0.0, "stepWear: junction below cycle floor");
        // thermalCyclingRate's r^2.5 as r*r*sqrt(r), exactly as
        // reliability/mechanisms.cc evaluates it.
        const double r = swing / kSwingRef;
        const double cycling =
            swing == 0.0 ? 0.0 : kTcA * (r * r * std::sqrt(r));
        const double duty = std::max(
            state.utilization[i], reliability::LifetimeModel::kIdleWearFloor);
        const double active_rate = (gate_oxide + em) * duty;
        state.wearConsumed[i] += (active_rate + cycling) * duration;
        state.serviceYears[i] += duration;
    }
}

void
stepWear(FleetState &state, const std::vector<SkuParams> &skus,
         Years duration)
{
    prepareWearStep(state);
    stepWear(state, skus, duration, 0, state.size());
}

void
stepAll(FleetState &state, const std::vector<SkuParams> &skus, Seconds dt)
{
    stepPower(state, skus);
    stepThermal(state, skus, dt);
    stepWear(state, skus, secondsToYears(dt));
}

void
stepAll(FleetState &state, const std::vector<SkuParams> &skus, Seconds dt,
        const util::ShardPlan &plan, util::ShardRunner &runner)
{
    util::fatalIf(plan.units() != state.size(),
                  "stepAll: shard plan does not cover the fleet");
    const Years duration = secondsToYears(dt);
    prepareThermalStep(state, skus, dt);
    prepareWearStep(state);
    runner.run(plan,
               [&](std::size_t, std::size_t begin, std::size_t end) {
                   stepPower(state, skus, begin, end);
                   stepThermal(state, skus, dt, begin, end);
                   stepWear(state, skus, duration, begin, end);
               });
}

} // namespace fleet
} // namespace imsim
