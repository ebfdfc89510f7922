#include "fleet/state.hh"

#include <cmath>

#include "obs/fleet_agg.hh"
#include "power/socket_power.hh"
#include "reliability/mechanisms.hh"
#include "thermal/cooling.hh"
#include "util/logging.hh"

namespace imsim {
namespace fleet {

namespace {

SkuLevelParams
levelAt(const power::VfCurve &vf, GHz frequency)
{
    SkuLevelParams lv;
    lv.frequency = frequency;
    lv.voltage = vf.voltageFor(frequency);
    // Same expressions SocketPowerModel::dynamicPower evaluates per
    // call (voltage/frequency ratios against the curve anchor).
    lv.vRatio = lv.voltage / vf.nominalVoltage();
    lv.fRatio = frequency / vf.nominalFrequency();
    // The curve anchor is the all-core turbo, so the electromigration
    // frequency ratio coincides with fRatio.
    lv.freqRatio = lv.fRatio;
    // Voltage-driven factors of the wear mechanisms, hoisted exactly as
    // reliability/mechanisms.cc computes them:
    //   gateOxideRate:  kOxideA * exp(kOxideGamma * (V - kVRef)) * ...
    //   electromigrationRate: kEmA * (j * j) * ...   (kEmN fixed at 2)
    using namespace reliability::constants;
    lv.oxideVoltFactor =
        kOxideA * std::exp(kOxideGamma * (lv.voltage - kVRef));
    const double j = (lv.voltage / kVRef) * lv.freqRatio;
    static_assert(kEmN == 2.0, "emBase below assumes kEmN == 2");
    lv.emBase = kEmA * (j * j);
    return lv;
}

} // namespace

SkuParams
SkuParams::fromModels(const power::SocketPowerModel &socket, int sockets,
                      Watts constant_power,
                      const thermal::CoolingSystem &cooling,
                      double thermal_cap, double oc_ratio, Celsius t_min,
                      Years design_life)
{
    util::fatalIf(sockets <= 0, "SkuParams: need at least 1 socket");
    util::fatalIf(thermal_cap <= 0.0,
                  "SkuParams: thermal capacitance must be positive");
    util::fatalIf(oc_ratio < 1.0, "SkuParams: overclock ratio below 1");
    util::fatalIf(design_life <= 0.0,
                  "SkuParams: design life must be positive");

    const power::VfCurve &vf = socket.curve();
    SkuParams p;
    // Lift the socket coefficients verbatim so they cannot drift from
    // power/socket_power.cc (the FP-identity contract forbids
    // re-deriving them).
    p.dynNominal = socket.dynamicNominal();
    p.sockets = static_cast<double>(sockets);
    p.leakRef = socket.leakageReference();
    p.leakRefTj = socket.leakageReferenceTj();
    p.leakTheta = socket.leakageTheta();
    p.constantPower = constant_power;

    p.rth = cooling.thermalResistance();
    p.thermalCap = thermal_cap;
    // Both cooling technologies expose a load-independent reference
    // (air: inlet + pre-heat; 2PIC: the boiling point).
    p.coolantRef = cooling.referenceTemperature(0.0);

    p.tMin = t_min;
    p.designLife = design_life;

    p.level[kNominal] = levelAt(vf, vf.nominalFrequency());
    p.level[kOverclocked] = levelAt(vf, vf.nominalFrequency() * oc_ratio);
    return p;
}

void
FleetState::reserve(std::size_t n)
{
    skuIndex.reserve(n);
    freqLevel.reserve(n);
    wantsOverclock.reserve(n);
    overclocked.reserve(n);
    capped.reserve(n);
    utilization.reserve(n);
    overclockShare.reserve(n);
    dynamicPower.reserve(n);
    leakagePower.reserve(n);
    totalPower.reserve(n);
    tj.reserve(n);
    wearConsumed.reserve(n);
    serviceYears.reserve(n);
}

void
FleetState::addServers(std::size_t count, std::uint32_t sku, Celsius tj0)
{
    const std::size_t n = size() + count;
    skuIndex.resize(n, sku);
    freqLevel.resize(n, kNominal);
    wantsOverclock.resize(n, 0);
    overclocked.resize(n, 0);
    capped.resize(n, 0);
    utilization.resize(n, 0.0);
    overclockShare.resize(n, 0.0);
    dynamicPower.resize(n, 0.0);
    leakagePower.resize(n, 0.0);
    totalPower.resize(n, 0.0);
    tj.resize(n, tj0);
    wearConsumed.resize(n, 0.0);
    serviceYears.resize(n, 0.0);
}

FleetState::Summary
FleetState::summarize() const
{
    Summary out;
    const std::size_t n = tj.size();
    if (n == 0)
        return out;
    double tj_sum = 0.0;
    double power = 0.0;
    double top = tj[0];
    for (std::size_t i = 0; i < n; ++i) {
        tj_sum += tj[i];
        power += totalPower[i];
        top = top < tj[i] ? tj[i] : top;
    }
    out.meanTj = tj_sum / static_cast<double>(n);
    out.maxTj = top;
    out.power = power;
    return out;
}

double
FleetState::meanWearConsumed() const
{
    if (wearConsumed.empty())
        return 0.0;
    double sum = 0.0;
    for (const double w : wearConsumed)
        sum += w;
    return sum / static_cast<double>(wearConsumed.size());
}

double
FleetState::meanWearCredit(const std::vector<SkuParams> &skus) const
{
    if (empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < size(); ++i) {
        // WearTracker::credit: budgeted life fraction minus consumed.
        sum += serviceYears[i] / skus[skuIndex[i]].designLife -
               wearConsumed[i];
    }
    return sum / static_cast<double>(size());
}

std::size_t
FleetState::overclockedCount() const
{
    std::size_t n = 0;
    for (const std::uint8_t f : overclocked)
        n += f != 0 ? 1 : 0;
    return n;
}

std::size_t
FleetState::cappedCount() const
{
    std::size_t n = 0;
    for (const std::uint8_t f : capped)
        n += f != 0 ? 1 : 0;
    return n;
}

std::size_t
FleetState::applyFrequencyCeiling(const std::vector<SkuParams> &skus,
                                  GHz ceiling)
{
    util::fatalIf(ceiling <= 0.0,
                  "applyFrequencyCeiling: ceiling must be positive");
    std::size_t demoted = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        const SkuParams &p = skus[skuIndex[i]];
        while (freqLevel[i] > 0 &&
               p.level[freqLevel[i]].frequency > ceiling) {
            --freqLevel[i];
            ++demoted;
        }
    }
    return demoted;
}

obs::FleetView
fleetView(const FleetState &state)
{
    obs::FleetView view;
    view.count = state.size();
    view.sku = state.skuIndex.data();
    view.utilization = state.utilization.data();
    view.totalPower = state.totalPower.data();
    view.tj = state.tj.data();
    view.wearConsumed = state.wearConsumed.data();
    return view;
}

} // namespace fleet
} // namespace imsim
