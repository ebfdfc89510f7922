#include "thermal/tank.hh"

#include <numeric>

#include "util/logging.hh"

namespace imsim {
namespace thermal {

ImmersionTank::ImmersionTank(std::string name, const DielectricFluid &fluid_in,
                             std::size_t slots, Watts condenser_cap,
                             BoilingInterface interface)
    : tankName(std::move(name)), fluid(fluid_in), heatLoads(slots, 0.0),
      condenserCap(condenser_cap), cooling(fluid_in, interface)
{
    util::fatalIf(slots == 0, "ImmersionTank: need at least one slot");
    util::fatalIf(condenser_cap <= 0.0,
                  "ImmersionTank: condenser capacity must be positive");
}

void
ImmersionTank::setHeatLoad(std::size_t slot, Watts power)
{
    util::fatalIf(slot >= heatLoads.size(),
                  "ImmersionTank::setHeatLoad: slot out of range");
    util::fatalIf(power < 0.0, "ImmersionTank::setHeatLoad: negative power");
    heatLoads[slot] = power;
}

Watts
ImmersionTank::heatLoad(std::size_t slot) const
{
    util::fatalIf(slot >= heatLoads.size(),
                  "ImmersionTank::heatLoad: slot out of range");
    return heatLoads[slot];
}

void
ImmersionTank::setFluidLevel(double level)
{
    // Below ~5% the servers would no longer be submerged; treat that as a
    // modelling error rather than a recoverable degradation.
    util::fatalIf(level < 0.05 || level > 1.0,
                  "ImmersionTank::setFluidLevel: level out of [0.05, 1]");
    fluidLevelFrac = level;
}

Watts
ImmersionTank::totalHeat() const
{
    return std::accumulate(heatLoads.begin(), heatLoads.end(), 0.0);
}

Celsius
ImmersionTank::fluidTemperature() const
{
    // While the condenser keeps up, boiling pins the bulk fluid at its
    // saturation temperature.
    return fluid.boilingPoint;
}

double
ImmersionTank::recordServiceEvent()
{
    // Opening the sealed tank vents the vapor blanket; a rough estimate of
    // 50 g per service event, mitigated by the mechanical/chemical vapor
    // traps the paper describes.
    const double grams = 50.0;
    vaporLoss += grams;
    return grams;
}

ImmersionTank
makeSmallTank1()
{
    // 2 slots, HFE-7000, BEC directly on the IHS; generously sized
    // condenser for overclocking experiments.
    return ImmersionTank("small tank #1", hfe7000(), 2, 3000.0,
                         BoilingInterface{BoilingInterface::Coating::DirectIhs});
}

ImmersionTank
makeSmallTank2()
{
    return ImmersionTank("small tank #2", fc3284(), 2, 3000.0,
                         BoilingInterface{BoilingInterface::Coating::DirectIhs});
}

ImmersionTank
makeLargeTank()
{
    // 36 Open Compute blades at up to 700 W each = 25.2 kW IT load.
    return ImmersionTank(
        "large tank", fc3284(), 36, 36 * 700.0,
        BoilingInterface{BoilingInterface::Coating::CopperPlate});
}

} // namespace thermal
} // namespace imsim
