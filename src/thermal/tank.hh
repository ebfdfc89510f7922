/**
 * @file
 * Immersion tank model: a vessel of dielectric fluid hosting servers, with
 * a condenser that returns vapor to liquid (Fig. 1). Mirrors the paper's
 * prototypes (Sec. III): two small 2-server tanks and one 36-blade large
 * tank.
 */

#ifndef IMSIM_THERMAL_TANK_HH
#define IMSIM_THERMAL_TANK_HH

#include <string>
#include <vector>

#include "thermal/cooling.hh"
#include "thermal/fluid.hh"
#include "util/units.hh"

namespace imsim {

namespace thermal {

/**
 * A two-phase immersion tank.
 *
 * Tracks per-slot heat loads, checks condenser headroom, and exposes the
 * cooling system view (reference temperature, thermal resistance) that the
 * immersed components see. Vapor containment follows Sec. IV's
 * "Environmental impact" discussion: sealed tanks lose a small fraction of
 * vapor on service events.
 */
class ImmersionTank
{
  public:
    /**
     * @param name           Tank label, e.g. "small tank #1".
     * @param fluid          Dielectric fluid filling the tank.
     * @param slots          Number of server slots.
     * @param condenser_cap  Maximum heat the condenser rejects [W].
     * @param interface      Boiling interface used by immersed CPUs.
     */
    ImmersionTank(std::string name, const DielectricFluid &fluid,
                  std::size_t slots, Watts condenser_cap,
                  BoilingInterface interface = {});

    /** @return the tank label. */
    const std::string &name() const { return tankName; }

    /** @return the number of server slots. */
    std::size_t slots() const { return heatLoads.size(); }

    /** Set the heat load of slot @p slot to @p power [W]. */
    void setHeatLoad(std::size_t slot, Watts power);

    /** @return the heat load of slot @p slot. */
    Watts heatLoad(std::size_t slot) const;

    /** @return total heat currently dissipated into the tank [W]. */
    Watts totalHeat() const;

    /** @return nominal condenser capacity [W] (full fluid level). */
    Watts condenserCapacity() const { return condenserCap; }

    /**
     * Set the fluid level as a fraction of the nominal fill in [0.05, 1].
     * Fluid loss (leaks, un-trapped vapor escape — the cooling-degradation
     * fault) lowers the liquid/vapor interface and with it the wetted
     * condenser area, so rejection capacity scales with the level. 1.0
     * restores nominal capacity.
     */
    void setFluidLevel(double level);

    /** @return the current fluid level fraction (1.0 = nominal fill). */
    double fluidLevel() const { return fluidLevelFrac; }

    /** @return condenser capacity at the current fluid level [W]. */
    Watts effectiveCondenserCapacity() const
    {
        return condenserCap * fluidLevelFrac;
    }

    /** @return remaining condenser headroom [W] (can be negative). */
    Watts headroom() const
    {
        return effectiveCondenserCapacity() - totalHeat();
    }

    /**
     * @return whether the condenser keeps up with the current load; when
     * it does not, tank pressure and fluid temperature would rise and the
     * operator must shed load.
     */
    bool condenserKeepsUp() const
    {
        return totalHeat() <= effectiveCondenserCapacity();
    }

    /** @return the cooling-system view for immersed components. */
    const TwoPhaseImmersionCooling &coolingSystem() const { return cooling; }

    /** @return fluid temperature [C]: boiling point while boiling. */
    Celsius fluidTemperature() const;

    /**
     * Record a service event (a server lifted out of the tank), which
     * vents vapor. @return grams of fluid vapor lost for accounting.
     */
    double recordServiceEvent();

    /** @return cumulative vapor loss [g] across service events. */
    double vaporLossGrams() const { return vaporLoss; }

  private:
    std::string tankName;
    DielectricFluid fluid;
    std::vector<Watts> heatLoads;
    Watts condenserCap;
    TwoPhaseImmersionCooling cooling;
    double fluidLevelFrac = 1.0;
    double vaporLoss = 0.0;
};

/** Build the paper's small tank #1 (Xeon W-3175X in HFE-7000). */
ImmersionTank makeSmallTank1();

/** Build the paper's small tank #2 (i9900k + RTX 2080ti in FC-3284). */
ImmersionTank makeSmallTank2();

/** Build the paper's 36-blade large tank (FC-3284, 700 W servers). */
ImmersionTank makeLargeTank();

} // namespace thermal
} // namespace imsim

#endif // IMSIM_THERMAL_TANK_HH
