/**
 * @file
 * Datacenter cooling technology models.
 *
 * Encodes Table I (PUE, server fan overhead, max server cooling per
 * technology) and provides CoolingSystem implementations that compute the
 * processor junction reference conditions consumed by the junction model:
 * air cooling (thermal-chamber baseline, Sec. III) and two-phase immersion
 * (the tank prototypes).
 */

#ifndef IMSIM_THERMAL_COOLING_HH
#define IMSIM_THERMAL_COOLING_HH

#include <memory>
#include <string>
#include <vector>

#include "thermal/fluid.hh"
#include "util/units.hh"

namespace imsim {
namespace thermal {

/** The cooling technologies compared in Table I. */
enum class CoolingTech
{
    Chiller,
    WaterSide,
    DirectEvaporative,
    CpuColdPlate,
    Immersion1P,
    Immersion2P,
};

/** Published characteristics of one cooling technology (Table I). */
struct CoolingTechSpec
{
    CoolingTech tech;
    std::string name;
    double avgPue;              ///< Average facility PUE.
    double peakPue;             ///< Peak facility PUE.
    double fanOverheadFraction; ///< Server fan power / server power.
    Watts maxServerCooling;     ///< Max heat removable per server [W].
};

/** @return the Table I catalog, in the table's row order. */
const std::vector<CoolingTechSpec> &coolingTechCatalog();

/** @return the spec for one technology. */
const CoolingTechSpec &coolingTechSpec(CoolingTech tech);

/**
 * Abstract cooling system: turns a heat load into the reference temperature
 * and thermal resistance the junction model needs.
 */
class CoolingSystem
{
  public:
    virtual ~CoolingSystem() = default;

    /** @return human-readable name. */
    virtual std::string name() const = 0;

    /** @return the technology class this system implements. */
    virtual CoolingTech tech() const = 0;

    /**
     * Reference temperature seen by a component sinking @p component_power:
     * the local coolant temperature at the component (air: inlet plus case
     * pre-heat; 2PIC: fluid boiling point).
     */
    virtual Celsius referenceTemperature(Watts component_power) const = 0;

    /** Junction-to-coolant thermal resistance [C/W]. */
    virtual CelsiusPerWatt thermalResistance() const = 0;

    /** Whether this system can remove @p server_power from one server. */
    virtual bool supports(Watts server_power) const;

    /** Steady-state junction temperature for @p component_power. */
    Celsius junctionTemperature(Watts component_power) const;

    /** Spec (PUE, fan overhead, limits) of the underlying technology. */
    const CoolingTechSpec &spec() const { return coolingTechSpec(tech()); }
};

/**
 * Air cooling through a heat sink in a server chassis.
 *
 * Matches the paper's air baseline: a thermal chamber supplying 35 C air
 * at 110 CFM (Sec. III), with the junction-to-air resistance observed in
 * Table III (0.21-0.22 C/W) and an internal case pre-heat that accounts
 * for the difference between inlet air and the local ambient at the CPU.
 */
class AirCooling : public CoolingSystem
{
  public:
    /**
     * @param tech_class  Air technology variant (chiller / water-side /
     *                    direct evaporative); sets PUE and limits.
     * @param inlet       Chamber/inlet air temperature [C].
     * @param rth         Junction-to-air thermal resistance [C/W].
     * @param preheat     Case-internal air pre-heat at the CPU [C].
     */
    explicit AirCooling(CoolingTech tech_class = CoolingTech::DirectEvaporative,
                        Celsius inlet = 35.0,
                        CelsiusPerWatt rth = 0.22,
                        Celsius preheat = 12.0);

    std::string name() const override;
    CoolingTech tech() const override { return techClass; }
    Celsius referenceTemperature(Watts component_power) const override;
    CelsiusPerWatt thermalResistance() const override { return rth; }

  private:
    CoolingTech techClass;
    Celsius inlet;
    CelsiusPerWatt rth;
    Celsius preheat;
};

/**
 * Two-phase immersion cooling: the component boils dielectric fluid
 * through a (possibly BEC-coated) interface; the reference temperature is
 * the fluid's boiling point, independent of load while the condenser keeps
 * up (Fig. 1).
 */
class TwoPhaseImmersionCooling : public CoolingSystem
{
  public:
    /**
     * @param fluid      Dielectric fluid in the tank.
     * @param interface  Boiling interface (BEC placement).
     */
    TwoPhaseImmersionCooling(const DielectricFluid &fluid,
                             BoilingInterface boil_interface = {});

    std::string name() const override;
    CoolingTech tech() const override { return CoolingTech::Immersion2P; }
    Celsius referenceTemperature(Watts component_power) const override;
    CelsiusPerWatt thermalResistance() const override;
    bool supports(Watts server_power) const override;

    /** @return the fluid this system uses. */
    const DielectricFluid &fluid() const { return tankFluid; }

  private:
    DielectricFluid tankFluid;
    BoilingInterface interface;
};

} // namespace thermal
} // namespace imsim

#endif // IMSIM_THERMAL_COOLING_HH
