/**
 * @file
 * Operating-frequency domains and the turbo governor (Fig. 4, Table III).
 *
 * Processors expose a guaranteed range [min, base], an opportunistic turbo
 * range whose ceiling depends on the number of active cores, and — with
 * sufficient cooling — an overclocking range beyond the turbo ceiling up
 * to a non-operating boundary. The governor picks the highest frequency
 * bin that fits the active-core turbo table, the package power limit, and
 * a junction-temperature ceiling; 2PIC's lower leakage is what buys the
 * extra 100 MHz bin Table III reports.
 */

#ifndef IMSIM_HW_TURBO_HH
#define IMSIM_HW_TURBO_HH

#include <string>

#include "power/socket_power.hh"
#include "thermal/cooling.hh"
#include "util/units.hh"

namespace imsim {
namespace hw {

/** The operating domains of Fig. 4. */
enum class FrequencyDomain
{
    Guaranteed,   ///< [min, base]: always sustainable.
    Turbo,        ///< (base, turbo(n)]: opportunistic, thermal permitting.
    Overclocking, ///< (turbo(n), ocMax]: requires 2PIC-class cooling.
    NonOperating, ///< Beyond ocMax: unstable at any voltage.
};

/** @return a printable name for a domain. */
std::string domainName(FrequencyDomain domain);

/**
 * Frequency-domain map and thermally aware turbo governor for one part.
 */
class TurboGovernor
{
  public:
    /**
     * @param cores           Core count.
     * @param f_min           Minimum operating frequency [GHz].
     * @param f_base          Base (nominal/guaranteed) frequency [GHz].
     * @param f_turbo_single  Max turbo with one active core [GHz].
     * @param f_turbo_all     Max turbo with all cores active [GHz].
     * @param f_oc_max        Overclocking (non-operating) boundary [GHz].
     * @param tdp             Package power limit [W].
     * @param tj_limit        Junction throttle temperature [C].
     * @param bin             Frequency bin granularity [GHz].
     */
    TurboGovernor(int cores, GHz f_min, GHz f_base, GHz f_turbo_single,
                  GHz f_turbo_all, GHz f_oc_max, Watts tdp,
                  Celsius tj_limit = 98.0, GHz bin = 0.1);

    /** Turbo-table ceiling for @p active_cores active cores [GHz]. */
    GHz turboCeiling(int active_cores) const;

    /** Classify a frequency for a given active-core count (Fig. 4). */
    FrequencyDomain classify(GHz f, int active_cores) const;

    /**
     * Frequency the part actually sustains with @p active_cores running
     * a load of @p activity, under @p cooling: the turbo-table ceiling
     * clipped by the TDP and the junction limit, floored to a bin.
     *
     * @param socket  Power model used for the TDP/thermal evaluation.
     */
    GHz effectiveFrequency(const power::SocketPowerModel &socket,
                           const thermal::CoolingSystem &cooling,
                           int active_cores, double activity = 1.0) const;

    /** @return base frequency [GHz]. */
    GHz baseFrequency() const { return fBase; }

    /** @return the overclocking boundary [GHz]. */
    GHz overclockBoundary() const { return fOcMax; }

    /** @return package power limit [W]. */
    Watts tdp() const { return tdpLimit; }

    /** Raise the package power limit (overclocking headroom). */
    void setTdp(Watts watts);

    /** @return core count. */
    int cores() const { return coreCount; }

    /** Floor @p f to the bin grid. */
    GHz snapToBin(GHz f) const;

    /** Skylake 8168 (24 cores; Table III air max turbo 3.1 GHz). */
    static TurboGovernor skylake8168();

    /** Skylake 8180 (28 cores; Table III air max turbo 2.6 GHz). */
    static TurboGovernor skylake8180();

    /** Xeon W-3175X (28 cores, unlocked; Table VII B2 = 3.4 GHz). */
    static TurboGovernor xeonW3175x();

  private:
    int coreCount;
    GHz fMin;
    GHz fBase;
    GHz fTurboSingle;
    GHz fTurboAll;
    GHz fOcMax;
    Watts tdpLimit;
    Celsius tjLimit;
    GHz binSize;
};

} // namespace hw
} // namespace imsim

#endif // IMSIM_HW_TURBO_HH
