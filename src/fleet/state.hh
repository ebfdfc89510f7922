/**
 * @file
 * Columnar (structure-of-arrays) fleet state.
 *
 * Per-server physics used to live behind per-object APIs —
 * thermal::ThermalNode, power::SocketPowerModel / power::VfCurve,
 * reliability::LifetimeModel / WearTracker — which scatters the
 * per-minute fleet update across the heap and caps how many servers a
 * run can afford. FleetState restructures that state as contiguous
 * columns (frequency level, utilization, dynamic/leakage power,
 * junction temperature, wear) over which the batched kernels in
 * fleet/kernels.hh iterate.
 *
 * FP-identity contract: the batched kernels evaluate *exactly* the
 * arithmetic of the scalar classes, in the same association order, so
 * a batched step is bit-for-bit equal to stepping one scalar object
 * per server (tests/test_fleet.cc holds this as an equivalence
 * oracle). Coefficients are therefore lifted from the scalar models by
 * SkuParams::fromModels, never re-derived, and anything hoisted out of
 * the per-server loop (V-f points, voltage-driven wear factors, the
 * thermal decay factor) is a pure value whose computation order
 * matches the scalar code.
 */

#ifndef IMSIM_FLEET_STATE_HH
#define IMSIM_FLEET_STATE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hh"

namespace imsim {

namespace obs {
struct FleetView;
} // namespace obs

namespace power {
class SocketPowerModel;
} // namespace power

namespace thermal {
class CoolingSystem;
} // namespace thermal

namespace fleet {

/** Frequency levels a server can run at (index into SkuParams::level). */
enum FreqLevel : std::uint8_t
{
    kNominal = 0,     ///< All-core turbo.
    kOverclocked = 1, ///< The SKU's overclock point.
};

/**
 * Derived constants for one (SKU, frequency level) operating point.
 *
 * Everything here is frequency-dependent but server-independent, so the
 * batched kernels hoist it out of their per-server loops. Each value is
 * computed once, with the same expression the scalar path evaluates
 * per call, which preserves FP identity (reusing a value never changes
 * rounding; recomputing it in a different order would).
 */
struct SkuLevelParams
{
    GHz frequency = 0.0;   ///< Core clock at this level.
    Volts voltage = 0.0;   ///< VfCurve::voltageFor(frequency).
    double vRatio = 0.0;   ///< voltage / curve nominal voltage.
    double fRatio = 0.0;   ///< frequency / curve nominal frequency.
    double freqRatio = 0.0;///< f / all-core turbo (EM current density).
    /// kOxideA * exp(kOxideGamma * (voltage - kVRef)): the voltage
    /// factor of reliability::gateOxideRate.
    double oxideVoltFactor = 0.0;
    /// kEmA * pow((voltage / kVRef) * freqRatio, kEmN): the
    /// current-density factor of reliability::electromigrationRate.
    double emBase = 0.0;
};

/**
 * Per-SKU physics coefficients, lifted from the scalar models.
 *
 * One SkuParams describes a server class: socket power coefficients
 * (power/socket_power), V-f points (power/vf_curve), the junction RC
 * (thermal/junction), the coolant reference (thermal/cooling), and the
 * reliability operating envelope (reliability/lifetime).
 */
struct SkuParams
{
    // --- power/socket_power.hh coefficients --------------------------
    Watts dynNominal = 0.0;  ///< Dynamic power at curve anchor, act 1.
    double sockets = 1.0;    ///< Socket count (double: matches the
                             ///< scalar cast in server aggregation).
    Watts leakRef = 0.0;     ///< Leakage at the reference junction.
    Celsius leakRefTj = 0.0; ///< Leakage reference junction temp.
    Celsius leakTheta = 0.0; ///< Exponential leakage scale.
    /// Non-CPU constant power per server (DIMMs at nominal memory
    /// clock, motherboard, FPGA, storage; fans per the cooling system).
    Watts constantPower = 0.0;

    // --- thermal/junction.hh + thermal/cooling.hh --------------------
    CelsiusPerWatt rth = 0.0; ///< Junction-to-coolant resistance.
    double thermalCap = 0.0;  ///< Lumped thermal capacitance [J/C].
    Celsius coolantRef = 0.0; ///< Cooling reference temperature.

    // --- reliability/lifetime.hh envelope ----------------------------
    Celsius tMin = 0.0;       ///< Thermal-cycle low temperature.
    Years designLife = 5.0;   ///< Wear-credit design budget.

    /// Operating points: [kNominal], [kOverclocked].
    SkuLevelParams level[2];

    /**
     * Lift the coefficients out of the scalar models.
     *
     * @param socket         Socket power model (curve + dyn/leakage).
     * @param sockets        Sockets per server.
     * @param constant_power Non-CPU constant power per server [W].
     * @param cooling        Cooling system (reference + resistance).
     * @param thermal_cap    Junction RC capacitance [J/C].
     * @param oc_ratio       Overclock frequency ratio (e.g. 1.23).
     * @param t_min          Thermal-cycle low temperature [C].
     * @param design_life    Wear-credit design life [years].
     */
    static SkuParams fromModels(const power::SocketPowerModel &socket,
                                int sockets, Watts constant_power,
                                const thermal::CoolingSystem &cooling,
                                double thermal_cap, double oc_ratio,
                                Celsius t_min, Years design_life = 5.0);
};

/**
 * Structure-of-arrays state for a fleet of servers.
 *
 * Column invariants (all vectors share size() entries, one per
 * server):
 *  - skuIndex[i] indexes the SkuParams table the kernels are given;
 *  - freqLevel[i] selects the operating point (FreqLevel);
 *  - utilization[i] is the activity factor in [0, 1];
 *  - dynamicPower/leakagePower are per *socket* [W] (the junction node
 *    is a socket, as in ServerPowerModel); totalPower is per server:
 *    (dynamic + leakage) * sockets + constantPower;
 *  - tj[i] is the hottest-socket junction temperature [C];
 *  - wearConsumed[i]/serviceYears[i] mirror reliability::WearTracker;
 *  - overclocked/capped are the per-step control flags;
 *  - overclockShare[i] is the share of the unit wanting an overclock
 *    this step (a whole server: 0 or 1; a rack-aggregate unit: the
 *    fractional share of its servers).
 *
 * Columns are public by design: the batched kernels (and tests) index
 * them directly, and any accessor layer would just be loop overhead.
 */
class FleetState
{
  public:
    FleetState() = default;

    /** Append @p count servers of SKU @p sku at temperature @p tj0. */
    void addServers(std::size_t count, std::uint32_t sku, Celsius tj0);

    /** @return number of servers. */
    std::size_t size() const { return skuIndex.size(); }

    /** @return whether the fleet is empty. */
    bool empty() const { return skuIndex.empty(); }

    /** Reserve capacity for @p n servers across all columns. */
    void reserve(std::size_t n);

    // ----- columns ---------------------------------------------------
    std::vector<std::uint32_t> skuIndex;
    std::vector<std::uint8_t> freqLevel;
    std::vector<std::uint8_t> overclocked;
    std::vector<std::uint8_t> capped;
    std::vector<double> utilization;
    std::vector<double> overclockShare;
    std::vector<double> dynamicPower;
    std::vector<double> leakagePower;
    std::vector<double> totalPower;
    std::vector<double> tj;
    std::vector<double> wearConsumed;
    std::vector<double> serviceYears;

    // ----- aggregates (pure reads; what the gauges poll) -------------

    /** Junction-temperature and power aggregates of one pass. */
    struct Summary
    {
        Celsius meanTj = 0.0; ///< Mean junction temperature (0 if empty).
        Celsius maxTj = 0.0;  ///< Max junction temperature (0 if empty).
        Watts power = 0.0;    ///< Total server power across the fleet.
    };

    /**
     * @return the mean and max Tj and the total power in one pass: the
     * Tj and power sums each fold left to right in server order, and
     * the max keeps the first of equal values (std::max_element's `<`).
     */
    Summary summarize() const;

    /** @return mean consumed life fraction (0 when empty). */
    double meanWearConsumed() const;

    /**
     * @return mean lifetime credit (WearTracker::credit analogue):
     * service_years / design_life - consumed, averaged over servers.
     */
    double meanWearCredit(const std::vector<SkuParams> &skus) const;

    /** @return servers currently granted an overclock. */
    std::size_t overclockedCount() const;

    /** @return servers currently power-capped. */
    std::size_t cappedCount() const;

    // ----- control-plane attachment points ---------------------------

    /**
     * Clamp every server's operating point to frequencies at or below
     * @p ceiling — the fleet-layer counterpart of
     * autoscale::AutoScaler::setFrequencyCeiling, through which a
     * cooling-degradation controller pushes a fluid-level-derived cap.
     * @return number of servers demoted.
     */
    std::size_t applyFrequencyCeiling(const std::vector<SkuParams> &skus,
                                      GHz ceiling);

    /// Per-SKU scratch used by stepThermal (decay factors); sized on
    /// first use and stable afterwards so steady-state steps do not
    /// allocate.
    std::vector<double> thermalDecayScratch;
    /// Per-server scratch used by stepWear's split passes (gate-oxide
    /// temperature factor, EM Arrhenius factor); sized with the
    /// columns by addServers, so stepWear never allocates.
    std::vector<double> wearOxideScratch;
    std::vector<double> wearArrheniusScratch;
};

/**
 * Column-pointer view over @p state for obs::FleetAggregator::observe
 * — the bridge between the columnar fleet layer and the observability
 * library, which deliberately does not include fleet headers. The
 * view borrows the columns: it is invalidated by anything that
 * resizes the fleet.
 */
obs::FleetView fleetView(const FleetState &state);

} // namespace fleet
} // namespace imsim

#endif // IMSIM_FLEET_STATE_HH
