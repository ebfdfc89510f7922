/**
 * @file
 * Datacenter-scale power simulation: overclocking under power
 * oversubscription.
 *
 * Sec. IV ("Power consumption") warns that overclocking in power-
 * oversubscribed datacenters "increases the chance of hitting limits and
 * triggering power capping mechanisms", whose frequency reductions "might
 * offset any performance gains from overclocking" — and recommends
 * overclocking "during periods of power underutilization due to workload
 * variability and diurnal patterns" with priority-aware capping as the
 * safety net. This simulator reproduces that trade-off: a feed with an
 * oversubscribed budget, racks of servers following diurnal utilization
 * traces, and three overclocking policies whose capping exposure and
 * delivered speedup are measured.
 */

#ifndef IMSIM_CLUSTER_DATACENTER_HH
#define IMSIM_CLUSTER_DATACENTER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/state.hh"
#include "power/capping.hh"
#include "util/random.hh"
#include "util/shard.hh"
#include "util/units.hh"

namespace imsim {

namespace obs {
class FleetAggregator;
class FlightRecorder;
class TimeSeries;
class Watchdog;
} // namespace obs

namespace cluster {

/** When servers are allowed to overclock. */
enum class OverclockPolicy
{
    Never,       ///< Plain fleet, no overclocking.
    Always,      ///< Overclock whenever a server wants speed.
    PowerAware,  ///< Overclock only while the feed has headroom.
};

/** One rack of identical servers. */
struct RackConfig
{
    std::size_t servers = 24;
    Watts idlePower = 200.0;       ///< Per-server power at zero load.
    Watts nominalPeak = 700.0;     ///< Per-server power at full load.
    Watts overclockExtra = 200.0;  ///< Extra power while overclocked.
    int priority = 1;              ///< Capping priority (higher = later).
    double overclockDemand = 0.5;  ///< Fraction of busy time the rack's
                                   ///< tenants want overclocking.
};

/**
 * Configuration of the per-server fidelity mode: the SKU physics table
 * (fleet::SkuParams lifted from the scalar models) and how racks map
 * onto it.
 */
struct PerServerPhysics
{
    /** SKU table the fleet kernels run against (non-empty). */
    std::vector<fleet::SkuParams> skus;
    /** SKU index per rack; empty = every rack is SKU 0. */
    std::vector<std::uint32_t> rackSku;
    /**
     * Half-width of the static per-server utilization offset around the
     * rack trace (uniform in [-spread, +spread], drawn once per server
     * from the run's RNG), so servers inside a rack de-correlate.
     */
    double utilSpread = 0.1;

    /**
     * The paper's large-tank fleet: Open Compute blades (2x Skylake)
     * immersed in FC-3284, +23 % overclock point, 5-year design life.
     */
    static PerServerPhysics openComputeImmersed();
};

/** Per-server physics statistics of one run (per-server mode only). */
struct FleetPhysicsStats
{
    std::size_t servers = 0;       ///< Fleet size.
    Celsius meanTj = 0.0;          ///< Time-mean of the fleet-mean Tj.
    Celsius peakTj = 0.0;          ///< Highest Tj any server reached.
    double meanWearConsumed = 0.0; ///< End-of-run mean life fraction.
    double meanWearCredit = 0.0;   ///< End-of-run mean lifetime credit.
    Watts meanServerPower = 0.0;   ///< Time-mean per-server power.
};

/** Aggregate outcome of one simulated horizon. */
struct DatacenterOutcome
{
    OverclockPolicy policy;
    double energyMwh = 0.0;           ///< IT energy consumed.
    double meanFeedUtilization = 0.0; ///< Average feed draw / capacity.
    double cappingMinutesShare = 0.0; ///< Fraction of time capping fired.
    double overclockShare = 0.0;      ///< Server-minutes overclocked /
                                      ///< server-minutes wanting it.
    double cappedOverclockShare = 0.0;///< Overclocked minutes that were
                                      ///< then capped (wasted).
    double speedupDelivered = 0.0;    ///< Mean delivered speedup across
                                      ///< overclock-demanding minutes.
    FleetPhysicsStats fleet;          ///< Populated in per-server mode.
};

class DatacenterPowerSim;

/**
 * An in-flight datacenter run, advanced minute by minute. This is the
 * one minute loop of both fidelity modes: DatacenterPowerSim::run
 * builds a session, steps it to the horizon and calls finish(). In
 * per-server fidelity every fleet unit is a server; in rack-aggregate
 * fidelity every unit is a rack, whose power is the closed-form rack
 * model and whose Tj and wear columns are not stepped. Traces, the
 * capping allocation, the accounting walk, telemetry and the observer
 * hook are shared; only the demand pass, the PowerAware backout, the
 * post-capping physics, the per-server telemetry columns and
 * FleetPhysicsStats differ per mode.
 *
 * An external control loop can step a per-server session itself
 * (DatacenterPowerSim::startPerServerSession); stepping in chunks is
 * bit-identical to run() when no knob is touched mid-flight.
 *
 * Between steps, a controller may turn the actuation knobs:
 *
 *  - setFrequencyCeiling(): per-SKU overclock admission. A ceiling at
 *    or above a SKU's overclock point admits every wanting server; one
 *    at or below its nominal point admits none; in between, the head
 *    of the rack's deterministic want-ranks is admitted
 *    proportionally. Running servers above the ceiling are demoted
 *    immediately via fleet::FleetState::applyFrequencyCeiling.
 *  - setFeedCapacity(): the feed budget (PowerBudget::setCapacity),
 *    e.g. a power cap or a derated feed during a crisis.
 *  - setPackingFraction(): concentrate each rack's load onto its
 *    first `fraction` of servers (the rest idle) — the packing-density
 *    knob trading per-server utilization against idle-power overhead.
 *
 * Externally stepped sessions come from
 * DatacenterPowerSim::startPerServerSession, so the knobs only ever
 * act on per-server units; run() builds rack-aggregate sessions
 * internally and leaves every knob neutral. A session borrows the
 * parent sim (racks, physics, attached observers), which must outlive
 * it. Determinism follows the parent's contract:
 * for a fixed seed and knob/step schedule, any --sim-threads value
 * reproduces the same bits.
 */
class PerServerSession
{
  public:
    PerServerSession(const PerServerSession &) = delete;
    PerServerSession &operator=(const PerServerSession &) = delete;

    /** @return minutes in the full horizon. */
    std::size_t totalMinutes() const { return minutesTotal; }

    /** @return minutes simulated so far. */
    std::size_t minutesDone() const { return minuteIndex; }

    /** @return whether the horizon has been reached. */
    bool done() const { return minuteIndex >= minutesTotal; }

    /** Advance up to @p count minutes (stops at the horizon). */
    void stepMinutes(std::size_t count);

    /**
     * Final accounting over the minutes simulated so far. Callable
     * once; the session cannot be stepped afterwards.
     */
    DatacenterOutcome finish();

    /** @return fleet size (servers). */
    std::size_t servers() const { return n; }

    /** @return the live fleet columns (pure read). */
    const fleet::FleetState &fleet() const { return state; }

    /** Cap operating points at @p ceiling [GHz] (see class comment). */
    void setFrequencyCeiling(GHz ceiling);

    /** @return the current frequency ceiling [GHz] (+inf = uncapped). */
    GHz frequencyCeiling() const { return ceiling; }

    /** Set the feed capacity [W] (oversubscription ratio is kept). */
    void setFeedCapacity(Watts capacity);

    /** @return the current feed capacity [W]. */
    Watts feedCapacity() const { return feedCap; }

    /** @return the parent sim's nominal feed capacity [W]. */
    Watts nominalFeedCapacity() const;

    /** @return the sum of the racks' capping floors [W] — the lowest
     *  feed capacity allocatable without a brownout. */
    Watts minimumFeedDemand() const;

    /** Pack rack load onto the first @p fraction of servers, (0, 1]. */
    void setPackingFraction(double fraction);

    /** @return the current packing fraction. */
    double packingFraction() const { return packing; }

    /** @return the SKU physics table the session runs against. */
    const std::vector<fleet::SkuParams> &skus() const;

    /** @return IT energy consumed over the minutes stepped so far
     *  [MWh] — running total, so epoch deltas cost out each control
     *  period without waiting for finish(). */
    double energyMwhSoFar() const { return out.energyMwh; }

  private:
    friend class DatacenterPowerSim;
    /** @throws FatalError when @p days is not finite or shorter than
     *  one minute. */
    PerServerSession(const DatacenterPowerSim &sim_in,
                     OverclockPolicy policy_in, util::Rng &rng,
                     double days, obs::TimeSeries *telemetry_in);
    void stepMinute();

    const DatacenterPowerSim &owner;
    OverclockPolicy policy;
    bool perServer; ///< Units are servers (else racks).
    obs::TimeSeries *telemetry = nullptr;

    /** Rack utilization, minute-major: [minute * racks + r]. */
    std::vector<double> traces;
    fleet::FleetState state;
    /** Rack r owns units [rackBegin[r], rackBegin[r + 1]). */
    std::vector<std::size_t> rackBegin;
    std::size_t n = 0;
    std::vector<double> offset; ///< Static per-server util offsets.
    std::vector<double> ocRank; ///< Deterministic want/packing ranks.
    power::PowerBudget budget;
    power::AllocScratch scratch;
    std::vector<power::PowerConsumer> consumers;
    util::ShardRunner runner;
    util::ShardPlan plan;
    std::vector<std::size_t> shardRack; ///< First rack of each shard.

    DatacenterOutcome out;
    double feedUtilSum = 0.0;
    double cappingMinutes = 0.0;
    double wantMinutes = 0.0;
    double ocMinutes = 0.0;
    double cappedOcMinutes = 0.0;
    double speedupSum = 0.0;
    double meanTjSum = 0.0;
    double fleetPowerSum = 0.0;
    Celsius peakTj = 0.0;
    std::size_t minutesTotal = 0;
    std::size_t minuteIndex = 0;
    bool finished = false;

    // ----- knobs -----------------------------------------------------
    Watts feedCap = 0.0;
    GHz ceiling = 0.0; ///< +inf until setFrequencyCeiling is called.
    /** Per-SKU admitted share of overclock-wanting servers in [0, 1],
     *  derived from the ceiling against the SKU's two levels. */
    std::vector<double> ocAdmission;
    double packing = 1.0;
};

/**
 * Fixed-step (1-minute) datacenter power simulator.
 */
class DatacenterPowerSim
{
  public:
    /**
     * @param racks            Rack configurations.
     * @param feed_capacity    Feed circuit capacity [W].
     * @param oversubscription Provisioned/capacity ratio (>= 1).
     * @param oc_speedup       Speedup overclocking delivers when not
     *                         capped (e.g. 1.2).
     */
    DatacenterPowerSim(std::vector<RackConfig> racks, Watts feed_capacity,
                       double oversubscription = 1.2,
                       double oc_speedup = 1.2);

    /**
     * Simulate @p days of operation under @p policy: a session
     * (PerServerSession) stepped straight to the horizon.
     *
     * @param rng       Random stream (drives the per-rack diurnal
     *                  traces).
     * @param days      Horizon; must be finite and at least one minute.
     * @param telemetry When non-null, receives one row per simulated
     *                  minute with columns `feed_draw_w`,
     *                  `feed_utilization`, `capped`,
     *                  `oc_server_minutes` (fresh series; any prior
     *                  contents are replaced).
     */
    DatacenterOutcome run(OverclockPolicy policy, util::Rng &rng,
                          double days,
                          obs::TimeSeries *telemetry = nullptr) const;

    /**
     * Switch the per-minute loop to per-server fidelity: every server
     * gets its own utilization, junction temperature, leakage, and
     * wear columns (fleet::FleetState), stepped by the batched fleet
     * kernels, and rack demands fed into the capping allocator are the
     * sums of the per-server physics. run() then also fills
     * DatacenterOutcome::fleet and appends `mean_tj_c`, `max_tj_c` and
     * `mean_wear` telemetry columns.
     *
     * Without this call the sim runs in rack-aggregate fidelity:
     * closed-form rack power, one fleet unit per rack. Fidelity only
     * changes runs after the call.
     */
    void enablePerServerFidelity(PerServerPhysics physics);

    /**
     * Use @p threads compute threads inside each run(): the per-minute
     * fleet physics (and an attached FleetAggregator's reductions) are
     * fanned over rack-aligned shards of the fleet columns, with a
     * barrier at every minute tick before the serial accounting and
     * capping allocation.
     *
     * Determinism contract (tests/test_fleet.cc holds it bit-exact):
     * threads == 1 (the default) runs every shard inline on the
     * calling thread, and any thread count reproduces it bit-for-bit —
     * shard geometry depends only on the rack layout (never on the
     * thread count), shard bodies are elementwise, per-rack demand
     * sums stay whole inside one shard, and every order-sensitive
     * floating-point reduction runs serially in fixed rack/server
     * order after the barrier. --sim-threads trades wall-clock only,
     * never results.
     *
     * @param threads Compute threads per run, caller included
     *                (0 is clamped to 1).
     */
    void setSimThreads(std::size_t threads)
    {
        simThreadCount = threads == 0 ? 1 : threads;
    }

    /** @return compute threads used inside each run(). */
    std::size_t simThreads() const { return simThreadCount; }

    /**
     * Attach streaming observers to the minute loop: after each
     * minute's physics, @p aggregator (when non-null) reduces the
     * fleet columns (obs::FleetAggregator::observe with the minute's
     * wall time and dt=60 s) and @p watchdog (when non-null) polls its
     * rules. Works in both fidelity modes — in rack-aggregate mode the
     * aggregated "units" are racks and only the power/utilization
     * channels carry signal (Tj and wear columns are not modelled).
     *
     * When non-null, @p recorder (obs::FlightRecorder) is ticked once
     * per minute, after the aggregator reduction and the watchdog
     * poll, so its channels can read the minute's published sample
     * and alert state.
     *
     * Observers are pure reads: attaching them never changes a run's
     * outcome, telemetry, or RNG stream. Pass nullptrs to detach.
     * Every pointer must outlive subsequent run() calls.
     */
    void attachObservability(obs::FleetAggregator *aggregator,
                             obs::Watchdog *watchdog,
                             obs::FlightRecorder *recorder = nullptr);

    /** @return total nominal peak power across racks [W]. */
    Watts fleetNominalPeak() const;

    /** @return the rack configurations. */
    const std::vector<RackConfig> &rackConfigs() const { return racks; }

    /** @return the per-server physics (per-server fidelity only). */
    const PerServerPhysics &perServerPhysics() const { return physics; }

    /**
     * Start an externally stepped per-server run (see PerServerSession;
     * requires enablePerServerFidelity). The caller drives it with
     * stepMinutes()/finish(); @p rng seeds the diurnal traces and
     * per-server offsets exactly as run() would, so a session stepped
     * straight to the horizon with untouched knobs reproduces run()
     * bit-for-bit. The session borrows this sim — keep it alive.
     */
    std::unique_ptr<PerServerSession>
    startPerServerSession(OverclockPolicy policy, util::Rng &rng,
                          double days,
                          obs::TimeSeries *telemetry = nullptr) const;

  private:
    friend class PerServerSession;
    void observeMinute(std::size_t minute, const fleet::FleetState &state,
                       const util::ShardPlan &plan,
                       util::ShardRunner &runner) const;

    std::vector<RackConfig> racks;
    Watts feedCapacity;
    double oversub;
    double ocSpeedup;
    std::size_t simThreadCount = 1;
    PerServerPhysics physics; ///< Empty skus = rack-aggregate fidelity.
    obs::FleetAggregator *fleetAggregator = nullptr;
    obs::Watchdog *watchdog = nullptr;
    obs::FlightRecorder *flightRecorder = nullptr;
};

} // namespace cluster
} // namespace imsim

#endif // IMSIM_CLUSTER_DATACENTER_HH
