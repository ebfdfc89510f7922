/**
 * @file
 * Closed-loop control environment over the immersion-cooled datacenter.
 *
 * The paper's OC-A/OC-B policies are *static* frequency schedules, but
 * its real claim is that overclocking is a control knob traded against
 * wear, power, and TCO. ControlEnv packages ImmerSim as the
 * step/observe/act environment that claim calls for: a per-server
 * DatacenterPowerSim session (physics, capping, Tj, wear) coupled to a
 * QueueingCluster (tail latency) behind an epoch-stepped API, with
 * observations drawn from the published obs::FleetAggregator snapshot
 * and actions covering the frequency-ceiling, power-cap, and
 * packing-density knobs. Scripted fault::FaultPlan crises (feed
 * derates, cooling degradations, VM crashes) land at epoch boundaries,
 * so controllers are exercised through the regimes the paper's Sec. IV
 * and VII describe.
 *
 * Determinism contract: for a fixed config, seed, and action sequence,
 * every observation and the final outcome are bit-identical across any
 * --sim-threads value (the session's sharding contract) and contain no
 * wall-clock or host dependence, so controller comparisons are exactly
 * reproducible.
 */

#ifndef IMSIM_CONTROL_ENV_HH
#define IMSIM_CONTROL_ENV_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/datacenter.hh"
#include "fault/plan.hh"
#include "obs/fleet_agg.hh"
#include "sim/simulation.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace control {

/** Everything a controller may see after one epoch. */
struct Observation
{
    Seconds t = 0.0;           ///< End of the observed epoch.
    std::size_t epoch = 0;     ///< Epochs completed so far.
    std::size_t units = 0;     ///< Fleet size the snapshot reduced.

    // --- fleet physics, from the FleetAggregator snapshot ------------
    Celsius maxTjC = 0.0;      ///< Hottest junction this minute.
    Celsius p99TjC = 0.0;      ///< Fleet Tj p99.
    Celsius meanTjC = 0.0;
    Watts fleetPowerW = 0.0;   ///< Fleet IT power.
    double meanUtil = 0.0;     ///< Mean per-server utilization.
    double p99WearRatePerYear = 0.0; ///< Fleet wear-rate p99 [life/yr].

    // --- datacenter control state ------------------------------------
    double feedUtilization = 0.0; ///< Fleet power / feed capacity.
    double cappedShare = 0.0;     ///< Servers under power capping.
    double overclockedShare = 0.0;///< Servers running overclocked.
    GHz meanFrequencyGhz = 0.0;   ///< Delivered mean core clock.

    // --- workload ----------------------------------------------------
    Seconds tailP99S = 0.0;    ///< Trailing-window queueing P99.
    double epochRequests = 0.0;///< Requests completed this epoch.
    double arrivalQps = 0.0;   ///< Offered load this epoch.

    // --- economics (per epoch; what TCO-seeking controllers climb) ---
    double epochEnergyKwh = 0.0;
    double epochCostUsd = 0.0; ///< Energy + wear-amortized capex.

    // --- knob echo + crisis state ------------------------------------
    GHz frequencyCeilingGhz = 0.0;  ///< Ceiling actually applied.
    Watts feedCapacityW = 0.0;      ///< Feed capacity in force.
    double packingFraction = 1.0;
    double powerDerateFraction = 1.0; ///< < 1 while a feed crisis is on.
    bool coolingDegraded = false;     ///< Tank crisis: overclock barred.
    std::size_t crashedVms = 0;       ///< Queueing VMs currently down.
};

/** One epoch's actuation. Fields are clamped to the env's bounds. */
struct Action
{
    /** Per-SKU overclock admission via the session's frequency
     *  ceiling; clamped to [nominal, overclock] of the SKU table. */
    GHz frequencyCeiling = 1e9;
    /** Feed power cap [W]; 0 = run at the (possibly derated) nominal
     *  capacity. Clamped above the racks' capping floors. */
    Watts feedCapacity = 0.0;
    /** Packing-density knob, (0, 1]; clamped to the config minimum. */
    double packingFraction = 1.0;
};

/** Whole-episode outcome (ControlEnv::finish). */
struct ControlOutcome
{
    cluster::DatacenterOutcome datacenter;
    double p99LatencyS = 0.0;   ///< Whole-run queueing P99 (post-warmup).
    std::uint64_t requests = 0; ///< Requests completed (whole run).
    double energyMwh = 0.0;
    Watts meanFleetPowerW = 0.0;
    Celsius maxTjC = 0.0;
    double wearConsumed = 0.0;  ///< End-of-run mean life fraction.
    /** Years until mean wear reaches 1.0 at this run's wear rate. */
    double impliedLifetimeYears = 0.0;
    double totalCostUsd = 0.0;  ///< Energy + wear-amortized capex.
    /** Cost per million completed requests — the TCO axis of the
     *  Pareto front (same accounting every controller is scored by). */
    double costPerMRequestsUsd = 0.0;
    double slaViolationShare = 0.0; ///< Epochs with P99 over the SLA.
    GHz meanCeilingGhz = 0.0;   ///< Mean applied frequency ceiling.
    std::size_t epochs = 0;
};

/** Environment configuration. */
struct ControlEnvConfig
{
    // --- horizon -----------------------------------------------------
    double days = 1.0;
    Seconds epoch = 300.0;     ///< Control period; a multiple of 60 s.

    // --- datacenter --------------------------------------------------
    /** Rack layout; empty = two batch racks + one latency rack (the
     *  bench_power_oversub topology). */
    std::vector<cluster::RackConfig> racks;
    Watts feedCapacity = 40000.0;
    double oversubscription = 1.3;
    double ocSpeedup = 1.2;
    /** SKU physics; empty skus = PerServerPhysics::openComputeImmersed. */
    cluster::PerServerPhysics physics;
    cluster::OverclockPolicy policy = cluster::OverclockPolicy::Always;
    std::size_t simThreads = 1;

    // --- workload (latency proxy cluster) ----------------------------
    workload::QueueingCluster::Params queueing;
    std::size_t vms = 2;          ///< Queueing VMs.
    double baseQps = 13.0;        ///< Offered load at referenceUtil.
    double referenceUtil = 0.45;  ///< Trace mean the QPS is scaled by.
    Seconds slaP99 = 3.0;         ///< Epoch P99 SLA [s].

    // --- economics ---------------------------------------------------
    double electricityUsdPerMwh = 80.0;
    /** Server replacement cost: wear 0..1 amortizes this linearly, so
     *  running hot is priced as faster capex burn (Sec. VII framing). */
    double serverCostUsd = 9000.0;

    // --- action bounds -----------------------------------------------
    double minPackingFraction = 0.25;

    // --- crises ------------------------------------------------------
    /** Scripted faults applied at epoch boundaries: PowerDerate /
     *  PowerRestore (feed), CoolingDegrade / CoolingRestore (bars
     *  overclocking while degraded), ServerCrash / ServerRepair
     *  (queueing VMs). */
    fault::FaultPlan crises;

    ControlEnvConfig();
};

/**
 * The closed-loop environment. Drive it as:
 *
 *   ControlEnv env(cfg, rng);
 *   env.act(controller.decide(env.observe()));
 *   while (env.step())
 *       env.act(controller.decide(env.observe()));
 *   ControlOutcome outcome = env.finish();
 *
 * observe() is free to call at any time (it returns the last epoch's
 * observation); act() records the action applied from the next step()
 * on; step() advances one epoch and returns false once the horizon is
 * reached (the final epoch still runs).
 */
class ControlEnv
{
  public:
    /**
     * @param config Environment configuration.
     * @param rng    Seeds the diurnal traces, per-server offsets, and
     *               the queueing cluster's arrival/service streams.
     */
    ControlEnv(ControlEnvConfig config, util::Rng &rng);

    /** @return the last epoch's observation (initial state at epoch 0). */
    const Observation &observe() const { return lastObs; }

    /** Set the knobs applied from the next step() on. */
    void act(const Action &action);

    /**
     * Advance one epoch: apply due crises and the pending action, step
     * the datacenter session epoch-minutes, then the queueing cluster
     * over the same window, and publish a fresh observation.
     *
     * @return true while further epochs remain, false after the final
     *         epoch has been simulated.
     */
    bool step();

    /** @return total epochs in the horizon. */
    std::size_t totalEpochs() const { return epochsTotal; }

    /** @return epochs simulated so far. */
    std::size_t epochsDone() const { return epochIndex; }

    /** Final accounting; callable once, after the last epoch. */
    ControlOutcome finish();

    /** @return the SKU nominal frequency — the ceiling's floor [GHz]. */
    GHz minCeiling() const { return ceilMin; }

    /** @return the SKU overclock frequency — the ceiling's cap [GHz]. */
    GHz maxCeiling() const { return ceilMax; }

    /** @return the environment configuration. */
    const ControlEnvConfig &config() const { return cfg; }

  private:
    void applyCrisesDue(Seconds t);
    void applyKnobs();
    void publishObservation(Seconds t);
    GHz meanFleetFrequency() const;

    ControlEnvConfig cfg;
    cluster::DatacenterPowerSim dc;
    obs::FleetAggregator agg;
    std::unique_ptr<cluster::PerServerSession> session;
    sim::Simulation eventSim;
    std::unique_ptr<workload::QueueingCluster> cluster;

    std::size_t epochMinutes = 0;
    std::size_t epochsTotal = 0;
    std::size_t epochIndex = 0;
    bool finished = false;

    GHz ceilMin = 0.0;
    GHz ceilMax = 0.0;
    Action pending;             ///< Last act(); re-applied each epoch.
    GHz appliedCeiling = 0.0;   ///< Ceiling in force (crisis-clamped).

    // Crisis state.
    std::size_t nextCrisis = 0; ///< Cursor into cfg.crises.scripted().
    double powerDerate = 1.0;
    bool coolingDegraded = false;

    // Epoch accounting.
    double lastEnergyMwh = 0.0;
    double lastWear = 0.0;
    std::uint64_t lastCompleted = 0;
    std::uint64_t warmupRequests = 0;
    double totalCostUsd = 0.0;
    double ceilingSum = 0.0;
    std::size_t slaViolations = 0;
    Celsius peakTj = 0.0;
    Observation lastObs;
};

} // namespace control
} // namespace imsim

#endif // IMSIM_CONTROL_ENV_HH
