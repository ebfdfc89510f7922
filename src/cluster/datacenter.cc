#include "cluster/datacenter.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fleet/kernels.hh"
#include "obs/blackbox.hh"
#include "obs/fleet_agg.hh"
#include "obs/watchdog.hh"
#include "obs/profiler.hh"
#include "obs/timeseries.hh"
#include "power/server_power.hh"
#include "thermal/fluid.hh"
#include "util/logging.hh"
#include "workload/trace.hh"

namespace imsim {
namespace cluster {

DatacenterPowerSim::DatacenterPowerSim(std::vector<RackConfig> rack_configs,
                                       Watts feed_capacity,
                                       double oversubscription,
                                       double oc_speedup)
    : racks(std::move(rack_configs)), feedCapacity(feed_capacity),
      oversub(oversubscription), ocSpeedup(oc_speedup)
{
    // Checks are negated in-range tests so NaN is rejected too.
    util::fatalIf(racks.empty(), "DatacenterPowerSim: need racks");
    util::fatalIf(!(feed_capacity > 0.0),
                  "DatacenterPowerSim: feed capacity must be positive");
    util::fatalIf(!(oversubscription >= 1.0),
                  "DatacenterPowerSim: oversubscription must be >= 1");
    util::fatalIf(!(oc_speedup >= 1.0),
                  "DatacenterPowerSim: speedup must be >= 1");
    for (const auto &rack : racks) {
        util::fatalIf(rack.servers == 0, "DatacenterPowerSim: empty rack");
        util::fatalIf(!(rack.idlePower >= 0.0 &&
                        rack.nominalPeak > rack.idlePower),
                      "DatacenterPowerSim: bad rack power range");
        util::fatalIf(!(rack.overclockDemand >= 0.0 &&
                        rack.overclockDemand <= 1.0),
                      "DatacenterPowerSim: overclock demand out of [0,1]");
    }
}

PerServerPhysics
PerServerPhysics::openComputeImmersed()
{
    const auto server = power::ServerPowerModel::openComputeBlade();
    const thermal::TwoPhaseImmersionCooling cooling(thermal::fc3284());
    // Constant (non-CPU) component power under this cooling system, at
    // the nominal memory clock — the ServerPowerModel budget minus the
    // sockets.
    const auto breakdown = server.compute(
        {server.socketModel().curve().nominalFrequency(),
         server.socketModel().curve().nominalVoltage(), 1.0},
        cooling);
    const Watts constant_power =
        breakdown.memory + breakdown.fans + breakdown.other;

    PerServerPhysics physics;
    physics.skus.push_back(fleet::SkuParams::fromModels(
        server.socketModel(), server.socketCount(), constant_power,
        cooling,
        /*thermal_cap=*/400.0, /*oc_ratio=*/1.23,
        /*t_min=*/cooling.referenceTemperature(0.0),
        /*design_life=*/5.0));
    return physics;
}

void
DatacenterPowerSim::enablePerServerFidelity(PerServerPhysics server_physics)
{
    util::fatalIf(server_physics.skus.empty(),
                  "enablePerServerFidelity: need at least one SKU");
    util::fatalIf(!server_physics.rackSku.empty() &&
                      server_physics.rackSku.size() != racks.size(),
                  "enablePerServerFidelity: rackSku size != rack count");
    for (const std::uint32_t s : server_physics.rackSku)
        util::fatalIf(s >= server_physics.skus.size(),
                      "enablePerServerFidelity: rack SKU out of range");
    util::fatalIf(!(server_physics.utilSpread >= 0.0 &&
                    server_physics.utilSpread <= 0.5),
                  "enablePerServerFidelity: utilSpread out of [0, 0.5]");
    physics = std::move(server_physics);
}

Watts
DatacenterPowerSim::fleetNominalPeak() const
{
    Watts total = 0.0;
    for (const auto &rack : racks)
        total += rack.nominalPeak * static_cast<double>(rack.servers);
    return total;
}

void
DatacenterPowerSim::attachObservability(obs::FleetAggregator *aggregator,
                                        obs::Watchdog *watchdog_in,
                                        obs::FlightRecorder *recorder)
{
    fleetAggregator = aggregator;
    watchdog = watchdog_in;
    flightRecorder = recorder;
}

/**
 * The per-minute observer hook: reduce the fleet columns and poll the
 * watchdog rules. Pure reads — no model state, RNG stream, telemetry
 * row, or metric is touched, so an attached observer can never change
 * a run's outcome.
 *
 * The aggregator's reduction runs over the minute loop's shards on its
 * runner (inline at one thread). min/max/count merge per shard and only
 * the sum re-reduces in unit order, so attached observers see the same
 * sample stream at every thread count. The watchdog poll stays serial
 * (it reads the aggregator's already-reduced sample).
 */
void
DatacenterPowerSim::observeMinute(std::size_t minute,
                                  const fleet::FleetState &state,
                                  const util::ShardPlan &plan,
                                  util::ShardRunner &runner) const
{
    if (!fleetAggregator && !watchdog && !flightRecorder)
        return;
    const Seconds now = static_cast<double>(minute) * 60.0;
    if (fleetAggregator)
        fleetAggregator->observe(now, fleet::fleetView(state), 60.0, plan,
                                 runner);
    if (watchdog)
        watchdog->evaluate(now);
    if (flightRecorder)
        flightRecorder->tick(now);
}

DatacenterOutcome
DatacenterPowerSim::run(OverclockPolicy policy, util::Rng &rng, double days,
                        obs::TimeSeries *telemetry) const
{
    obs::ProfScope prof("datacenter.run");
    PerServerSession session(*this, policy, rng, days, telemetry);
    session.stepMinutes(session.totalMinutes());
    return session.finish();
}

std::unique_ptr<PerServerSession>
DatacenterPowerSim::startPerServerSession(OverclockPolicy policy,
                                          util::Rng &rng, double days,
                                          obs::TimeSeries *telemetry) const
{
    util::fatalIf(physics.skus.empty(),
                  "startPerServerSession: call enablePerServerFidelity "
                  "first");
    return std::unique_ptr<PerServerSession>(new PerServerSession(
        *this, policy, rng, days, telemetry));
}

namespace {

/**
 * One smoothed diurnal utilization trace per rack (racks aggregate
 * many servers, so the trace is smoother than a single machine's),
 * stored minute-major: rack r's utilization at minute m is
 * [m * rack_count + r]. Racks draw from @p rng in rack order. Shared
 * by both fidelity modes so they see the same rack-level load.
 */
std::vector<double>
generateRackTraces(std::size_t rack_count, util::Rng &rng, double days)
{
    workload::TraceParams trace_params;
    trace_params.sampleInterval = 60.0;
    trace_params.noiseSigma = 0.03;
    trace_params.burstProb = 0.005;
    const workload::TraceGenerator gen(trace_params);
    std::vector<double> traces;
    for (std::size_t r = 0; r < rack_count; ++r) {
        const std::vector<double> rack = gen.generate(rng, days);
        traces.resize(rack.size() * rack_count);
        for (std::size_t m = 0; m < rack.size(); ++m)
            traces[m * rack_count + r] = rack[m];
    }
    return traces;
}

/**
 * Target shard size for the intra-run fan-out. The count of shards a
 * fleet splits into is a pure function of its size — never of the
 * thread count — so every --sim-threads value schedules the *same*
 * shards and reproduces the same bits (see setSimThreads). ~2k units
 * per shard keeps each shard's physics pass tens of microseconds,
 * comfortably above the fork-join synchronisation cost, while still
 * exposing 48+ shards at the roadmap's 100k-server scale.
 */
constexpr std::size_t kShardGrainUnits = 2048;

std::size_t
shardCountFor(std::size_t units)
{
    return units == 0 ? 1 : (units + kShardGrainUnits - 1) / kShardGrainUnits;
}

} // namespace

PerServerSession::PerServerSession(const DatacenterPowerSim &sim_in,
                                   OverclockPolicy policy_in,
                                   util::Rng &rng, double days,
                                   obs::TimeSeries *telemetry_in)
    : owner(sim_in), policy(policy_in),
      perServer(!sim_in.physics.skus.empty()), telemetry(telemetry_in),
      budget(sim_in.feedCapacity, sim_in.oversub),
      runner(sim_in.simThreadCount), feedCap(sim_in.feedCapacity),
      ceiling(std::numeric_limits<double>::infinity()),
      ocAdmission(sim_in.physics.skus.size(), 1.0)
{
    util::fatalIf(!(std::isfinite(days) &&
                    days * units::kMinutesPerDay >= 1.0),
                  "DatacenterPowerSim: horizon must be finite and at "
                  "least one minute");
    const auto &racks = owner.racks;
    const auto &physics = owner.physics;
    const std::vector<fleet::SkuParams> &sku_table = physics.skus;

    if (telemetry) {
        *telemetry = obs::TimeSeries();
        std::vector<std::string> columns = {"feed_draw_w",
                                            "feed_utilization", "capped",
                                            "oc_server_minutes"};
        if (perServer)
            columns.insert(columns.end(),
                           {"mean_tj_c", "max_tj_c", "mean_wear"});
        telemetry->setColumns(std::move(columns));
    }

    traces = generateRackTraces(racks.size(), rng, days);

    // Build the fleet columns: rack r owns units
    // [rackBegin[r], rackBegin[r + 1]) — its servers, or in
    // rack-aggregate mode the one unit standing for the whole rack.
    rackBegin.assign(racks.size() + 1, 0);
    for (std::size_t r = 0; r < racks.size(); ++r)
        rackBegin[r + 1] = rackBegin[r] + (perServer ? racks[r].servers : 1);
    state.reserve(rackBegin.back());
    for (std::size_t r = 0; r < racks.size(); ++r) {
        const std::uint32_t sku =
            physics.rackSku.empty() ? 0u : physics.rackSku[r];
        state.addServers(rackBegin[r + 1] - rackBegin[r], sku,
                         perServer ? sku_table[sku].coolantRef : 0.0);
    }
    n = state.size();

    if (perServer) {
        // Per-server static utilization offsets (drawn after the traces
        // so the rack-level load stream matches the aggregate mode).
        offset.assign(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            offset[i] = physics.utilSpread > 0.0
                            ? rng.uniform(-physics.utilSpread,
                                          physics.utilSpread)
                            : 0.0;

        // Deterministic overclock-demand ranks: the first
        // ceil(share * servers) servers of a rack want the overclock
        // when the wanting share is `share`, matching the aggregate
        // model's expected fraction without extra RNG draws.
        ocRank.assign(n, 0.0);
        for (std::size_t r = 0; r < racks.size(); ++r) {
            const double servers = static_cast<double>(racks[r].servers);
            for (std::size_t i = rackBegin[r]; i < rackBegin[r + 1]; ++i)
                ocRank[i] = (static_cast<double>(i - rackBegin[r]) + 0.5) /
                            servers;
        }
    }

    // Capping floors. Rack-aggregate: the configured idle power. Per
    // server they come from the physics: at zero utilization a server
    // draws its constant components plus coolant-reference leakage, a
    // guaranteed lower bound since Tj never falls below the coolant
    // reference.
    consumers.reserve(racks.size());
    for (std::size_t r = 0; r < racks.size(); ++r) {
        Watts idle_floor = racks[r].idlePower;
        if (perServer) {
            const fleet::SkuParams &p =
                sku_table[physics.rackSku.empty() ? 0u : physics.rackSku[r]];
            idle_floor =
                p.leakRef *
                    std::exp((p.coolantRef - p.leakRefTj) / p.leakTheta) *
                    p.sockets +
                p.constantPower;
        }
        consumers.push_back(power::PowerConsumer{
            "rack" + std::to_string(r), 0.0,
            static_cast<double>(racks[r].servers) * idle_floor,
            racks[r].priority});
    }

    out.policy = policy;
    out.fleet.servers = perServer ? n : 0;

    // Intra-run sharding (setSimThreads): the fleet splits into
    // rack-aligned shards — every rack lies whole inside one shard, so
    // a rack's demand sum is still one thread's left-to-right
    // accumulation. The plan's geometry depends only on the rack
    // layout, never the thread count, and one thread runs every shard
    // inline; shardRack[s] is the first rack of shard s.
    plan = util::ShardPlan::alignedTo(rackBegin, shardCountFor(n));
    shardRack.reserve(plan.shards() + 1);
    std::size_t r = 0;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
        while (rackBegin[r] < plan.begin(s))
            ++r;
        shardRack.push_back(r);
    }
    shardRack.push_back(racks.size());

    minutesTotal = traces.size() / racks.size();
}

const std::vector<fleet::SkuParams> &
PerServerSession::skus() const
{
    return owner.physics.skus;
}

Watts
PerServerSession::nominalFeedCapacity() const
{
    return owner.feedCapacity;
}

Watts
PerServerSession::minimumFeedDemand() const
{
    Watts total = 0.0;
    for (const auto &consumer : consumers)
        total += consumer.minimum;
    return total;
}

void
PerServerSession::setFrequencyCeiling(GHz ceiling_in)
{
    util::fatalIf(!(ceiling_in > 0.0),
                  "PerServerSession: ceiling must be positive");
    ceiling = ceiling_in;
    const auto &sku_table = owner.physics.skus;
    for (std::size_t s = 0; s < sku_table.size(); ++s) {
        const GHz f_nom = sku_table[s].level[fleet::kNominal].frequency;
        const GHz f_oc =
            sku_table[s].level[fleet::kOverclocked].frequency;
        if (ceiling >= f_oc)
            ocAdmission[s] = 1.0;
        else if (ceiling <= f_nom || f_oc <= f_nom)
            ocAdmission[s] = 0.0;
        else
            ocAdmission[s] = (ceiling - f_nom) / (f_oc - f_nom);
    }
    // Demote running operating points right away so the next physics
    // step already sees the cap, not just the next grant pass.
    state.applyFrequencyCeiling(sku_table, ceiling);
}

void
PerServerSession::setFeedCapacity(Watts capacity)
{
    util::fatalIf(!(capacity > 0.0),
                  "PerServerSession: feed capacity must be positive");
    feedCap = capacity;
    budget.setCapacity(capacity);
}

void
PerServerSession::setPackingFraction(double fraction)
{
    util::fatalIf(!(fraction > 0.0 && fraction <= 1.0),
                  "PerServerSession: packing fraction out of (0, 1]");
    packing = fraction;
}

void
PerServerSession::stepMinutes(std::size_t count)
{
    util::fatalIf(finished,
                  "PerServerSession: stepMinutes after finish");
    while (count > 0 && !done()) {
        stepMinute();
        --count;
    }
}

DatacenterOutcome
PerServerSession::finish()
{
    util::fatalIf(finished, "PerServerSession: finish called twice");
    util::fatalIf(minuteIndex == 0,
                  "PerServerSession: finish before any step");
    finished = true;
    const double total_minutes = static_cast<double>(minuteIndex);
    out.meanFeedUtilization = feedUtilSum / total_minutes;
    out.cappingMinutesShare = cappingMinutes / total_minutes;
    out.overclockShare =
        wantMinutes > 0.0 ? ocMinutes / wantMinutes : 0.0;
    out.cappedOverclockShare =
        ocMinutes > 0.0 ? cappedOcMinutes / ocMinutes : 0.0;
    out.speedupDelivered =
        wantMinutes > 0.0 ? speedupSum / wantMinutes : 1.0;
    if (perServer) {
        out.fleet.meanTj = meanTjSum / total_minutes;
        out.fleet.peakTj = peakTj;
        out.fleet.meanWearConsumed = state.meanWearConsumed();
        out.fleet.meanWearCredit =
            state.meanWearCredit(owner.physics.skus);
        out.fleet.meanServerPower =
            fleetPowerSum / total_minutes / static_cast<double>(n);
    }
    return out;
}

void
PerServerSession::stepMinute()
{
    const auto &racks = owner.racks;
    const std::vector<fleet::SkuParams> &skus = owner.physics.skus;
    const std::size_t minute = minuteIndex;
    const Seconds minute_dt = 60.0;
    const double *rack_util_now = traces.data() + minute * racks.size();

    obs::ProfScope minute_prof("datacenter.minute");

    // Rack-aggregate demand: the closed-form rack power, plus the
    // overclock power of the rack's wanting share unless the policy
    // forbids it. The unit is the rack itself (unit index r).
    const auto rackGranted = [&](std::size_t r) {
        return policy != OverclockPolicy::Never &&
               state.overclockShare[r] > 0.0;
    };
    const auto setRackDemand = [&](std::size_t r) {
        const auto &rack = racks[r];
        const double util = rack_util_now[r];
        const double servers = static_cast<double>(rack.servers);
        Watts demand =
            servers *
            (rack.idlePower + util * (rack.nominalPeak - rack.idlePower));
        state.utilization[r] = util;
        state.overclockShare[r] = util * rack.overclockDemand;
        if (rackGranted(r))
            demand += servers * state.overclockShare[r] * rack.overclockExtra;
        consumers[r].demand = demand;
    };
    // Per-server desired operating points. The control knobs nest so
    // that their neutral values (packing == 1, admission == 1) take the
    // exact branches of an unknobbed run — a session with untouched
    // knobs is bit-identical to run().
    const auto setRackOperatingPoints = [&](std::size_t r) {
        const auto &rack = racks[r];
        const std::uint32_t sku =
            owner.physics.rackSku.empty() ? 0u : owner.physics.rackSku[r];
        const double rack_util = rack_util_now[r];
        for (std::size_t i = rackBegin[r]; i < rackBegin[r + 1]; ++i) {
            double u = std::clamp(rack_util + offset[i], 0.0, 1.0);
            if (packing < 1.0) {
                // Packing: the head of the rack's rank order carries
                // the rack's whole load at proportionally higher
                // utilization; the tail idles.
                u = ocRank[i] < packing
                        ? std::clamp(rack_util / packing + offset[i],
                                     0.0, 1.0)
                        : 0.0;
            }
            state.utilization[i] = u;
            const bool wants = ocRank[i] < u * rack.overclockDemand;
            bool grant = wants && policy != OverclockPolicy::Never;
            if (grant && ocAdmission[sku] < 1.0) {
                // Frequency ceiling between the SKU's levels: admit
                // only the head of the wanting ranks, in proportion.
                grant = ocRank[i] <
                        u * rack.overclockDemand * ocAdmission[sku];
            }
            state.wantsOverclock[i] = wants ? 1 : 0;
            state.overclockShare[i] = wants ? 1.0 : 0.0;
            state.overclocked[i] = grant ? 1 : 0;
            state.freqLevel[i] =
                grant ? fleet::kOverclocked : fleet::kNominal;
        }
    };
    // Shard s's rack demands: per-server power summed left to right
    // over each rack — whole inside a single shard, so every thread
    // count associates identically.
    const auto sumShardRacks = [&](std::size_t s) {
        for (std::size_t r = shardRack[s]; r < shardRack[s + 1]; ++r) {
            Watts demand = 0.0;
            for (std::size_t i = rackBegin[r]; i < rackBegin[r + 1]; ++i)
                demand += state.totalPower[i];
            consumers[r].demand = demand;
        }
    };

    // Demand pass (per mode), elementwise per shard.
    runner.run(plan, [&](std::size_t s, std::size_t begin,
                         std::size_t end) {
        const std::size_t r_end = shardRack[s + 1];
        if (!perServer) {
            for (std::size_t r = shardRack[s]; r < r_end; ++r)
                setRackDemand(r);
            // The flags get their own loop: a byte store may alias any
            // column pointer, so inside the demand loop it would force
            // them all to be reloaded for every rack.
            for (std::size_t r = shardRack[s]; r < r_end; ++r)
                state.overclocked[r] = rackGranted(r) ? 1 : 0;
            return;
        }
        for (std::size_t r = shardRack[s]; r < r_end; ++r)
            setRackOperatingPoints(r);
        fleet::stepPower(state, skus, begin, end);
        sumShardRacks(s);
    });
    // Cross-rack total: serial, in fixed rack order (the barrier
    // before this line is what makes the order deterministic).
    Watts demand_total = 0.0;
    for (std::size_t r = 0; r < racks.size(); ++r)
        demand_total += consumers[r].demand;

    // Power-aware policy backs every overclock out when the fleet
    // would breach the feed, before capping has to fire: clear the
    // flags, then drop each rack unit's overclock part (rack-aggregate)
    // or re-price the backed-out servers at nominal and re-sum the
    // shard's racks (per-server; Tj has not moved since the demand
    // pass, so the stored leakage still holds).
    if (policy == OverclockPolicy::PowerAware &&
        demand_total > feedCap && state.overclockedCount() > 0) {
        runner.run(plan, [&](std::size_t s, std::size_t begin,
                             std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                if (state.overclocked[i] == 0)
                    continue;
                state.overclocked[i] = 0;
                if (perServer) {
                    state.freqLevel[i] = fleet::kNominal;
                    fleet::repricePower(state, skus, i, i + 1);
                } else {
                    consumers[i].demand -=
                        static_cast<double>(racks[i].servers) *
                        state.overclockShare[i] * racks[i].overclockExtra;
                }
            }
            if (perServer)
                sumShardRacks(s);
        });
    }

    budget.allocate(consumers, scratch, false);

    // Accounting walk, which also sets every unit's capped flag. A
    // unit's wanted weight is its overclock-wanting share times the
    // servers it stands for: 0 or 1 for a server, the fractional share
    // of the whole rack for a rack unit.
    Watts drawn = 0.0;
    bool any_capped = false;
    double minute_oc = 0.0;
    // The running totals are summed in locals: the walk's byte stores
    // may alias the members, which would force every addition through
    // memory.
    double want = wantMinutes;
    double oc = ocMinutes;
    double capped_oc = cappedOcMinutes;
    double speedup = speedupSum;
    const double oc_speedup = owner.ocSpeedup;
    for (std::size_t r = 0; r < racks.size(); ++r) {
        drawn += scratch.granted[r];
        const bool rack_capped = scratch.capped[r] != 0;
        const std::size_t units_end = rackBegin[r + 1];
        any_capped = any_capped || rack_capped;
        const double unit_servers =
            perServer ? 1.0 : static_cast<double>(racks[r].servers);

        for (std::size_t i = rackBegin[r]; i < units_end; ++i) {
            const double wanted = state.overclockShare[i] * unit_servers;
            want += wanted;
            state.capped[i] = rack_capped ? 1 : 0;
            if (state.overclocked[i] != 0) {
                oc += wanted;
                minute_oc += wanted;
                if (rack_capped) {
                    // Capping claws the frequency back: the overclock
                    // bought nothing this minute.
                    capped_oc += wanted;
                    speedup += wanted;
                    state.freqLevel[i] = fleet::kNominal;
                } else {
                    speedup += wanted * oc_speedup;
                }
            } else {
                speedup += wanted;
            }
        }
    }
    wantMinutes = want;
    ocMinutes = oc;
    cappedOcMinutes = capped_oc;
    speedupSum = speedup;

    // Post-capping physics (per mode). Per server: re-price the capped
    // racks at the clawed-back frequencies (before this shard's thermal
    // step moves Tj), then advance thermal and wear at that operating
    // point. Rack-aggregate: the unit's power is its granted draw.
    if (perServer) {
        fleet::prepareThermalStep(state, skus, minute_dt);
        fleet::prepareWearStep(state);
        runner.run(plan, [&](std::size_t s, std::size_t begin,
                             std::size_t end) {
            for (std::size_t r = shardRack[s]; r < shardRack[s + 1]; ++r) {
                if (scratch.capped[r] != 0)
                    fleet::repricePower(state, skus, rackBegin[r],
                                        rackBegin[r + 1]);
            }
            fleet::stepThermal(state, skus, minute_dt, begin, end);
            fleet::stepWear(state, skus, fleet::secondsToYears(minute_dt),
                            begin, end);
        });
    } else {
        for (std::size_t r = 0; r < racks.size(); ++r)
            state.totalPower[r] = scratch.granted[r];
    }

    feedUtilSum += drawn / feedCap;
    if (any_capped)
        cappingMinutes += 1.0;
    out.energyMwh += drawn / 1e6 / 60.0;

    const double feed_util = drawn / feedCap;
    const Seconds now = static_cast<double>(minute) * 60.0;
    if (perServer) {
        const fleet::FleetState::Summary summary = state.summarize();
        meanTjSum += summary.meanTj;
        peakTj = std::max(peakTj, summary.maxTj);
        fleetPowerSum += summary.power;
        if (telemetry) {
            telemetry->append(now, {drawn, feed_util, any_capped ? 1.0 : 0.0,
                                    minute_oc, summary.meanTj,
                                    summary.maxTj,
                                    state.meanWearConsumed()});
        }
    } else if (telemetry) {
        telemetry->append(now, {drawn, feed_util, any_capped ? 1.0 : 0.0,
                                minute_oc});
    }
    owner.observeMinute(minute, state, plan, runner);
    ++minuteIndex;
}

} // namespace cluster
} // namespace imsim
