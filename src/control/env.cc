#include "control/env.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fleet/state.hh"
#include "util/logging.hh"

namespace imsim {
namespace control {

namespace {

constexpr double kSecondsPerMinute = 60.0;

/// Aggregator sized to the SKU table, snapshot-only: the env reads the
/// published sample each epoch and never needs the per-tick series or
/// whole-run sketches.
obs::FleetAggregator::Config
aggConfigFor(const cluster::PerServerPhysics &physics)
{
    obs::FleetAggregator::Config agg_cfg;
    agg_cfg.skuCount = std::max<std::size_t>(physics.skus.size(), 1);
    agg_cfg.record = false;
    agg_cfg.cumulative = false;
    return agg_cfg;
}

} // namespace

ControlEnvConfig::ControlEnvConfig()
{
    // The bench_power_oversub topology scaled down to the smallest
    // fleet that still exercises priority-aware capping: two batch
    // racks that soak the feed and one latency rack whose tenants want
    // overclocking.
    cluster::RackConfig batch;
    batch.servers = 8;
    batch.priority = 1;
    batch.overclockDemand = 0.3;
    cluster::RackConfig latency;
    latency.servers = 8;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    racks = {batch, batch, latency};
    physics = cluster::PerServerPhysics::openComputeImmersed();
    // The latency proxy: a few VMs whose service demand puts the
    // cluster near the knee at baseQps — nominal-frequency capacity is
    // ~20 qps, so the diurnal peak (~1.5x the base rate) overloads a
    // non-overclocked cluster and the tail rewards buying frequency.
    // The long per-request demand keeps simulated request counts (and
    // bench wall-clock) an order of magnitude below a web-scale mean
    // at the same utilization.
    queueing.serviceMean = 0.4;
    queueing.refFreq = 0.0; // 0 = derive from the SKU nominal point.
}

ControlEnv::ControlEnv(ControlEnvConfig config, util::Rng &rng)
    : cfg(std::move(config)),
      dc(cfg.racks, cfg.feedCapacity, cfg.oversubscription, cfg.ocSpeedup),
      agg(aggConfigFor(cfg.physics))
{
    util::fatalIf(cfg.epoch < kSecondsPerMinute ||
                      std::fmod(cfg.epoch, kSecondsPerMinute) != 0.0,
                  "ControlEnv: epoch must be a positive multiple of 60 s");
    util::fatalIf(cfg.days <= 0.0, "ControlEnv: days must be positive");
    util::fatalIf(cfg.vms == 0, "ControlEnv: need at least one VM");
    util::fatalIf(cfg.referenceUtil <= 0.0,
                  "ControlEnv: referenceUtil must be positive");
    util::fatalIf(cfg.minPackingFraction <= 0.0 ||
                      cfg.minPackingFraction > 1.0,
                  "ControlEnv: minPackingFraction out of (0,1]");

    dc.enablePerServerFidelity(cfg.physics);
    dc.setSimThreads(cfg.simThreads);
    dc.attachObservability(&agg, nullptr);

    // Session first: it consumes the trace/offset draws exactly as
    // run() would, then the queueing cluster forks its own substream,
    // so the datacenter side of the episode is bit-identical to a
    // plain run() with the same seed.
    session = dc.startPerServerSession(cfg.policy, rng, cfg.days);

    epochMinutes = static_cast<std::size_t>(cfg.epoch / kSecondsPerMinute);
    epochsTotal = session->totalMinutes() / epochMinutes;
    util::fatalIf(epochsTotal == 0,
                  "ControlEnv: horizon shorter than one epoch");

    const auto &skus = session->skus();
    ceilMin = skus[0].level[fleet::kNominal].frequency;
    ceilMax = skus[0].level[fleet::kOverclocked].frequency;
    for (const auto &sku : skus) {
        ceilMin = std::min(ceilMin, sku.level[fleet::kNominal].frequency);
        ceilMax = std::max(ceilMax,
                           sku.level[fleet::kOverclocked].frequency);
    }

    workload::QueueingCluster::Params qp = cfg.queueing;
    if (qp.refFreq <= 0.0)
        qp.refFreq = ceilMin;
    cluster = std::make_unique<workload::QueueingCluster>(
        eventSim, rng.child(), qp);
    for (std::size_t i = 0; i < cfg.vms; ++i)
        cluster->addServer(ceilMin);
    cluster->enableTailTracking(cfg.epoch);
    cluster->setArrivalRate(cfg.baseQps);

    pending.frequencyCeiling = ceilMax;
    appliedCeiling = ceilMax;
    publishObservation(0.0);
}

void
ControlEnv::act(const Action &action)
{
    util::fatalIf(finished, "ControlEnv::act: episode finished");
    pending = action;
}

void
ControlEnv::applyCrisesDue(Seconds t)
{
    const auto &events = cfg.crises.scripted();
    while (nextCrisis < events.size() && events[nextCrisis].first <= t) {
        const fault::Fault &f = events[nextCrisis].second;
        switch (f.kind) {
          case fault::FaultKind::PowerDerate:
            util::fatalIf(f.magnitude <= 0.0 || f.magnitude >= 1.0,
                          "ControlEnv: PowerDerate magnitude out of (0,1)");
            powerDerate = f.magnitude;
            break;
          case fault::FaultKind::PowerRestore:
            powerDerate = 1.0;
            break;
          case fault::FaultKind::CoolingDegrade:
            // A degraded tank cannot absorb the overclock's extra heat:
            // bar overclocking outright until restored.
            coolingDegraded = true;
            break;
          case fault::FaultKind::CoolingRestore:
            coolingDegraded = false;
            break;
          case fault::FaultKind::ServerCrash: {
            std::size_t victim = f.target;
            if (victim == fault::kAnyServer) {
                // Deterministic victim: the lowest-id live server.
                victim = cluster->serverCount();
                for (std::size_t id = 0; id < cluster->serverCount();
                     ++id) {
                    if (cluster->isActive(id) && !cluster->isCrashed(id)) {
                        victim = id;
                        break;
                    }
                }
            }
            if (victim < cluster->serverCount() &&
                cluster->isActive(victim) && !cluster->isCrashed(victim))
                cluster->crashServer(victim);
            break;
          }
          case fault::FaultKind::ServerRepair: {
            std::size_t victim = f.target;
            if (victim == fault::kAnyServer) {
                victim = cluster->serverCount();
                for (std::size_t id = 0; id < cluster->serverCount();
                     ++id) {
                    if (cluster->isCrashed(id)) {
                        victim = id;
                        break;
                    }
                }
            }
            if (victim < cluster->serverCount() &&
                cluster->isCrashed(victim))
                cluster->repairServer(victim);
            break;
          }
        }
        ++nextCrisis;
    }
}

void
ControlEnv::applyKnobs()
{
    // Ceiling: the action clamped to the SKU envelope, then crisis-
    // clamped — a degraded tank forces nominal regardless of the ask.
    GHz ceiling = std::clamp(pending.frequencyCeiling, ceilMin, ceilMax);
    if (coolingDegraded)
        ceiling = ceilMin;
    appliedCeiling = ceiling;
    session->setFrequencyCeiling(ceiling);

    // Feed: the derated nominal is the physical limit; an action cap
    // below it tightens further, and everything stays above the racks'
    // capping floors so the allocator never browns out.
    const Watts derated = session->nominalFeedCapacity() * powerDerate;
    Watts cap = pending.feedCapacity > 0.0
                    ? std::min(pending.feedCapacity, derated)
                    : derated;
    cap = std::max(cap, session->minimumFeedDemand());
    session->setFeedCapacity(cap);

    session->setPackingFraction(std::clamp(
        pending.packingFraction, cfg.minPackingFraction, 1.0));
}

bool
ControlEnv::step()
{
    util::fatalIf(finished, "ControlEnv::step: episode finished");
    util::fatalIf(epochIndex >= epochsTotal,
                  "ControlEnv::step: horizon already reached");

    const Seconds epoch_start =
        static_cast<double>(epochIndex) * cfg.epoch;
    applyCrisesDue(epoch_start);
    applyKnobs();

    const double energy0 = session->energyMwhSoFar();
    const double wear0 = session->fleet().meanWearConsumed();
    session->stepMinutes(epochMinutes);

    // Couple the physics to the latency proxy: the queueing VMs run
    // the epoch at the fleet's delivered mean clock, with offered load
    // tracking the diurnal utilization the traces produced.
    const obs::FleetSample sample = agg.snapshot();
    const fleet::FleetState &state = session->fleet();
    const GHz mean_freq = meanFleetFrequency();
    const double mean_util = sample.overall[obs::kChanUtilization].mean;
    const double qps =
        cfg.baseQps * std::max(mean_util / cfg.referenceUtil, 0.05);
    cluster->setAllFrequencies(mean_freq);
    cluster->setArrivalRate(qps);
    const Seconds epoch_end = epoch_start + cfg.epoch;
    eventSim.runUntil(epoch_end);

    ++epochIndex;
    if (epochIndex == 1) {
        // Epoch 0 is warmup: the whole-run percentile estimator
        // restarts so transient queue build-out does not dominate P99.
        warmupRequests = cluster->completed();
        cluster->resetLatencies();
        lastCompleted = cluster->completed();
    }

    // Economics of the epoch just run: energy at the tariff plus wear
    // amortizing the replacement capex across the fleet.
    const double epoch_energy_mwh = session->energyMwhSoFar() - energy0;
    const double wear1 = state.meanWearConsumed();
    const double epoch_cost =
        epoch_energy_mwh * cfg.electricityUsdPerMwh +
        (wear1 - wear0) * static_cast<double>(state.size()) *
            cfg.serverCostUsd;
    totalCostUsd += epoch_cost;
    ceilingSum += appliedCeiling;
    peakTj = std::max(peakTj, sample.overall[obs::kChanTj].max);

    publishObservation(epoch_end);
    lastObs.epochEnergyKwh = epoch_energy_mwh * 1000.0;
    lastObs.epochCostUsd = epoch_cost;
    lastObs.epochRequests =
        static_cast<double>(cluster->completed() - lastCompleted);
    lastObs.arrivalQps = qps;
    lastCompleted = cluster->completed();
    if (lastObs.tailP99S > cfg.slaP99)
        ++slaViolations;

    return epochIndex < epochsTotal;
}

GHz
ControlEnv::meanFleetFrequency() const
{
    const fleet::FleetState &state = session->fleet();
    if (state.empty())
        return ceilMin;
    const auto &skus = session->skus();
    double freq_sum = 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
        freq_sum +=
            skus[state.skuIndex[i]].level[state.freqLevel[i]].frequency;
    }
    return freq_sum / static_cast<double>(state.size());
}

void
ControlEnv::publishObservation(Seconds t)
{
    const obs::FleetSample sample = agg.snapshot();
    lastObs.t = t;
    lastObs.epoch = epochIndex;
    lastObs.units = sample.units;
    lastObs.maxTjC = sample.overall[obs::kChanTj].max;
    lastObs.p99TjC = sample.overall[obs::kChanTj].p99;
    lastObs.meanTjC = sample.overall[obs::kChanTj].mean;
    lastObs.fleetPowerW = sample.fleetPower;
    lastObs.meanUtil = sample.overall[obs::kChanUtilization].mean;
    lastObs.p99WearRatePerYear = sample.overall[obs::kChanWearRate].p99;

    const fleet::FleetState &state = session->fleet();
    lastObs.feedUtilization =
        session->feedCapacity() > 0.0
            ? sample.fleetPower / session->feedCapacity()
            : 0.0;
    lastObs.cappedShare =
        state.empty() ? 0.0
                      : static_cast<double>(state.cappedCount()) /
                            static_cast<double>(state.size());
    lastObs.overclockedShare =
        state.empty() ? 0.0
                      : static_cast<double>(state.overclockedCount()) /
                            static_cast<double>(state.size());
    lastObs.meanFrequencyGhz = meanFleetFrequency();

    lastObs.tailP99S = cluster ? cluster->recentTailQuantile(99.0) : 0.0;

    lastObs.frequencyCeilingGhz = appliedCeiling;
    lastObs.feedCapacityW = session->feedCapacity();
    lastObs.packingFraction = session->packingFraction();
    lastObs.powerDerateFraction = powerDerate;
    lastObs.coolingDegraded = coolingDegraded;
    lastObs.crashedVms = cluster ? cluster->crashedServers() : 0;
}

ControlOutcome
ControlEnv::finish()
{
    util::fatalIf(finished, "ControlEnv::finish: called twice");
    util::fatalIf(epochIndex < epochsTotal,
                  "ControlEnv::finish: horizon not reached");
    finished = true;

    ControlOutcome result;
    result.datacenter = session->finish();
    result.p99LatencyS = cluster->latencies().p99();
    result.requests = cluster->completed() - warmupRequests;
    result.energyMwh = result.datacenter.energyMwh;
    result.meanFleetPowerW =
        result.datacenter.fleet.meanServerPower *
        static_cast<double>(result.datacenter.fleet.servers);
    result.maxTjC = peakTj;
    result.wearConsumed = result.datacenter.fleet.meanWearConsumed;
    const double years = cfg.days / 365.0;
    result.impliedLifetimeYears =
        result.wearConsumed > 1e-12 ? years / result.wearConsumed : 1e6;
    result.totalCostUsd = totalCostUsd;
    result.costPerMRequestsUsd =
        result.requests > 0
            ? totalCostUsd * 1e6 / static_cast<double>(result.requests)
            : 0.0;
    result.slaViolationShare = static_cast<double>(slaViolations) /
                               static_cast<double>(epochsTotal);
    result.meanCeilingGhz = ceilingSum / static_cast<double>(epochsTotal);
    result.epochs = epochsTotal;
    return result;
}

} // namespace control
} // namespace imsim
