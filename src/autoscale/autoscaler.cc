#include "autoscale/autoscaler.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace imsim {
namespace autoscale {

std::string
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Baseline:
        return "Baseline";
      case Policy::OcE:
        return "OC-E";
      case Policy::OcA:
        return "OC-A";
    }
    util::panic("policyName: unhandled policy");
}

AutoScaler::AutoScaler(sim::Simulation &simulation,
                       workload::QueueingCluster &cluster_in,
                       AutoScalerConfig config)
    : sim(simulation), cluster(cluster_in), cfg(config),
      grid(config.baseFrequency, config.maxFrequency, config.frequencyBins),
      fleetFreq(config.baseFrequency), freqCeiling(config.maxFrequency)
{
    util::fatalIf(cfg.decisionPeriod <= 0.0,
                  "AutoScaler: decision period must be positive");
    util::fatalIf(cfg.minVms == 0, "AutoScaler: minVms must be >= 1");
    util::fatalIf(cfg.minVms > cfg.maxVms,
                  "AutoScaler: minVms exceeds maxVms");
    util::fatalIf(cfg.scaleInThreshold >= cfg.scaleOutThreshold,
                  "AutoScaler: scale-in threshold must be below scale-out");
}

void
AutoScaler::attach(const obs::Observers &bundle)
{
    util::fatalIf(running, "AutoScaler::attach: call before start()");
    tracer = bundle.tracer;
    obs::MetricRegistry *registry = bundle.metrics;
    if (!registry) {
        scaleOutMetric = scaleInMetric = freqChangeMetric = nullptr;
        return;
    }
    scaleOutMetric = &registry->counter("autoscaler.scale_outs");
    scaleInMetric = &registry->counter("autoscaler.scale_ins");
    freqChangeMetric = &registry->counter("autoscaler.freq_changes");
    registry->registerGauge("autoscaler.vms", [this] {
        return static_cast<double>(cluster.activeServers());
    });
    registry->registerGauge("autoscaler.frequency_ghz",
                            [this] { return fleetFreq; });
    registry->registerGauge("autoscaler.util30", [this] {
        return cluster.fleetUtilization(cfg.shortWindow);
    });
    registry->registerGauge("autoscaler.util180", [this] {
        return cluster.fleetUtilization(cfg.longWindow);
    });
    registry->registerGauge("autoscaler.queue_depth", [this] {
        return static_cast<double>(cluster.queueDepth());
    });
}

void
AutoScaler::start()
{
    util::fatalIf(running, "AutoScaler::start: already running");
    running = true;
    startTime = sim.now();
    lastFreqChange = sim.now();
    sim.every(cfg.decisionPeriod, [this] { decide(); });
}

void
AutoScaler::setFrequencyCeiling(GHz f)
{
    util::fatalIf(f < cfg.baseFrequency - 1e-9,
                  "AutoScaler::setFrequencyCeiling: ceiling below base "
                  "frequency");
    freqCeiling = std::min(f, cfg.maxFrequency);
    if (fleetFreq > freqCeiling + 1e-9)
        applyFrequency(freqCeiling);
}

void
AutoScaler::applyFrequency(GHz f)
{
    f = std::min(f, freqCeiling);
    if (f == fleetFreq)
        return;
    freqIntegral += fleetFreq * (sim.now() - lastFreqChange);
    lastFreqChange = sim.now();
    fleetFreq = f;
    cluster.setAllFrequencies(f);
    if (freqChangeMetric)
        freqChangeMetric->inc();
    if (tracer) {
        tracer->instantAt("freq_change", "autoscale", sim.now(),
                          {{"ghz", f}});
    }
    if (util::logEnabled(util::LogLevel::Debug)) {
        util::log(util::LogLevel::Debug, "autoscaler",
                  "t=" + std::to_string(sim.now()) +
                      " fleet frequency -> " + std::to_string(f) + " GHz");
    }
}

double
AutoScaler::averageFrequency() const
{
    const Seconds elapsed = sim.now() - startTime;
    if (elapsed <= 0.0)
        return fleetFreq;
    const double integral =
        freqIntegral + fleetFreq * (sim.now() - lastFreqChange);
    return integral / elapsed;
}

double
AutoScaler::measureScalableFraction()
{
    // Prune baselines of servers that left the fleet (scale-in, crash):
    // a stale entry would make the first delta after a re-activation
    // span the inactive gap, and churn would grow the map unboundedly.
    for (auto it = lastCounters.begin(); it != lastCounters.end();) {
        if (it->first >= cluster.serverCount() ||
            !cluster.isActive(it->first)) {
            it = lastCounters.erase(it);
        } else {
            ++it;
        }
    }
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t id = 0; id < cluster.serverCount(); ++id) {
        if (!cluster.isActive(id))
            continue;
        const hw::CounterSample now_sample = cluster.counters(id);
        const auto it = lastCounters.find(id);
        if (it != lastCounters.end()) {
            total += now_sample.scalableFraction(it->second);
            ++counted;
        }
        lastCounters[id] = now_sample;
    }
    // Before first deltas exist, assume fully scalable work.
    return counted ? total / static_cast<double>(counted) : 1.0;
}

void
AutoScaler::invalidateServerCounters(std::size_t id)
{
    lastCounters.erase(id);
}

void
AutoScaler::triggerScaleOut()
{
    scaleOutPending = true;
    ++scaleOutCount;
    if (scaleOutMetric)
        scaleOutMetric->inc();
    if (tracer) {
        tracer->instantAt(
            "scale_out", "autoscale", sim.now(),
            {{"vms", static_cast<double>(cluster.activeServers())}});
    }
    if (util::logEnabled(util::LogLevel::Debug)) {
        util::log(util::LogLevel::Debug, "autoscaler",
                  "t=" + std::to_string(sim.now()) + " scale-out from " +
                      std::to_string(cluster.activeServers()) + " VMs");
    }
    sim.after(cfg.scaleOutLatency, [this] {
        cluster.addServer(fleetFreq);
        scaleOutPending = false;
        if (cfg.policy == Policy::OcE) {
            // Fig. 8(a): the scale-out completed; drop back to base.
            applyFrequency(cfg.baseFrequency);
        }
    });
}

void
AutoScaler::decide()
{
    obs::ProfScope prof("autoscale.decide");
    const Seconds now = sim.now();
    const double util_short =
        cluster.fleetUtilization(cfg.shortWindow);
    const double util_long = cluster.fleetUtilization(cfg.longWindow);
    const double p_over_a = measureScalableFraction();
    const std::size_t vms = cluster.activeServers();

    // --- Scale-up/down (OC-A only): every tick, pick the minimum
    // sufficient frequency for the short-window utilization.
    if (cfg.policy == Policy::OcA) {
        if (util_short > cfg.scaleUpThreshold) {
            const GHz f = minimumSufficientFrequency(
                grid, util_short, p_over_a, fleetFreq,
                cfg.scaleUpThreshold);
            if (f > fleetFreq + 1e-9)
                applyFrequency(f);
        } else if (util_short < cfg.scaleDownThreshold &&
                   fleetFreq > cfg.baseFrequency + 1e-9) {
            // Load dropped: lowest frequency that still keeps the
            // predicted utilization under the scale-up threshold.
            const GHz f = minimumSufficientFrequency(
                grid, util_short, p_over_a, fleetFreq,
                cfg.scaleUpThreshold);
            if (f < fleetFreq - 1e-9)
                applyFrequency(f);
        }
    }

    // --- Scale-out/in on the long window, one VM at a time.
    if (cfg.scaleOutEnabled && !scaleOutPending) {
        if (util_long > cfg.scaleOutThreshold && vms < cfg.maxVms) {
            if (cfg.policy == Policy::OcE)
                applyFrequency(cfg.maxFrequency); // Hide the latency.
            triggerScaleOut();
        } else if (util_long < cfg.scaleInThreshold && vms > cfg.minVms) {
            cluster.removeServer();
            ++scaleInCount;
            if (scaleInMetric)
                scaleInMetric->inc();
            if (tracer) {
                tracer->instantAt(
                    "scale_in", "autoscale", now,
                    {{"vms",
                      static_cast<double>(cluster.activeServers())}});
            }
            if (util::logEnabled(util::LogLevel::Debug)) {
                util::log(util::LogLevel::Debug, "autoscaler",
                          "t=" + std::to_string(now) + " scale-in to " +
                              std::to_string(cluster.activeServers()) +
                              " VMs");
            }
            if (cfg.policy == Policy::OcA &&
                fleetFreq > cfg.baseFrequency + 1e-9) {
                applyFrequency(cfg.baseFrequency);
            }
        }
    }

    traceLog.push_back(TracePoint{now, util_short, util_long, fleetFreq,
                                  cluster.activeServers(),
                                  scaleOutPending});
}

} // namespace autoscale
} // namespace imsim
