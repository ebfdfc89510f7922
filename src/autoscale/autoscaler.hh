/**
 * @file
 * The overclocking-enhanced auto-scaler (ASC) of Fig. 14 and Sec. VI-D.
 *
 * Every 3 seconds the ASC reads telemetry (Aperf, Pperf, utilization)
 * from the server VMs and decides:
 *  - scale-out/in on the 3-minute average utilization (thresholds 50 % /
 *    20 %), one VM at a time, with a 60 s VM-creation latency;
 *  - scale-up/down on the 30-second average utilization (thresholds 40 % /
 *    20 %) by picking the minimum sufficient frequency from 8 bins in
 *    [3.4, 4.1] GHz via Eq. 1.
 *
 * Three policies are supported:
 *  - Baseline: scale-out/in only, frequency pinned at B2 (3.4 GHz);
 *  - OC-E: overclock to the maximum while a scale-out is in flight,
 *    hiding the creation latency (Fig. 8a);
 *  - OC-A: scale up first to postpone/avoid scale-out ("scale up and
 *    then out", Fig. 8b).
 */

#ifndef IMSIM_AUTOSCALE_AUTOSCALER_HH
#define IMSIM_AUTOSCALE_AUTOSCALER_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "autoscale/model.hh"
#include "hw/counters.hh"
#include "obs/observers.hh"
#include "sim/simulation.hh"
#include "workload/queueing.hh"

namespace imsim {

namespace obs {
class Counter;
} // namespace obs

namespace autoscale {

/** Auto-scaler policy (Table XI rows). */
enum class Policy
{
    Baseline, ///< Scale-out/in only.
    OcE,      ///< Overclock while scaling out.
    OcA,      ///< Overclock before scaling out ("scale up then out").
};

/** @return a printable policy name. */
std::string policyName(Policy policy);

/** Auto-scaler configuration (defaults follow Sec. VI-D exactly). */
struct AutoScalerConfig
{
    Policy policy = Policy::Baseline;
    double scaleOutThreshold = 0.50; ///< On the 3-minute window.
    double scaleInThreshold = 0.20;  ///< On the 3-minute window.
    double scaleUpThreshold = 0.40;  ///< On the 30-second window.
    double scaleDownThreshold = 0.20;///< On the 30-second window.
    Seconds longWindow = 180.0;      ///< Scale-out/in window.
    Seconds shortWindow = 30.0;      ///< Scale-up/down window.
    Seconds decisionPeriod = 3.0;    ///< Decision loop period.
    Seconds scaleOutLatency = 60.0;  ///< VM creation latency.
    GHz baseFrequency = 3.4;         ///< B2.
    GHz maxFrequency = 4.1;          ///< OC1.
    int frequencyBins = 8;           ///< Bins between base and max.
    std::size_t minVms = 1;
    std::size_t maxVms = 16;
    bool scaleOutEnabled = true;     ///< Fig. 15 validation disables this.
};

/** One decision-tick trace sample (Figs. 15 and 16). */
struct TracePoint
{
    Seconds time;
    double util30;    ///< 30 s average utilization.
    double util180;   ///< 3 min average utilization.
    GHz frequency;    ///< Fleet frequency after the decision.
    std::size_t vms;  ///< Active VMs.
    bool scaleOutPending;
};

/**
 * The auto-scaler, driving a QueueingCluster on a Simulation.
 */
class AutoScaler
{
  public:
    /**
     * @param simulation Event kernel.
     * @param cluster    Cluster of server VMs to manage.
     * @param config     Policy and thresholds.
     */
    AutoScaler(sim::Simulation &simulation,
               workload::QueueingCluster &cluster, AutoScalerConfig config);

    /**
     * Attach observers; reads `metrics` and `tracer`. Call before
     * start().
     *  - metrics: counters `autoscaler.scale_outs`,
     *    `autoscaler.scale_ins`, `autoscaler.freq_changes` and gauges
     *    `autoscaler.vms`, `autoscaler.frequency_ghz`,
     *    `autoscaler.util30`, `autoscaler.util180`,
     *    `autoscaler.queue_depth` (polled from the cluster, so a
     *    TelemetrySampler sees live values), registered here.
     *  - tracer: instant events for scale-out/in and frequency
     *    changes.
     */
    void attach(const obs::Observers &bundle);

    /** Arm the decision loop (first decision after one period). */
    void start();

    /** @return the recorded decision trace. */
    const std::vector<TracePoint> &trace() const { return traceLog; }

    /** @return scale-out invocations issued. */
    std::size_t scaleOuts() const { return scaleOutCount; }

    /** @return scale-in invocations issued. */
    std::size_t scaleIns() const { return scaleInCount; }

    /** @return current fleet frequency [GHz]. */
    GHz fleetFrequency() const { return fleetFreq; }

    /** @return the configuration. */
    const AutoScalerConfig &config() const { return cfg; }

    /**
     * Time-average fleet frequency since start [GHz], for power
     * accounting.
     */
    double averageFrequency() const;

    /**
     * Fleet-average dPperf/dAperf since the previous measurement.
     *
     * Reads and advances the per-server counter deltas (the decision
     * loop calls this every tick); entries belonging to servers that
     * are no longer active are pruned, so the tracked set never grows
     * past the live fleet. Returns 1.0 (fully scalable) before first
     * deltas exist.
     */
    double measureScalableFraction();

    /**
     * Drop the stored counter baseline for server @p id. Called on
     * scale-in, and by fault injection when a server crashes — a
     * repaired server would otherwise have its first Aperf/Pperf delta
     * span the dead gap and skew the scalable fraction.
     */
    void invalidateServerCounters(std::size_t id);

    /** @return servers with a stored counter baseline (observability). */
    std::size_t trackedCounterServers() const { return lastCounters.size(); }

    /**
     * Cap the frequency the scaler may run the fleet at (cooling
     * degradation derates through this; see fault::FaultInjector). If
     * the fleet currently runs above the new ceiling it is brought
     * down immediately. Resetting to config().maxFrequency lifts the
     * derate.
     */
    void setFrequencyCeiling(GHz f);

    /** @return the active frequency ceiling [GHz]. */
    GHz frequencyCeiling() const { return freqCeiling; }

  private:
    void decide();
    void triggerScaleOut();
    void applyFrequency(GHz f);

    sim::Simulation &sim;
    workload::QueueingCluster &cluster;
    AutoScalerConfig cfg;
    FrequencyGrid grid;
    bool running = false;
    bool scaleOutPending = false;
    GHz fleetFreq;
    GHz freqCeiling;
    std::vector<TracePoint> traceLog;
    std::size_t scaleOutCount = 0;
    std::size_t scaleInCount = 0;
    std::unordered_map<std::size_t, hw::CounterSample> lastCounters;
    double freqIntegral = 0.0;
    Seconds lastFreqChange = 0.0;
    Seconds startTime = 0.0;

    obs::EventTracer *tracer = nullptr;
    obs::Counter *scaleOutMetric = nullptr;
    obs::Counter *scaleInMetric = nullptr;
    obs::Counter *freqChangeMetric = nullptr;
};

} // namespace autoscale
} // namespace imsim

#endif // IMSIM_AUTOSCALE_AUTOSCALER_HH
