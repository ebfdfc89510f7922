/**
 * @file
 * Canned auto-scaling experiments (Sec. VI-D):
 *  - the model-validation run of Fig. 15 (scale-up/down only, 3 VMs,
 *    load steps 1000/2000/500/3000/1000 QPS every 5 minutes);
 *  - the full experiment of Fig. 16 / Table XI (start at 1 VM, load
 *    staircase 500 -> 4000 QPS in steps of 500 every 5 minutes, compare
 *    Baseline / OC-E / OC-A).
 */

#ifndef IMSIM_AUTOSCALE_EXPERIMENT_HH
#define IMSIM_AUTOSCALE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "util/units.hh"

namespace imsim {
namespace autoscale {

/**
 * Observability capture for one experiment run. Point
 * ExperimentParams::obs at one of these (one per run — the members
 * are not synchronised) and the run fills it in:
 *  - @ref registry holds the auto-scaler's counters and gauges;
 *  - @ref telemetry holds the periodic gauge/counter samples
 *    (period @ref telemetryPeriod, first sample at the scaler start);
 *  - @ref tracer holds scale/frequency instants on the virtual
 *    timeline, plus kernel events when @ref traceKernel is set.
 *
 * A run attaches its observers to @ref registry and @ref tracer, then
 * brackets the simulation with arm() and finish().
 *
 * The capture adds sampling events to the simulation, so runs with a
 * capture attached execute more kernel events than runs without —
 * but the *model* trajectory (latencies, VM counts, power) is
 * unchanged, and captures from replicated runs are deterministic.
 */
struct ObsCapture
{
    obs::MetricRegistry registry;
    obs::TimeSeries telemetry;
    obs::EventTracer tracer;
    Seconds telemetryPeriod = 60.0; ///< Telemetry sampling period [s].
    bool traceKernel = false;       ///< Also trace raw kernel events.

    /**
     * Enable @ref tracer on @p sim's clock, then start sampling
     * @ref registry into the tracer too, first sample now. Call after
     * the observers attach (the sampler freezes its columns here).
     */
    void arm(sim::Simulation &sim);

    /**
     * Stop sampling into @ref telemetry, disable @ref tracer, and
     * freeze provider-backed gauges with one last poll: what they read
     * dies with the run, so the capture stays safe to merge after it.
     */
    void finish();

  private:
    std::unique_ptr<obs::KernelTracer> kernelTracer;
    std::unique_ptr<obs::TelemetrySampler> sampler;
};

/** Outcome of one full auto-scaling run (a Table XI row). */
struct AutoScaleOutcome
{
    Policy policy;
    double p95Latency = 0.0;   ///< [s].
    double meanLatency = 0.0;  ///< [s].
    std::size_t maxVms = 0;    ///< Peak simultaneous VMs.
    double vmHours = 0.0;      ///< VM-hours consumed.
    double avgFrequency = 0.0; ///< Time-average fleet frequency [GHz].
    double avgPowerPerVm = 0.0;///< Average per-VM power draw [W].
    std::uint64_t requests = 0;///< Requests completed.
    std::vector<TracePoint> trace;
};

/**
 * Per-VM power attribution, shared with the capacity-crisis experiment:
 * the server VMs share small tank #1's Xeon W-3175X (28 cores); each
 * 4-vcore VM owns a 4/28 share of the package power evaluated at its
 * @p utilization and frequency @p freq [W].
 */
double perVmPower(GHz freq, double utilization);

/** Parameters shared by the canned experiments. */
struct ExperimentParams
{
    std::uint64_t seed = 42;
    Seconds stepDuration = 300.0;   ///< 5 minutes per load level.
    double kappa = 0.9;             ///< Client-Server scalable fraction.
    Seconds serviceMean = 2.6e-3;   ///< At 3.4 GHz.
    double serviceCv = 1.5;         ///< General service distribution.
    int threadsPerVm = 4;           ///< Client-Server needs 4 cores.
    std::size_t maxVms = 6;         ///< Deployment size cap (paper: 6).
    ObsCapture *obs = nullptr;      ///< Optional telemetry capture.
};

/**
 * Run the full auto-scaler experiment for one policy.
 *
 * @param policy  Baseline, OC-E, or OC-A.
 * @param params  Experiment parameters.
 */
AutoScaleOutcome runFullExperiment(Policy policy,
                                   const ExperimentParams &params = {});

/**
 * Run the Fig. 15 model-validation experiment: 3 VMs, scale-up/down only
 * (no scale-out/in), the paper's load sequence. When @p frequency_scaling
 * is false the run is the flat-frequency baseline curve of Fig. 15.
 */
AutoScaleOutcome runValidationExperiment(bool frequency_scaling,
                                         const ExperimentParams &params = {});

/**
 * Run a custom load schedule: @p qps_levels are applied in order, one
 * per @p params.stepDuration, starting from @p initial_vms server VMs.
 * The building block behind the canned experiments; exposed so users
 * can evaluate their own load shapes (down-ramps, spikes, diurnal).
 */
AutoScaleOutcome runCustomExperiment(Policy policy,
                                     const std::vector<double> &qps_levels,
                                     std::size_t initial_vms,
                                     const ExperimentParams &params = {},
                                     bool scale_out_enabled = true);

} // namespace autoscale
} // namespace imsim

#endif // IMSIM_AUTOSCALE_EXPERIMENT_HH
