#include "autoscale/experiment.hh"

#include "hw/cpu.hh"
#include "thermal/cooling.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace autoscale {

void
ObsCapture::arm(sim::Simulation &sim)
{
    if (!tracer.enabled())
        tracer.enable([&sim] { return sim.now(); });
    if (traceKernel)
        kernelTracer = std::make_unique<obs::KernelTracer>(tracer, sim);
    sampler = std::make_unique<obs::TelemetrySampler>(sim, registry,
                                                      telemetryPeriod);
    sampler->mirrorToTracer(&tracer);
    sampler->start();
}

void
ObsCapture::finish()
{
    sampler->stop();
    telemetry = sampler->takeSeries();
    sampler.reset();
    kernelTracer.reset();
    tracer.disable();
    for (const auto &entry : registry.gauges()) {
        if (entry.second->provided())
            entry.second->set(entry.second->value());
    }
}

double
perVmPower(GHz freq, double utilization)
{
    static const thermal::TwoPhaseImmersionCooling cooling(
        thermal::hfe7000());
    hw::CpuModel cpu = hw::CpuModel::xeonW3175x();
    hw::DomainClocks clocks;
    clocks.core = freq;
    clocks.llc = 2.4;
    clocks.memory = 2.4;
    cpu.setClocks(clocks);
    if (freq > 3.4 + 1e-9)
        cpu.setVoltageOffset(50.0);
    const double package_share = 4.0 / 28.0;
    const auto breakdown =
        cpu.power(cooling, std::clamp(utilization, 0.0, 1.0));
    return breakdown.total * package_share;
}

namespace {

workload::QueueingCluster::Params
clusterParams(const ExperimentParams &params)
{
    workload::QueueingCluster::Params cp;
    cp.serviceMean = params.serviceMean;
    cp.serviceCv = params.serviceCv;
    cp.kappa = params.kappa;
    cp.refFreq = 3.4;
    cp.threadsPerServer = params.threadsPerVm;
    return cp;
}

/** Run a load schedule and collect the outcome. */
AutoScaleOutcome
runSchedule(Policy policy, const ExperimentParams &params,
            const std::vector<double> &qps_levels, std::size_t initial_vms,
            bool scale_out_enabled)
{
    sim::Simulation sim;
    util::Rng rng(params.seed);
    workload::QueueingCluster cluster(sim, rng.child(),
                                      clusterParams(params));

    AutoScalerConfig cfg;
    cfg.policy = policy;
    cfg.scaleOutEnabled = scale_out_enabled;
    cfg.maxVms = params.maxVms;
    for (std::size_t i = 0; i < initial_vms; ++i)
        cluster.addServer(cfg.baseFrequency);

    AutoScaler scaler(sim, cluster, cfg);

    // Optional observability capture: attach the scaler's metrics
    // and tracer, and arm the capture before the run starts.
    ObsCapture *capture = params.obs;
    if (capture) {
        scaler.attach({.metrics = &capture->registry,
                       .tracer = &capture->tracer});
        capture->arm(sim);
    }

    scaler.start();

    // Program the load staircase.
    for (std::size_t i = 0; i < qps_levels.size(); ++i) {
        const double qps = qps_levels[i];
        const Seconds when = params.stepDuration * static_cast<double>(i);
        if (when == 0.0)
            cluster.setArrivalRate(qps);
        else
            sim.at(when, [&cluster, qps] { cluster.setArrivalRate(qps); });
    }

    // Power accounting: sample per-VM power each decision period.
    util::OnlineStats power_stats;
    sim.every(cfg.decisionPeriod, [&] {
        const double util = cluster.fleetUtilization(cfg.shortWindow);
        power_stats.add(perVmPower(scaler.fleetFrequency(), util));
    });

    const Seconds horizon =
        params.stepDuration * static_cast<double>(qps_levels.size());
    sim.runUntil(horizon);
    cluster.setArrivalRate(0.0);

    if (capture)
        capture->finish();

    AutoScaleOutcome out;
    out.policy = policy;
    out.p95Latency = cluster.latencies().p95();
    out.meanLatency = cluster.latencies().mean();
    out.maxVms = cluster.maxServers();
    out.vmHours = cluster.vmHours();
    out.avgFrequency = scaler.averageFrequency();
    out.avgPowerPerVm = power_stats.mean();
    out.requests = cluster.completed();
    out.trace = scaler.trace();
    return out;
}

} // namespace

AutoScaleOutcome
runFullExperiment(Policy policy, const ExperimentParams &params)
{
    // 500 -> 4000 QPS in steps of 500 every 5 minutes (Sec. VI-D).
    std::vector<double> levels;
    for (double qps = 500.0; qps <= 4000.0; qps += 500.0)
        levels.push_back(qps);
    return runSchedule(policy, params, levels, 1, true);
}

AutoScaleOutcome
runValidationExperiment(bool frequency_scaling,
                        const ExperimentParams &params)
{
    // Fig. 15: 3 server VMs, client load 1000/2000/500/3000/1000 QPS.
    const std::vector<double> levels{1000.0, 2000.0, 500.0, 3000.0, 1000.0};
    const Policy policy =
        frequency_scaling ? Policy::OcA : Policy::Baseline;
    return runSchedule(policy, params, levels, 3, false);
}

AutoScaleOutcome
runCustomExperiment(Policy policy, const std::vector<double> &qps_levels,
                    std::size_t initial_vms, const ExperimentParams &params,
                    bool scale_out_enabled)
{
    util::fatalIf(qps_levels.empty(),
                  "runCustomExperiment: need at least one load level");
    util::fatalIf(initial_vms == 0,
                  "runCustomExperiment: need at least one initial VM");
    return runSchedule(policy, params, qps_levels, initial_vms,
                       scale_out_enabled);
}

} // namespace autoscale
} // namespace imsim
