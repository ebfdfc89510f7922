/**
 * @file
 * Umbrella header: pulls in the whole ImmerSim public API. Individual
 * module headers are preferred in library code; this is a convenience
 * for examples, experiments, and downstream prototyping.
 */

#ifndef IMSIM_IMSIM_HH
#define IMSIM_IMSIM_HH

// Foundation.
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

#include "sim/simulation.hh"

// Experiment engine (parallel sweeps + structured reports).
#include "exp/report.hh"
#include "exp/sweep.hh"

// Observability (metrics, telemetry time-series, tracing, logging).
#include "obs/obs.hh"

// Physical substrates.
#include "thermal/cooling.hh"
#include "thermal/environment.hh"
#include "thermal/fluid.hh"
#include "thermal/junction.hh"
#include "thermal/liquid_loops.hh"
#include "thermal/network.hh"
#include "thermal/tank.hh"
#include "thermal/weather.hh"

#include "power/capping.hh"
#include "power/dvfs.hh"
#include "power/facility.hh"
#include "power/server_power.hh"
#include "power/socket_power.hh"
#include "power/vf_curve.hh"

#include "reliability/calibration.hh"
#include "reliability/lifetime.hh"
#include "reliability/mechanisms.hh"
#include "reliability/stability.hh"

// Hardware.
#include "hw/configs.hh"
#include "hw/counters.hh"
#include "hw/cpu.hh"
#include "hw/gpu.hh"
#include "hw/turbo.hh"

// Workloads.
#include "workload/app.hh"
#include "workload/gpu_training.hh"
#include "workload/perf.hh"
#include "workload/queueing.hh"
#include "workload/stream.hh"
#include "workload/trace.hh"

// Virtualization and cluster.
#include "vm/hypervisor.hh"
#include "vm/provisioning.hh"
#include "vm/vm.hh"

#include "fleet/kernels.hh"
#include "fleet/state.hh"

#include "cluster/buffers.hh"
#include "cluster/capacity.hh"
#include "cluster/datacenter.hh"
#include "cluster/migration.hh"
#include "cluster/packing.hh"

// Control plane.
#include "autoscale/autoscaler.hh"
#include "autoscale/experiment.hh"
#include "autoscale/model.hh"
#include "autoscale/predictive.hh"

#include "tco/tco.hh"

#include "core/bottleneck.hh"
#include "core/controller.hh"
#include "core/credit.hh"
#include "core/gpu_planner.hh"
#include "core/sku.hh"
#include "core/usecases.hh"

#endif // IMSIM_IMSIM_HH
