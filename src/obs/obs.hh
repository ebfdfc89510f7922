/**
 * @file
 * Umbrella header for the observability library (imsim_obs): metric
 * registry, telemetry time-series + sampler, Chrome-trace event
 * tracer, run-provenance manifest, wall-clock profiler, fleet
 * aggregator, watchdog and incident log, flight recorder, and the
 * observer bundle components attach to. The binaries' artifact flags
 * that write these out are read by exp::RunArtifacts.
 */

#ifndef IMSIM_OBS_OBS_HH
#define IMSIM_OBS_OBS_HH

#include "obs/blackbox.hh"
#include "obs/fleet_agg.hh"
#include "obs/incident.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/observers.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"

namespace imsim {
namespace obs {

/**
 * The `schema` stamp merged telemetry CSVs carry as their first
 * `# schema: ...` comment line — consumers (tools/imsim_report) use
 * it to refuse newer artifacts with a message instead of a crash.
 */
inline constexpr const char *kTelemetrySchema = "imsim.telemetry/1";

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_OBS_HH
