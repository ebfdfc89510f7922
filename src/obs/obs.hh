/**
 * @file
 * Umbrella header for the observability library (imsim_obs): metric
 * registry, telemetry time-series + sampler, Chrome-trace event
 * tracer, run-provenance manifest, wall-clock profiler, and the
 * observer bundle components attach to — plus the shared-flag glue
 * (`--trace FILE`, `--telemetry FILE`, `--profile FILE`) the bench and
 * example binaries use, mirroring exp::maybeWriteReport.
 */

#ifndef IMSIM_OBS_OBS_HH
#define IMSIM_OBS_OBS_HH

#include <iosfwd>

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
namespace util {
class Cli;
} // namespace util

namespace obs {

/**
 * The `schema` stamp merged telemetry CSVs carry as their first
 * `# schema: ...` comment line — consumers (tools/imsim_report) use
 * it to refuse newer artifacts with a message instead of a crash.
 */
inline constexpr const char *kTelemetrySchema = "imsim.telemetry/1";

/** @return whether the Cli asked for a Chrome trace (`--trace FILE`). */
bool traceRequested(const util::Cli &cli);

/** @return whether the Cli asked for telemetry (`--telemetry FILE`). */
bool telemetryRequested(const util::Cli &cli);

/** @return whether the Cli asked for profiling (`--profile [FILE]`). */
bool profileRequested(const util::Cli &cli);

/**
 * Honor `--profile [FILE]`: when present, reset the profiler's
 * accumulated scopes and enable it. Call once at startup, before the
 * instrumented work runs. No-op (profiler stays disabled, near-zero
 * per-scope cost) when the flag is absent.
 */
void maybeEnableProfiler(const util::Cli &cli);

/**
 * Honor `--trace FILE`: when present, write @p tracer's Chrome-trace
 * JSON there, with @p manifest's JSON embedded as the trace's
 * top-level "metadata" member, and print a one-line confirmation to
 * @p os.
 */
void maybeWriteTrace(const util::Cli &cli, const EventTracer &tracer,
                     const RunManifest &manifest, std::ostream &os);

/**
 * Honor `--telemetry FILE`: when present, write the merged per-point
 * telemetry CSV there and print a one-line confirmation to @p os.
 * The `# schema:` stamp and then @p manifest lead the file as
 * `# key: value` comment lines (skipped by parseTelemetryCsv).
 */
void maybeWriteTelemetry(const util::Cli &cli,
                         const TelemetryMerger &telemetry,
                         const RunManifest &manifest, std::ostream &os);

/** @return whether the Cli asked for incidents (`--watchdog FILE`). */
bool incidentsRequested(const util::Cli &cli);

/** @return whether the Cli asked for a dump (`--blackbox FILE`). */
bool blackboxRequested(const util::Cli &cli);

/**
 * Honor `--blackbox FILE`: when present, write the labelled flight
 * recorders as one `imsim.blackbox/1` document
 * (FlightRecorder::mergedJson, @p manifest embedded as "meta") and
 * print a one-line confirmation to @p os. Pass points in sweep-index
 * order so the artifact is deterministic under any job count.
 */
void maybeWriteBlackbox(
    const util::Cli &cli,
    const std::vector<std::pair<std::string, const FlightRecorder *>>
        &points,
    const RunManifest &manifest, std::ostream &os);

/**
 * Honor `--watchdog FILE`: when present, write the labelled incident
 * logs as one `imsim.incidents/1` document (IncidentLog::mergedJson,
 * @p manifest embedded as "meta") and print a one-line confirmation
 * to @p os. Pass points in sweep-index order so the artifact is
 * deterministic under any job count.
 */
void maybeWriteIncidents(
    const util::Cli &cli,
    const std::vector<std::pair<std::string, const IncidentLog *>> &points,
    const RunManifest &manifest, std::ostream &os);

/**
 * Honor `--profile [FILE]`: when the flag was given, collect the
 * profiler's report, print its self-time table to @p os (stderr by
 * convention — keeps stdout deterministic), and, when the flag names
 * a file, also write the mergeable imsim.profile/1 JSON there with
 * @p manifest embedded as "meta".
 *
 * Call only after worker threads have been joined (e.g. after
 * SweepRunner::map returns): collection walks every registered
 * thread's scope tree.
 */
void maybeWriteProfile(const util::Cli &cli, const RunManifest &manifest,
                       std::ostream &os);

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_OBS_HH
