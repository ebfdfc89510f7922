/**
 * @file
 * RunArtifacts: the one writer behind the sweep binaries' artifact
 * flags. A binary builds it once from its command line, hands it the
 * per-point observers the flags ask for, and calls write() once at the
 * end, which writes every requested artifact in this order:
 *
 *   --report FILE     the RunReport (imsim.report/1);
 *   --trace FILE      the per-point tracers merged into one Chrome
 *                     trace, one track per point (imsim.trace/1);
 *   --telemetry FILE  the per-point series merged into one CSV
 *                     (imsim.telemetry/1);
 *   --watchdog FILE   the per-point incident logs (imsim.incidents/1);
 *   --blackbox FILE   the per-point flight recorders (imsim.blackbox/1);
 *   --profile [FILE]  the wall-clock scope table on stderr and, when
 *                     FILE is given, the imsim.profile/1 JSON.
 *
 * Every file embeds the run's obs::RunManifest, and each write prints
 * one `[kind] wrote ... to FILE` line. Per-point artifacts merge in
 * point order, so they are byte-identical at any --jobs. A kind no
 * point was given is not written, whatever the flags say.
 */

#ifndef IMSIM_EXP_ARTIFACTS_HH
#define IMSIM_EXP_ARTIFACTS_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/obs.hh"

namespace imsim {
namespace util {
class Cli;
} // namespace util

namespace exp {

class RunReport;

/** The artifact flags of one binary invocation, and their writer. */
class RunArtifacts
{
  public:
    /**
     * Read the artifact flags from @p cli and capture the manifest for
     * (@p seed, @p jobs). `--profile` resets and enables the profiler,
     * so build this before the instrumented work runs.
     */
    RunArtifacts(const util::Cli &cli, std::uint64_t seed,
                 std::size_t jobs);

    /** Set the sweep's point labels, in point order (one slot each). */
    void setPoints(std::vector<std::string> labels);

    /** @return whether --trace or --telemetry needs per-point captures. */
    bool wantsCapture() const
    {
        return !tracePath.empty() || !telemetryPath.empty();
    }

    /** @return whether --telemetry needs a series per point. */
    bool wantsTelemetry() const { return !telemetryPath.empty(); }

    /** @return whether --blackbox needs a flight recorder per point. */
    bool wantsBlackbox() const { return !blackboxPath.empty(); }

    /** Give point @p i's observer; it is read at write(), not before. */
    void addTrace(std::size_t i, const obs::EventTracer &tracer)
    {
        points.at(i).tracer = &tracer;
    }
    void addTelemetry(std::size_t i, const obs::TimeSeries &series)
    {
        points.at(i).telemetry = &series;
    }
    void addIncidents(std::size_t i, const obs::IncidentLog &log)
    {
        points.at(i).incidents = &log;
    }
    void addRecorder(std::size_t i, obs::FlightRecorder &recorder)
    {
        points.at(i).recorder = &recorder;
    }

    /**
     * Arm every recorder given so far under its point label and make
     * the --blackbox file the post-mortem sink, so a watchdog page, an
     * invariant violation or a fatal mid-sweep dumps what they saw.
     * write() clears the sink.
     */
    void armPostMortem();

    /** @return the given tracers merged in point order, one track each. */
    obs::EventTracer mergedTrace() const;

    /** Write the given series as one merged CSV (no comment lines). */
    void writeMergedTelemetry(std::ostream &os) const;

    /**
     * Write every requested artifact, @p report stamped with the
     * manifest, with confirmation lines to @p os. Call once, after the
     * sweep's workers have joined.
     */
    void write(const RunReport &report, std::ostream &os);

  private:
    struct Point
    {
        std::string label;
        const obs::EventTracer *tracer = nullptr;
        const obs::TimeSeries *telemetry = nullptr;
        const obs::IncidentLog *incidents = nullptr;
        obs::FlightRecorder *recorder = nullptr;
    };

    /** @return (label, observer) of the points given one, in order. */
    template <typename T>
    std::vector<std::pair<std::string, const T *>>
    labelled(T *Point::*member) const;

    obs::RunManifest runManifest;
    std::string reportPath, tracePath, telemetryPath, watchdogPath,
        blackboxPath, profilePath;
    bool profile = false;
    bool postMortemArmed = false;
    std::vector<Point> points;
};

} // namespace exp
} // namespace imsim

#endif // IMSIM_EXP_ARTIFACTS_HH
