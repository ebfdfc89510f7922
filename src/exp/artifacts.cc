#include "exp/artifacts.hh"

#include <fstream>
#include <iostream>
#include <ostream>

#include "exp/report.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace imsim {
namespace exp {

namespace {

/** Stream @p body into file @p path; FatalError when unwritable. */
template <typename Body>
void
writeFile(const std::string &path, Body body)
{
    std::ofstream out(path);
    util::fatalIf(!out, "RunArtifacts: cannot open '" + path +
                            "' for writing");
    body(out);
    util::fatalIf(!out, "RunArtifacts: failed writing '" + path + "'");
}

} // namespace

RunArtifacts::RunArtifacts(const util::Cli &cli, std::uint64_t seed,
                           std::size_t jobs)
    : runManifest(obs::RunManifest::capture(cli, seed, jobs)),
      reportPath(cli.get("--report")), tracePath(cli.get("--trace")),
      telemetryPath(cli.get("--telemetry")),
      watchdogPath(cli.get("--watchdog")),
      blackboxPath(cli.get("--blackbox")),
      profilePath(cli.get("--profile")), profile(cli.has("--profile"))
{
    if (profile) {
        obs::Profiler::reset();
        obs::Profiler::setEnabled(true);
    }
}

void
RunArtifacts::setPoints(std::vector<std::string> labels)
{
    points.clear();
    for (auto &label : labels)
        points.push_back(Point{std::move(label)});
}

void
RunArtifacts::armPostMortem()
{
    if (blackboxPath.empty())
        return;
    for (const Point &p : points)
        if (p.recorder)
            p.recorder->armPostMortem(p.label);
    obs::FlightRecorder::setPostMortemSink(blackboxPath,
                                           runManifest.toJsonObject());
    postMortemArmed = true;
}

template <typename T>
std::vector<std::pair<std::string, const T *>>
RunArtifacts::labelled(T *Point::*member) const
{
    std::vector<std::pair<std::string, const T *>> out;
    for (const Point &p : points)
        if (p.*member)
            out.emplace_back(p.label, p.*member);
    return out;
}

obs::EventTracer
RunArtifacts::mergedTrace() const
{
    obs::EventTracer merged;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].tracer)
            continue;
        const auto track = static_cast<std::uint32_t>(i);
        merged.nameTrack(track, points[i].label);
        merged.append(*points[i].tracer, track);
    }
    return merged;
}

void
RunArtifacts::writeMergedTelemetry(std::ostream &os) const
{
    obs::TelemetryMerger merger(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].telemetry)
            merger.add(i, points[i].label, *points[i].telemetry);
    merger.writeCsv(os);
}

void
RunArtifacts::write(const RunReport &report, std::ostream &os)
{
    const std::string meta = runManifest.toJsonObject();
    if (!reportPath.empty()) {
        RunReport stamped = report;
        stamped.setMeta(runManifest.entries());
        stamped.writeJsonFile(reportPath);
        os << "[report] wrote " << report.records().size()
           << " sweep points to " << reportPath << "\n";
    }
    if (!tracePath.empty() && !labelled(&Point::tracer).empty()) {
        const obs::EventTracer merged = mergedTrace();
        merged.writeJsonFile(tracePath, meta);
        os << "[trace] wrote " << merged.size() << " events to "
           << tracePath
           << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    const auto series = labelled(&Point::telemetry);
    if (!telemetryPath.empty() && !series.empty()) {
        writeFile(telemetryPath, [&](std::ostream &out) {
            out << "# schema: " << obs::kTelemetrySchema << "\n";
            runManifest.writeCsvComments(out);
            writeMergedTelemetry(out);
        });
        os << "[telemetry] wrote " << series.size()
           << " point series to " << telemetryPath << "\n";
    }
    const auto logs = labelled(&Point::incidents);
    if (!watchdogPath.empty() && !logs.empty()) {
        writeFile(watchdogPath, [&](std::ostream &out) {
            out << obs::IncidentLog::mergedJson(logs, meta);
        });
        std::size_t incidents = 0;
        for (const auto &log : logs)
            incidents += log.second->incidents().size();
        os << "[watchdog] wrote " << incidents << " incidents ("
           << logs.size() << " points) to " << watchdogPath << "\n";
    }
    const auto recorders = labelled(&Point::recorder);
    if (!blackboxPath.empty() && !recorders.empty()) {
        writeFile(blackboxPath, [&](std::ostream &out) {
            out << obs::FlightRecorder::mergedJson(recorders, meta);
        });
        std::size_t ticks = 0;
        for (const auto &recorder : recorders)
            ticks += recorder.second->ticks();
        os << "[blackbox] wrote " << recorders.size()
           << " flight recorders (" << ticks << " ticks) to "
           << blackboxPath << "\n";
    }
    if (postMortemArmed)
        obs::FlightRecorder::clearPostMortemSink();
    postMortemArmed = false;
    if (profile) {
        obs::Profiler::setEnabled(false);
        const obs::ProfileReport collected = obs::Profiler::report();
        std::cerr << "\n[profile] wall-clock scope times ("
                  << collected.entries().size() << " scope paths):\n";
        collected.toTable().print(std::cerr);
        if (!profilePath.empty()) {
            collected.writeJsonFile(profilePath, meta);
            std::cerr << "[profile] wrote " << collected.entries().size()
                      << " scope paths to " << profilePath << "\n";
        }
    }
}

} // namespace exp
} // namespace imsim
