#include "obs/obs.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/cli.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace imsim {
namespace obs {

bool
traceRequested(const util::Cli &cli)
{
    return !cli.traceFile().empty();
}

bool
telemetryRequested(const util::Cli &cli)
{
    return !cli.telemetryFile().empty();
}

bool
profileRequested(const util::Cli &cli)
{
    return cli.has("--profile");
}

void
maybeEnableProfiler(const util::Cli &cli)
{
    if (!profileRequested(cli))
        return;
    Profiler::reset();
    Profiler::setEnabled(true);
}

void
maybeWriteTrace(const util::Cli &cli, const EventTracer &tracer,
                const RunManifest &manifest, std::ostream &os)
{
    const std::string path = cli.traceFile();
    if (path.empty())
        return;
    tracer.writeJsonFile(path, manifest.toJsonObject());
    os << "[trace] wrote " << tracer.size() << " events to " << path
       << " (load in chrome://tracing or ui.perfetto.dev)\n";
}

void
maybeWriteTelemetry(const util::Cli &cli, const TelemetryMerger &telemetry,
                    const RunManifest &manifest, std::ostream &os)
{
    const std::string path = cli.telemetryFile();
    if (path.empty())
        return;
    std::ofstream out(path);
    util::fatalIf(!out, "maybeWriteTelemetry: cannot open '" + path +
                            "' for writing");
    out << "# schema: " << kTelemetrySchema << "\n";
    manifest.writeCsvComments(out);
    telemetry.writeCsv(out);
    util::fatalIf(!out,
                  "maybeWriteTelemetry: failed writing '" + path + "'");
    os << "[telemetry] wrote " << telemetry.filledCount()
       << " point series to " << path << "\n";
}

bool
incidentsRequested(const util::Cli &cli)
{
    return !cli.watchdogFile().empty();
}

void
maybeWriteIncidents(
    const util::Cli &cli,
    const std::vector<std::pair<std::string, const IncidentLog *>> &points,
    const RunManifest &manifest, std::ostream &os)
{
    const std::string path = cli.watchdogFile();
    if (path.empty())
        return;
    std::ofstream out(path);
    util::fatalIf(!out, "maybeWriteIncidents: cannot open '" + path +
                            "' for writing");
    out << IncidentLog::mergedJson(points, manifest.toJsonObject());
    util::fatalIf(!out,
                  "maybeWriteIncidents: failed writing '" + path + "'");
    std::size_t incidents = 0;
    for (const auto &point : points)
        incidents += point.second->incidents().size();
    os << "[watchdog] wrote " << incidents << " incidents ("
       << points.size() << " points) to " << path << "\n";
}

bool
blackboxRequested(const util::Cli &cli)
{
    return !cli.blackboxFile().empty();
}

void
maybeWriteBlackbox(
    const util::Cli &cli,
    const std::vector<std::pair<std::string, const FlightRecorder *>>
        &points,
    const RunManifest &manifest, std::ostream &os)
{
    const std::string path = cli.blackboxFile();
    if (path.empty())
        return;
    std::ofstream out(path);
    util::fatalIf(!out, "maybeWriteBlackbox: cannot open '" + path +
                            "' for writing");
    out << FlightRecorder::mergedJson(points, manifest.toJsonObject());
    util::fatalIf(!out,
                  "maybeWriteBlackbox: failed writing '" + path + "'");
    std::size_t ticks = 0;
    for (const auto &point : points)
        ticks += point.second->ticks();
    os << "[blackbox] wrote " << points.size() << " flight recorders ("
       << ticks << " ticks) to " << path << "\n";
}

void
maybeWriteProfile(const util::Cli &cli, const RunManifest &manifest,
                  std::ostream &os)
{
    if (!profileRequested(cli))
        return;
    Profiler::setEnabled(false);
    const ProfileReport report = Profiler::report();
    os << "\n[profile] wall-clock scope times (" << report.entries().size()
       << " scope paths):\n";
    std::ostringstream table;
    report.toTable().print(table);
    os << table.str();
    const std::string path = cli.profileFile();
    if (!path.empty()) {
        report.writeJsonFile(path, manifest.toJsonObject());
        os << "[profile] wrote " << report.entries().size()
           << " scope paths to " << path << "\n";
    }
}

} // namespace obs
} // namespace imsim
