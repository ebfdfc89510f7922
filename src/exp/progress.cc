#include "exp/progress.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"

#ifdef __unix__
#include <unistd.h>
#endif

namespace imsim {
namespace exp {

namespace {

std::string
formatMs(double ms)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    return buf;
}

std::string
formatRate(double per_s)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.1f", per_s);
    return buf;
}

/** Render an ETA as "Ns" / "NmSSs" — coarse on purpose. */
std::string
formatEta(double eta_s)
{
    char buf[48];
    if (eta_s < 60.0) {
        std::snprintf(buf, sizeof(buf), "%.0fs", eta_s);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0fm%02.0fs", eta_s / 60.0,
                      eta_s - 60.0 * static_cast<int>(eta_s / 60.0));
    }
    return buf;
}

} // namespace

ProgressMonitor::ProgressMonitor(std::string label, Options opts)
    : sweepLabel(std::move(label)), options(std::move(opts))
{
    if (!options.heartbeatPath.empty()) {
        heartbeat.open(options.heartbeatPath);
        util::fatalIf(!heartbeat, "ProgressMonitor: cannot open '" +
                                      options.heartbeatPath +
                                      "' for writing");
    }
}

double
ProgressMonitor::seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

void
ProgressMonitor::begin(std::size_t total_in)
{
    std::lock_guard<std::mutex> lock(mutex);
    total = total_in;
    doneCount = 0;
    beganAt = Clock::now();
    endedAt = beganAt;
    ended = false;
    lastStatusAt = beganAt;
    statusEverPainted = false;
    lastStatusLen = 0;
    PointState queued;
    queued.queued = beganAt;
    pointStates.assign(total, queued);
    workerIds.clear();
    if (heartbeat.is_open()) {
        std::string line = "{\"event\": \"begin\", \"label\": ";
        util::Json::appendEscaped(line, sweepLabel);
        line += ", \"total\": " + std::to_string(total) + "}";
        heartbeatLocked(line);
    }
}

int
ProgressMonitor::workerIdLocked()
{
    const std::thread::id self = std::this_thread::get_id();
    for (const auto &entry : workerIds)
        if (entry.first == self)
            return entry.second;
    const int fresh = static_cast<int>(workerIds.size());
    workerIds.emplace_back(self, fresh);
    return fresh;
}

void
ProgressMonitor::pointStarted(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (index >= pointStates.size())
        return;
    pointStates[index].started = Clock::now();
    pointStates[index].worker = workerIdLocked();
}

void
ProgressMonitor::pointFinished(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (index >= pointStates.size())
        return;
    PointState &pt = pointStates[index];
    pt.finished = Clock::now();
    pt.done = true;
    ++doneCount;
    if (heartbeat.is_open()) {
        std::string line =
            "{\"event\": \"point\", \"index\": " + std::to_string(index);
        line += ", \"worker\": " + std::to_string(pt.worker);
        line +=
            ", \"queue_ms\": " + formatMs(seconds(pt.queued, pt.started) *
                                          1e3);
        line += ", \"wall_ms\": " +
                formatMs(seconds(pt.started, pt.finished) * 1e3);
        line += ", \"done\": " + std::to_string(doneCount);
        line += ", \"total\": " + std::to_string(total) + "}";
        heartbeatLocked(line);
    }
    statusLocked(doneCount == total);
}

void
ProgressMonitor::end()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (ended)
        return;
    ended = true;
    endedAt = Clock::now();
    statusLocked(true);
    if (options.status && options.statusIsTty && statusEverPainted)
        *options.status << '\n' << std::flush;
    if (heartbeat.is_open()) {
        std::string line = "{\"event\": \"end\", \"done\": " +
                           std::to_string(doneCount);
        line += ", \"total\": " + std::to_string(total);
        line += ", \"total_wall_ms\": " +
                formatMs(seconds(beganAt, endedAt) * 1e3) + "}";
        heartbeatLocked(line);
    }
}

void
ProgressMonitor::statusLocked(bool force)
{
    if (!options.status)
        return;
    const Clock::time_point now = Clock::now();
    if (!force && statusEverPainted &&
        seconds(lastStatusAt, now) < options.minStatusIntervalS)
        return;
    lastStatusAt = now;
    statusEverPainted = true;
    const double elapsed_s = std::max(seconds(beganAt, now), 1e-9);
    const double rate = static_cast<double>(doneCount) / elapsed_s;
    std::string line = "[sweep] " + sweepLabel + ": " +
                       std::to_string(doneCount) + "/" +
                       std::to_string(total) + " points";
    if (doneCount > 0) {
        line += ", " + formatRate(rate) + " pt/s";
        if (doneCount < total && rate > 0.0) {
            line += ", ETA " +
                    formatEta(static_cast<double>(total - doneCount) /
                              rate);
        }
    }
    std::ostream &os = *options.status;
    if (options.statusIsTty) {
        // Repaint in place; pad over the previous, possibly longer line.
        std::string padded = line;
        if (padded.size() < lastStatusLen)
            padded.append(lastStatusLen - padded.size(), ' ');
        lastStatusLen = line.size();
        os << '\r' << padded << std::flush;
    } else {
        os << line << '\n' << std::flush;
    }
}

void
ProgressMonitor::heartbeatLocked(const std::string &line)
{
    heartbeat << line << '\n' << std::flush;
}

RunTiming
ProgressMonitor::runTiming() const
{
    std::lock_guard<std::mutex> lock(mutex);
    RunTiming timing;
    timing.totalWallMs =
        seconds(beganAt, ended ? endedAt : Clock::now()) * 1e3;
    for (std::size_t i = 0; i < pointStates.size(); ++i) {
        const PointState &pt = pointStates[i];
        if (!pt.done)
            continue;
        PointTiming row;
        row.index = i;
        row.queueMs = seconds(pt.queued, pt.started) * 1e3;
        row.wallMs = seconds(pt.started, pt.finished) * 1e3;
        row.worker = pt.worker;
        timing.points.push_back(row);
    }
    return timing;
}

std::unique_ptr<ProgressMonitor>
progressFromCli(const util::Cli &cli, const std::string &label)
{
    if (!cli.progressRequested())
        return nullptr;
    ProgressMonitor::Options opts;
    opts.status = &std::cerr;
#ifdef __unix__
    opts.statusIsTty = isatty(2) != 0;
#endif
    opts.heartbeatPath = cli.progressFile();
    return std::make_unique<ProgressMonitor>(label, std::move(opts));
}

} // namespace exp
} // namespace imsim
