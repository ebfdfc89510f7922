/**
 * @file
 * Live sweep progress: exp::ProgressMonitor observes a SweepRunner
 * (per-point start/finish events), renders a rate-limited status
 * line with throughput and ETA to stderr, optionally appends a
 * machine-readable JSONL heartbeat (`--progress FILE`), and snapshots
 * per-point wall-clock timing for the report's "timing" section.
 *
 * Determinism contract: the monitor only *observes* — it never feeds
 * anything back into point bodies, all output goes to the status
 * stream (stderr) or the heartbeat file, and the report sections it
 * fills (meta/timing) sit outside the deterministic result payload.
 * A sweep's results are byte-identical with the monitor on or off.
 *
 * Thread-safety: all event methods take one internal mutex, so sweep
 * workers may call them concurrently.
 */

#ifndef IMSIM_EXP_PROGRESS_HH
#define IMSIM_EXP_PROGRESS_HH

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"

namespace imsim {
namespace util {
class Cli;
} // namespace util

namespace exp {

/**
 * Collects per-point wall-clock events from a sweep and renders
 * human status plus an optional JSONL heartbeat.
 *
 * Reusable: begin() resets the per-point state, so one monitor can
 * observe several consecutive map() calls (snapshot runTiming()
 * between them); the heartbeat file accumulates all of them.
 */
class ProgressMonitor
{
  public:
    /** Presentation knobs (the Cli glue fills these in). */
    struct Options
    {
        /** Status sink; nullptr disables the status line. */
        std::ostream *status = nullptr;
        /** Whether @c status is a terminal (use \r-updates). */
        bool statusIsTty = false;
        /** JSONL heartbeat path; empty disables the heartbeat. */
        std::string heartbeatPath;
        /** Minimum seconds between status repaints. */
        double minStatusIntervalS = 0.25;
    };

    /** Monitor with no sinks (timing capture only). */
    explicit ProgressMonitor(std::string label)
        : ProgressMonitor(std::move(label), Options())
    {}

    ProgressMonitor(std::string label, Options opts);

    /**
     * Start observing a sweep of @p total points (resets state). Every
     * point is queued at the sweep's fork, so this stamps all of them
     * queued now.
     */
    void begin(std::size_t total);

    /** Point @p index started executing on the calling thread. */
    void pointStarted(std::size_t index);

    /** Point @p index finished; updates status line and heartbeat. */
    void pointFinished(std::size_t index);

    /** Sweep done (or aborted): final status repaint + newline. */
    void end();

    /** @return wall-clock timing of the last begin()..end() window. */
    RunTiming runTiming() const;

    /** @return the label shown in status lines. */
    const std::string &label() const { return sweepLabel; }

  private:
    using Clock = std::chrono::steady_clock;

    struct PointState
    {
        Clock::time_point queued;
        Clock::time_point started;
        Clock::time_point finished;
        int worker = 0;
        bool done = false;
    };

    /** @return seconds from @p from to @p to. */
    static double seconds(Clock::time_point from, Clock::time_point to);

    /** Small dense id for the calling thread (locked). */
    int workerIdLocked();

    /** Repaint the status line when due (locked). */
    void statusLocked(bool force);

    /** Append one JSONL heartbeat record (locked). */
    void heartbeatLocked(const std::string &line);

    mutable std::mutex mutex;
    std::string sweepLabel;
    Options options;
    std::ofstream heartbeat;

    std::size_t total = 0;
    std::size_t doneCount = 0;
    Clock::time_point beganAt;
    Clock::time_point endedAt;
    bool ended = false;
    Clock::time_point lastStatusAt;
    bool statusEverPainted = false;
    std::size_t lastStatusLen = 0;
    std::vector<PointState> pointStates;
    std::vector<std::pair<std::thread::id, int>> workerIds;
};

/**
 * Honor the shared `--progress [FILE]` flag: when present, build a
 * monitor labelled @p label (status line to stderr, TTY-aware;
 * heartbeat JSONL when the flag names a file). @return nullptr when
 * the flag is absent — hand the raw pointer to SweepOptions::progress.
 */
std::unique_ptr<ProgressMonitor>
progressFromCli(const util::Cli &cli, const std::string &label);

} // namespace exp
} // namespace imsim

#endif // IMSIM_EXP_PROGRESS_HH
