#include "obs/log.hh"

#include <cstdio>
#include <mutex>
#include <vector>

namespace imsim {
namespace obs {

namespace {

std::mutex sinkMutex;
std::vector<Logger::Sink> sinks;

// Duplicate-suppression state (all guarded by sinkMutex).
std::size_t dedupLimit = 0;   ///< 0 = suppression off.
util::LogLevel lastLevel = util::LogLevel::Info;
std::string lastLogger;
std::string lastMsg;
bool haveLast = false;
std::size_t repeatCount = 0;     ///< Consecutive emissions of lastMsg.
std::size_t suppressedCount = 0; ///< Swallowed repeats not yet reported.

/** Mirrors util::warn(): warnings to stderr, the rest to stdout. */
void
consoleSink(util::LogLevel level, const std::string &logger,
            const std::string &msg)
{
    std::FILE *stream = level >= util::LogLevel::Warn ? stderr : stdout;
    if (logger.empty()) {
        std::fprintf(stream, "%s: %s\n",
                     util::logLevelName(level).c_str(), msg.c_str());
    } else {
        std::fprintf(stream, "%s: [%s] %s\n",
                     util::logLevelName(level).c_str(), logger.c_str(),
                     msg.c_str());
    }
}

/** Deliver one record to the sinks (caller holds sinkMutex). */
void
emitLocked(util::LogLevel level, const std::string &logger,
           const std::string &msg)
{
    if (sinks.empty()) {
        consoleSink(level, logger, msg);
        return;
    }
    for (const auto &sink : sinks)
        sink(level, logger, msg);
}

/** Report pending suppressed repeats (caller holds sinkMutex). */
void
flushDedupLocked()
{
    if (suppressedCount == 0)
        return;
    emitLocked(lastLevel, lastLogger,
               "suppressed " + std::to_string(suppressedCount) +
                   " duplicates of: " + lastMsg);
    suppressedCount = 0;
}

} // namespace

void
Logger::log(util::LogLevel level, const std::string &msg) const
{
    if (!util::logEnabled(level))
        return;
    std::lock_guard<std::mutex> lock(sinkMutex);
    if (dedupLimit > 0) {
        const bool same = haveLast && level == lastLevel &&
                          loggerName == lastLogger && msg == lastMsg;
        if (same) {
            if (++repeatCount > dedupLimit) {
                ++suppressedCount;
                return;
            }
        } else {
            flushDedupLocked();
            lastLevel = level;
            lastLogger = loggerName;
            lastMsg = msg;
            haveLast = true;
            repeatCount = 1;
        }
    }
    emitLocked(level, loggerName, msg);
}

void
Logger::addSink(Sink sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    sinks.push_back(std::move(sink));
}

void
Logger::clearSinks()
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    // Flush while the registered sinks can still observe the summary.
    flushDedupLocked();
    sinks.clear();
}

void
Logger::setDedupLimit(std::size_t limit)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    flushDedupLocked();
    dedupLimit = limit;
    haveLast = false;
    repeatCount = 0;
}

void
Logger::flushDedup()
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    flushDedupLocked();
    // Restart the run so the next repeat of the same message counts
    // from a fresh window.
    haveLast = false;
    repeatCount = 0;
}

} // namespace obs
} // namespace imsim
