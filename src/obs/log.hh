/**
 * @file
 * Leveled structured logging front-end, the library's one path for
 * informational messages: named loggers, trace/debug/info/warn levels
 * against the process-wide util::LogLevel threshold (set by
 * `--log-level` / `--verbose` / util::setVerbose), and pluggable sinks
 * so tests and tools can capture the stream instead of printing it.
 *
 * Disabled-path cost: one relaxed atomic load and a compare per call
 * site — message strings are only built when the level is enabled
 * (use `if (log.enabled(...))` around expensive formatting).
 *
 * Sink emission is serialised by a global mutex, so logging from
 * exp::SweepRunner workers is safe (and TSan-clean); the registered
 * sinks themselves must not re-enter the logger.
 */

#ifndef IMSIM_OBS_LOG_HH
#define IMSIM_OBS_LOG_HH

#include <cstddef>
#include <functional>
#include <string>

#include "util/logging.hh"

namespace imsim {
namespace obs {

/**
 * A named logging front-end. Cheap to construct and copy; the name
 * (usually a module, e.g. "autoscale") is prepended to every message.
 */
class Logger
{
  public:
    /**
     * A log-record consumer: (level, logger name, message). Invoked
     * under the global sink mutex, only for enabled levels.
     */
    using Sink = std::function<void(util::LogLevel,
                                    const std::string &logger,
                                    const std::string &msg)>;

    /** @param name_in Logger name shown in every record. */
    explicit Logger(std::string name_in = "") : loggerName(std::move(name_in))
    {}

    /** @return the logger name. */
    const std::string &name() const { return loggerName; }

    /** @return whether records at @p level currently reach the sinks. */
    bool enabled(util::LogLevel level) const
    {
        return util::logEnabled(level);
    }

    /** Emit @p msg at @p level (dropped when the level is disabled). */
    void log(util::LogLevel level, const std::string &msg) const;

    /** Emit at Trace level. */
    void trace(const std::string &msg) const
    {
        log(util::LogLevel::Trace, msg);
    }

    /** Emit at Debug level. */
    void debug(const std::string &msg) const
    {
        log(util::LogLevel::Debug, msg);
    }

    /** Emit at Info level. */
    void info(const std::string &msg) const
    {
        log(util::LogLevel::Info, msg);
    }

    /** Emit at Warn level. */
    void warn(const std::string &msg) const
    {
        log(util::LogLevel::Warn, msg);
    }

    /**
     * Register an additional sink. While any sink is registered the
     * default console sink is bypassed.
     */
    static void addSink(Sink sink);

    /** Drop all registered sinks (console output resumes). */
    static void clearSinks();

    /**
     * Duplicate suppression for alert storms: once the same
     * (level, logger, message) record has been emitted @p limit times
     * in a row, further repeats are swallowed and counted instead of
     * reaching the sinks. The count is surfaced as one
     * "suppressed N duplicates of: <msg>" record when a different
     * message arrives, flushDedup() is called, or suppression is
     * reconfigured. @p limit = 0 (the default) disables suppression.
     */
    static void setDedupLimit(std::size_t limit);

    /** Emit any pending suppressed-duplicates record now. */
    static void flushDedup();

  private:
    std::string loggerName;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_LOG_HH
