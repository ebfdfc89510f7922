/**
 * @file
 * Logging and error-reporting helpers for the ImmerSim library.
 *
 * Follows the gem5 split between user errors and internal invariant
 * violations:
 *  - fatal()  -> the condition is the caller's fault (bad configuration,
 *                out-of-range parameter); throws imsim::FatalError so that
 *                library users and tests can recover.
 *  - panic()  -> the condition indicates a bug inside the library; throws
 *                imsim::PanicError carrying the broken invariant.
 *  - warn()   -> non-fatal notices on stderr.
 *  - log()    -> leveled console records from a named component
 *                (`debug: [autoscaler] ...`).
 *
 * Verbosity is a single process-wide LogLevel threshold: a record
 * prints when its level is at or above it. warn() is log() at Warn
 * with no component name. The historical setVerbose() switch maps onto
 * the threshold (true -> Info, false -> Warn) so existing callers keep
 * working while `--log-level`/`--verbose` (util::Cli) control the same
 * state.
 */

#ifndef IMSIM_UTIL_LOGGING_HH
#define IMSIM_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace imsim {

/** Base class for all errors raised by the library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Raised when the *caller* supplied an invalid configuration or argument. */
class FatalError : public Error
{
  public:
    explicit FatalError(const std::string &what_arg) : Error(what_arg) {}
};

/** Raised when an internal invariant of the library is violated (a bug). */
class PanicError : public Error
{
  public:
    explicit PanicError(const std::string &what_arg) : Error(what_arg) {}
};

namespace util {

/**
 * Message severities, least to most severe. The process-wide threshold
 * (setLogLevel) suppresses everything below it; Off silences even
 * warnings.
 */
enum class LogLevel
{
    Trace,
    Debug,
    Info,
    Warn,
    Off,
};

/** @return a printable lower-case level name ("trace", ..., "off"). */
std::string logLevelName(LogLevel level);

/**
 * Parse a level name as accepted by `--log-level`
 * (trace|debug|info|warn|off, case-sensitive); FatalError otherwise.
 */
LogLevel parseLogLevel(const std::string &name);

/** Set the process-wide logging threshold (thread-safe). */
void setLogLevel(LogLevel level);

/** @return the current process-wide logging threshold. */
LogLevel logLevel();

/** @return whether messages at @p level currently print. */
bool logEnabled(LogLevel level);

/**
 * Legacy verbosity switch, routed through the LogLevel threshold:
 * true -> Info, false -> Warn (the default).
 */
void setVerbose(bool verbose);

/**
 * Print one record as `<level>: [<who>] <msg>` (`<level>: <msg>` when
 * @p who is null or empty): to stdout below Warn, to stderr at Warn and
 * above, nothing when @p level is disabled. Each record is a single
 * fprintf, which stdio serialises per stream, so concurrent sweep
 * workers never interleave within a line. Message strings are built by
 * the caller, so guard expensive formatting with logEnabled(); a
 * disabled level then costs one relaxed load and a compare.
 */
void log(LogLevel level, const char *who, const std::string &msg);

/** Print a warning to stderr (suppressed only by LogLevel::Off). */
void warn(const std::string &msg);

/** Report a user error: throws FatalError with the given message. */
[[noreturn]] void fatal(const std::string &msg);

/** Report a library bug: throws PanicError with the given message. */
[[noreturn]] void panic(const std::string &msg);

/**
 * Process-wide error hook, invoked with the formatted message right
 * before fatal()/panic() throw — the black-box flight recorder's
 * post-mortem trigger (obs::FlightRecorder::setPostMortemSink). Plain
 * function pointer + context, not std::function, so installing and
 * clearing it is trivially safe at any point of the process lifetime.
 */
using ErrorHook = void (*)(const char *what, void *ctx);

/**
 * Install @p hook (nullptr clears). The hook runs once per
 * fatal()/panic(), before the exception is thrown; exceptions it
 * raises are swallowed and re-entrant fatals from inside the hook do
 * not recurse, so a failing post-mortem dump cannot mask the original
 * error. Thread-safe.
 */
void setErrorHook(ErrorHook hook, void *ctx);

/**
 * Check a caller-supplied precondition.
 *
 * @param ok   Condition that must hold.
 * @param msg  Message for the FatalError raised when it does not.
 */
inline void
fatalIf(bool bad, const std::string &msg)
{
    if (bad)
        fatal(msg);
}

/**
 * Literal-message overload: the error string is only materialized when
 * the check actually fails, so passing checks cost no heap allocation.
 * Hot paths (the event kernel, the power minute loop) rely on this; the
 * std::string overload above keeps serving composed messages.
 */
inline void
fatalIf(bool bad, const char *msg)
{
    if (bad)
        fatal(std::string(msg));
}

/**
 * Check an internal invariant.
 *
 * @param ok   Condition that must hold.
 * @param msg  Message for the PanicError raised when it does not.
 */
inline void
panicIf(bool bad, const std::string &msg)
{
    if (bad)
        panic(msg);
}

/** Literal-message overload; see fatalIf(bool, const char*). */
inline void
panicIf(bool bad, const char *msg)
{
    if (bad)
        panic(std::string(msg));
}

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_LOGGING_HH
