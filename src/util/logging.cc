#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace imsim {
namespace util {

namespace {
/** Process-wide threshold; warnings print, info messages do not. */
std::atomic<LogLevel> levelFlag{LogLevel::Warn};

/** The installed error hook (guarded; fatal paths are cold). */
std::mutex hookMutex;
ErrorHook errorHook = nullptr;
void *errorHookCtx = nullptr;
/** Re-entrancy latch: a fatal raised *inside* the hook skips it. */
thread_local bool inErrorHook = false;

void
runErrorHook(const std::string &what)
{
    if (inErrorHook)
        return;
    ErrorHook hook;
    void *ctx;
    {
        std::lock_guard<std::mutex> lock(hookMutex);
        hook = errorHook;
        ctx = errorHookCtx;
    }
    if (!hook)
        return;
    inErrorHook = true;
    try {
        hook(what.c_str(), ctx);
    } catch (...) {
        // The hook is best-effort; the original error must win.
    }
    inErrorHook = false;
}
} // namespace

std::string
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Off: return "off";
    }
    panic("logLevelName: unhandled level");
}

LogLevel
parseLogLevel(const std::string &name)
{
    for (LogLevel level : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warn, LogLevel::Off}) {
        if (name == logLevelName(level))
            return level;
    }
    fatal("unknown log level '" + name +
          "' (expected trace|debug|info|warn|off)");
}

void
setLogLevel(LogLevel level)
{
    levelFlag.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return levelFlag.load(std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return level >= logLevel() && level != LogLevel::Off;
}

void
setVerbose(bool verbose)
{
    setLogLevel(verbose ? LogLevel::Info : LogLevel::Warn);
}

void
log(LogLevel level, const char *who, const std::string &msg)
{
    if (!logEnabled(level))
        return;
    std::FILE *stream = level >= LogLevel::Warn ? stderr : stdout;
    const std::string name = logLevelName(level);
    if (who && *who) {
        std::fprintf(stream, "%s: [%s] %s\n", name.c_str(), who,
                     msg.c_str());
    } else {
        std::fprintf(stream, "%s: %s\n", name.c_str(), msg.c_str());
    }
}

void
warn(const std::string &msg)
{
    log(LogLevel::Warn, nullptr, msg);
}

void
setErrorHook(ErrorHook hook, void *ctx)
{
    std::lock_guard<std::mutex> lock(hookMutex);
    errorHook = hook;
    errorHookCtx = ctx;
}

void
fatal(const std::string &msg)
{
    const std::string what = "fatal: " + msg;
    runErrorHook(what);
    throw FatalError(what);
}

void
panic(const std::string &msg)
{
    const std::string what = "panic: " + msg;
    runErrorHook(what);
    throw PanicError(what);
}

} // namespace util
} // namespace imsim
