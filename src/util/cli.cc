#include "util/cli.hh"

#include <cstdlib>

#include "util/logging.hh"
#include "util/shard.hh"

namespace imsim {
namespace util {

Cli::Cli(int argc, const char *const *argv)
{
    fatalIf(argc < 1 || argv == nullptr, "Cli: empty argv");
    programName = argv[0];
    argvLine = programName;
    for (int i = 1; i < argc; ++i) {
        argvLine += ' ';
        argvLine += argv[i];
    }
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            args.push_back(token);
            continue;
        }
        const auto eq = token.find('=');
        if (eq != std::string::npos) {
            flags[token.substr(0, eq)] = token.substr(eq + 1);
            continue;
        }
        // "--key value" when the next token is not itself a flag.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flags[token] = argv[i + 1];
            ++i;
        } else {
            flags[token] = "";
        }
    }
    // Shared observability flags: --log-level wins over --verbose when
    // both are given.
    if (has("--verbose"))
        setVerbose(true);
    if (has("--log-level"))
        setLogLevel(parseLogLevel(get("--log-level")));
}

bool
Cli::has(const std::string &flag) const
{
    return flags.count(flag) > 0;
}

std::string
Cli::get(const std::string &flag, const std::string &fallback) const
{
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : it->second;
}

std::int64_t
Cli::getInt(const std::string &flag, std::int64_t fallback) const
{
    const auto it = flags.find(flag);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    const long long value = std::strtoll(it->second.c_str(), &end, 10);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "Cli: flag " + flag + " expects an integer, got '" +
                it->second + "'");
    return value;
}

std::size_t
Cli::jobs() const
{
    const std::int64_t n = getInt(
        "--jobs", static_cast<std::int64_t>(ShardRunner::defaultThreads()));
    fatalIf(n < 1, "Cli: --jobs expects a positive worker count");
    return static_cast<std::size_t>(n);
}

std::size_t
Cli::simThreads() const
{
    const std::int64_t n = getInt("--sim-threads", 1);
    fatalIf(n < 0, "Cli: --sim-threads expects a non-negative count");
    if (n == 0)
        return ShardRunner::defaultThreads();
    return static_cast<std::size_t>(n);
}

double
Cli::getDouble(const std::string &flag, double fallback) const
{
    const auto it = flags.find(flag);
    if (it == flags.end())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "Cli: flag " + flag + " expects a number, got '" +
                it->second + "'");
    return value;
}

} // namespace util
} // namespace imsim
