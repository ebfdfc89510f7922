/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries:
 * boolean switches ("--csv"), and "--key value" / "--key=value" options
 * with typed accessors.
 *
 * Shared observability flags: every binary that constructs a Cli gains
 * `--verbose` and `--log-level trace|debug|info|warn|off` for free —
 * the constructor applies them to the process-wide util::LogLevel
 * threshold — plus the `--progress [FILE]` accessors. The artifact
 * flags (`--report`, `--trace`, `--telemetry`, `--watchdog`,
 * `--blackbox`, `--profile`) are read by exp::RunArtifacts.
 */

#ifndef IMSIM_UTIL_CLI_HH
#define IMSIM_UTIL_CLI_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace imsim {
namespace util {

/**
 * Parsed command line.
 */
class Cli
{
  public:
    /**
     * Parse argv; unknown flags are kept (benches print them back).
     * Applies `--verbose` / `--log-level LEVEL` to the process-wide
     * logging threshold as a side effect (no flag leaves it untouched).
     */
    Cli(int argc, const char *const *argv);

    /** @return whether @p flag (e.g. "--csv") appeared. */
    bool has(const std::string &flag) const;

    /** @return string value of "--key value|--key=value" or fallback. */
    std::string get(const std::string &flag,
                    const std::string &fallback = "") const;

    /** @return integer value of the flag or fallback; FatalError when
     *  present but non-numeric. */
    std::int64_t getInt(const std::string &flag,
                        std::int64_t fallback) const;

    /** @return double value of the flag or fallback; FatalError when
     *  present but non-numeric. */
    double getDouble(const std::string &flag, double fallback) const;

    /**
     * Shared "--jobs N" flag for the parallel benches/examples:
     * compute threads for sweep points, the calling thread included
     * (the same count --sim-threads uses).
     *
     * @return N when "--jobs N" was given (FatalError when < 1);
     *         otherwise the hardware concurrency. "--jobs 1" runs the
     *         sweep serially on the calling thread.
     */
    std::size_t jobs() const;

    /**
     * Shared "--sim-threads N" flag: compute threads for the intra-run
     * sharded fleet physics (DatacenterPowerSim::setSimThreads).
     *
     * @return N when given (FatalError when negative; 0 means "use the
     *         hardware concurrency"); defaults to 1 — the serial minute
     *         loop. Any value reproduces N=1 bit-for-bit; this flag
     *         only trades wall-clock, never results. Orthogonal to
     *         --jobs (sweep points vs threads *inside* one run).
     */
    std::size_t simThreads() const;

    /** @return whether "--progress [FILE]" appeared at all. */
    bool progressRequested() const { return has("--progress"); }

    /** @return the "--progress FILE" heartbeat path, "" when absent. */
    std::string progressFile() const { return get("--progress"); }

    /** @return the program name (argv[0]). */
    const std::string &program() const { return programName; }

    /** @return positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return args; }

    /**
     * @return the full command line (argv[0] plus every token, space
     *         separated) as received — what RunManifest records.
     */
    const std::string &commandLine() const { return argvLine; }

  private:
    std::string programName;
    std::string argvLine;
    std::map<std::string, std::string> flags;
    std::vector<std::string> args;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_CLI_HH
