/**
 * @file
 * Black-box flight recorder: an always-on, bounded-memory recorder of
 * selected scalar channels plus alert/fault/violation events, dumped
 * post-mortem (or on demand) as an `imsim.blackbox/1` JSON artifact.
 *
 * Full-resolution TimeSeries telemetry is unbounded at fleet scale and
 * aggregate snapshots keep no history; the recorder sits between the
 * two, RRD-style: each registered channel is folded into a stack of
 * fixed-size ring tiers of coarsening resolution (by default the last
 * 60 bins at 1-minute resolution, the last 24 h at 10-minute bins, and
 * 30 days at 1-hour bins), each bin holding the min/mean/max of the
 * samples that fell into it. Downsampling is deterministic — a pure
 * function of the (t, value) stream — so dumps are byte-identical for
 * identical runs at any sweep or shard parallelism.
 *
 * Steady-state tick() is allocation-free: all tier storage is sized at
 * the first tick (flat per-tier arrays, ring-evicted in place) and the
 * event ring reuses its slots. Noting an event may allocate its label
 * string — events are rare, off the per-tick contract that
 * bench_obs_overhead pins at 0 allocs/op.
 *
 * Post-mortem triggers: setPostMortemSink() installs a util error hook
 * so any fatal()/panic() dumps every armed recorder before the
 * exception propagates; a Watchdog or fault::InvariantChecker attached
 * with this recorder (obs::Observers::recorder) routes pages through
 * page() and violations through violation(), both of which dump when
 * this recorder is armed.
 *
 * Thread-safety: tick() and the note/dump entry points serialize on an
 * internal mutex, so one thread may dump (or a crashing thread may
 * post-mortem) while the sim thread is still recording. Channel
 * providers are polled under that mutex and must be pure reads that
 * never call back into the recorder.
 */

#ifndef IMSIM_OBS_BLACKBOX_HH
#define IMSIM_OBS_BLACKBOX_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/fleet_agg.hh"
#include "obs/watchdog.hh"
#include "util/units.hh"

namespace imsim {
namespace obs {

/** The `schema` stamp flight-recorder dumps carry. */
inline constexpr const char *kBlackboxSchema = "imsim.blackbox/1";

/** Event taxonomy of the recorder's bounded event ring. */
enum class BlackboxEventKind : std::uint8_t
{
    AlertRaise, ///< Watchdog rule raised.
    AlertClear, ///< Watchdog rule cleared.
    Fault,      ///< Injected (or external) fault.
    Violation,  ///< Invariant-checker violation.
    Note,       ///< Free-form annotation (e.g. the post-mortem reason).
};

/** @return stable snake_case name ("alert_raise", "fault", ...). */
const char *blackboxEventKindName(BlackboxEventKind kind);

/** One event in the bounded ring. */
struct BlackboxEvent
{
    Seconds t = 0.0;
    BlackboxEventKind kind = BlackboxEventKind::Note;
    double value = 0.0; ///< Signal value for alerts; 0 otherwise.
    std::string label;  ///< Rule / fault / check / note text.
};

/**
 * The recorder. Register channels up front, then tick(t) at the
 * cadence the run observes (the datacenter minute loop, the crisis
 * bench's 1 s watchdog poll); dump whenever — explicitly via
 * toJson()/writeJsonFile(), merged across sweep points via
 * mergedJson(), or automatically through the post-mortem triggers.
 */
class FlightRecorder
{
  public:
    /** One retention tier: a ring of @p capacity bins, each covering
     *  @p resolution seconds. */
    struct Tier
    {
        Seconds resolution = 60.0;
        std::size_t capacity = 60;
    };

    struct Config
    {
        /**
         * Finest-to-coarsest retention ladder. Defaults suit the
         * 1-minute fleet loop: the last hour at full (1-minute)
         * resolution, the last 24 h at 10-minute bins, and 30 days —
         * a full run — at 1-hour bins.
         */
        std::vector<Tier> tiers{{60.0, 60}, {600.0, 144}, {3600.0, 720}};
        /** Bounded event ring size (oldest events evicted). */
        std::size_t eventCapacity = 256;

        /**
         * Ladder scaled to a faster tick cadence: full resolution for
         * the last 3600 ticks, 10-tick bins for the next decade out,
         * 60-tick bins beyond — forCadence(1.0) is the crisis bench's
         * 1 s / 10 s / 1-minute stack.
         */
        static Config forCadence(Seconds tick);
    };

    /** One tier bin read back for tests / the dump writer. */
    struct BinStats
    {
        Seconds t = 0.0;            ///< Bin start time.
        std::uint32_t samples = 0;  ///< Ticks folded into the bin.
        double min = 0.0;
        double mean = 0.0;
        double max = 0.0;
    };

    FlightRecorder() : FlightRecorder(Config{}) {}
    explicit FlightRecorder(Config config);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Register a channel before the first tick (FatalError after).
     * @p signal is polled once per tick under the recorder mutex; it
     * must be a pure read and must outlive every tick (dumps never
     * poll, so a recorder may outlive its providers once ticking
     * stops). @return the channel's index.
     */
    std::size_t addChannel(std::string name,
                           std::function<double()> signal);

    /** @return number of registered channels. */
    std::size_t channelCount() const { return channels.size(); }

    /**
     * Record one sample of every channel at time @p t (must not go
     * backwards). The first tick sizes the tier storage; steady-state
     * ticks are allocation-free.
     */
    void tick(Seconds t);

    // ----- events (bounded ring; label assignment may allocate) -----

    /** Record a watchdog raise/clear transition. */
    void noteAlert(Seconds t, const std::string &rule, double value,
                   bool raised);
    /** Record an injected-fault event (FaultInjector wiring). */
    void noteFault(Seconds t, const std::string &label);
    /** Record an invariant violation (InvariantChecker wiring). */
    void noteViolation(Seconds t, const std::string &check);
    /** Record a free-form annotation. */
    void note(Seconds t, const std::string &label);

    /**
     * Watchdog page entry point: noteAlert(), then — for raises, when
     * this recorder is armed and a sink is set — trigger a post-mortem
     * dump ("the pager fired; persist what the black box saw").
     */
    void page(Seconds t, const std::string &rule, double value,
              bool raised);

    /** Invariant-violation entry point: noteViolation() + dump when
     *  armed. */
    void violation(Seconds t, const std::string &check);

    // ----- post-mortem ----------------------------------------------

    /**
     * Register this recorder (under @p label) with the process-wide
     * post-mortem registry: postMortem() — and thus any
     * fatal()/panic() once a sink is set — serializes every armed
     * recorder. Unregistered automatically on destruction.
     */
    void armPostMortem(std::string label);

    /** Remove this recorder from the post-mortem registry. */
    void disarmPostMortem();

    /** @return whether this recorder is currently armed. */
    bool armed() const;

    /**
     * Set the process-wide dump sink and install the util error hook:
     * from now on every fatal()/panic() (and every page()/violation()
     * on an armed recorder) writes the armed recorders, merged, to
     * @p path with @p meta_json embedded as "meta". Overwrites the
     * previous sink.
     */
    static void setPostMortemSink(std::string path,
                                  std::string meta_json = "");

    /** Clear the sink and uninstall the error hook. */
    static void clearPostMortemSink();

    /**
     * Dump every armed recorder to the sink now, recording @p reason
     * as the document's top-level "reason" member (never in the
     * recorders themselves — they stay pure, so later dumps are
     * unaffected by triggers). Best-effort by design (it runs inside
     * error paths): failures warn instead of throwing. @return the
     * sink path, or "" when no sink is set or nothing is armed.
     */
    static std::string postMortem(const std::string &reason);

    /** @return number of post-mortem dumps written so far. */
    static std::uint64_t postMortemCount();

    // ----- introspection --------------------------------------------

    /** @return ticks recorded so far. */
    std::size_t ticks() const;
    /** @return number of retention tiers. */
    std::size_t tierCount() const { return tiers.size(); }
    /** @return the tier's configured resolution [s]. */
    Seconds tierResolution(std::size_t tier) const;
    /** @return the tier's configured ring capacity [bins]. */
    std::size_t tierCapacity(std::size_t tier) const;
    /** @return live bins in @p tier. */
    std::size_t tierRows(std::size_t tier) const;
    /** @return bin @p row (0 = oldest) of @p channel in @p tier. */
    BinStats bin(std::size_t tier, std::size_t row,
                 std::size_t channel) const;
    /** @return live events, oldest first (a copy; the ring moves on). */
    std::vector<BlackboxEvent> events() const;
    /** @return total events noted (>= events().size() once evicting). */
    std::uint64_t eventsNoted() const;

    // ----- dump ------------------------------------------------------

    /**
     * Render as one point of an `imsim.blackbox/1` document: label,
     * tick count, channel names, per-tier bin rows ([t, samples, then
     * min/mean/max per channel]), and the event ring. Thread-safe.
     */
    std::string pointJson(const std::string &label) const;

    /**
     * The full document: {"schema": "imsim.blackbox/1", "meta": ...,
     * "points": [...]} in the given order — pass sweep points in index
     * order and the payload is byte-identical under any job count.
     */
    static std::string
    mergedJson(const std::vector<std::pair<std::string,
                                           const FlightRecorder *>> &points,
               const std::string &meta_json = "");

    /** Single-recorder convenience: mergedJson of {(label, this)}. */
    std::string toJson(const std::string &label = "run",
                       const std::string &meta_json = "") const;

    /** Write toJson() to @p path; FatalError when the write fails. */
    void writeJsonFile(const std::string &path,
                       const std::string &label = "run",
                       const std::string &meta_json = "") const;

  private:
    struct Channel
    {
        std::string name;
        std::function<double()> signal;
    };

    /**
     * Flat ring of bins: startT/samples per bin plus, per bin and
     * channel, a (min, max, sum) triple in stats — mean is derived at
     * read time. Updated in place; eviction advances head.
     */
    struct TierStore
    {
        Seconds resolution = 60.0;
        std::size_t capacity = 0;
        std::size_t head = 0;
        std::size_t rows = 0;
        std::int64_t backBin = 0; ///< Bin index of the newest row.
        std::vector<Seconds> startT;
        std::vector<std::uint32_t> samples;
        std::vector<double> stats; ///< [bin * channels * 3 + ...]
    };

    void sizeStorageLocked();
    void foldLocked(TierStore &tier, Seconds t);
    void pushEventLocked(Seconds t, BlackboxEventKind kind, double value,
                         const std::string &label);
    void appendPointJsonLocked(std::string &out,
                               const std::string &label) const;

    Config cfg;
    std::vector<Channel> channels;
    std::vector<TierStore> tiers;
    std::vector<double> sampleScratch; ///< Per-tick channel values.

    std::vector<BlackboxEvent> eventRing; ///< Fixed eventCapacity slots.
    std::size_t eventHead = 0;
    std::size_t eventLive = 0;
    std::uint64_t eventTotal = 0;

    bool sealed = false; ///< Channels frozen (first tick happened).
    std::size_t tickCount = 0;
    Seconds lastTick = 0.0;

    mutable std::mutex mutex;
};

/**
 * Standard fleet observability bundle: a FleetAggregator, a Watchdog
 * with a feed-draw rule, and a FlightRecorder wired with the headline
 * fleet channels (fleet power, max/p99 Tj, mean utilization, p99 wear
 * rate, firing alerts) reading the aggregator's latest sample. Attach
 * the three members via DatacenterPowerSim::attachObservability; the
 * bundle must outlive the run and must not move (the channel and rule
 * closures capture member addresses).
 */
class FleetBlackbox
{
  public:
    /**
     * @param agg_cfg        Aggregator configuration (record=false is
     *                       typical: the recorder *is* the history).
     * @param rec_cfg        Recorder tier/event configuration.
     * @param fire_power_w   Watchdog "fleet_power" raise threshold.
     * @param clear_power_w  Its hysteresis clear threshold.
     */
    FleetBlackbox(FleetAggregator::Config agg_cfg,
                  FlightRecorder::Config rec_cfg, double fire_power_w,
                  double clear_power_w);

    FleetBlackbox(const FleetBlackbox &) = delete;
    FleetBlackbox &operator=(const FleetBlackbox &) = delete;

    FleetAggregator aggregator;
    Watchdog watchdog;
    FlightRecorder recorder;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_BLACKBOX_HH
