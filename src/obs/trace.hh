/**
 * @file
 * Event tracing in Chrome trace_event format: an in-memory tracer with
 * RAII scopes, instant/complete/counter events on the *virtual*
 * timeline, and a KernelTracer adapter that observes the simulation
 * kernel through sim::KernelHooks. The JSON output loads directly into
 * chrome://tracing or https://ui.perfetto.dev.
 *
 * Overhead contract: a default-constructed tracer is disabled and
 * every emit method returns after a single branch (`if (!on) return`),
 * so instrumentation can stay compiled into hot paths; see
 * bench_obs_overhead and the disabled-drift test in tests/test_obs.cc.
 *
 * Thread-safety: a tracer is not synchronised — use one per sweep
 * point / replication and append() them in point order afterwards.
 */

#ifndef IMSIM_OBS_TRACE_HH
#define IMSIM_OBS_TRACE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hh"
#include "util/units.hh"

namespace imsim {
namespace obs {

/** One Chrome trace_event record. */
struct TraceEvent
{
    std::string name;
    std::string cat;     ///< Comma-separable category tag.
    char phase = 'i';    ///< 'X' complete, 'i' instant, 'C' counter,
                         ///< 'M' metadata.
    double tsUs = 0.0;   ///< Timestamp [us] on the virtual timeline.
    double durUs = 0.0;  ///< Duration [us]; 'X' events only.
    std::uint32_t tid = 0;
    /** Numeric args ({"value": v} for counters, {"id": n} for fires). */
    std::vector<std::pair<std::string, double>> args;
    /** String arg for 'M' metadata events (thread names). */
    std::string strArg;
};

/**
 * In-memory collector of trace events on a virtual-time clock.
 *
 * Timestamps come from the clock callback handed to enable() —
 * typically `[&sim] { return sim.now(); }` — so the trace timeline is
 * the simulated one and re-runs produce identical traces.
 */
class EventTracer
{
  public:
    /** Virtual-time source [s]. */
    using Clock = std::function<Seconds()>;

    /**
     * Disabled tracer: every timeline emit method is a single-branch
     * no-op (nameTrack() is metadata and always emits).
     */
    EventTracer() = default;

    /** Start collecting, with timestamps drawn from @p clock. */
    void enable(Clock clock);

    /** Stop collecting (already-collected events are kept). */
    void disable() { on = false; }

    /** @return whether events are being collected. */
    bool enabled() const { return on; }

    /** @return the clock's current virtual time [s]; 0 when disabled. */
    Seconds now() const { return on ? clock() : 0.0; }

    /** Thread-track id stamped on subsequently emitted events. */
    void setTid(std::uint32_t tid) { track = tid; }

    /** @return the current thread-track id. */
    std::uint32_t tid() const { return track; }

    /** Emit a complete ('X') event spanning [begin, end] seconds. */
    void complete(const std::string &name, const std::string &cat,
                  Seconds begin, Seconds end);

    /** Emit an instant ('i') event at the clock's current time. */
    void instant(const std::string &name, const std::string &cat);

    /** Emit an instant ('i') event at @p t with one numeric arg. */
    void instantAt(const std::string &name, const std::string &cat,
                   Seconds t,
                   std::vector<std::pair<std::string, double>> args = {});

    /** Emit a counter ('C') sample at the clock's current time. */
    void counter(const std::string &name, double value);

    /** Emit a counter ('C') sample at @p t. */
    void counterAt(const std::string &name, Seconds t, double value);

    /**
     * Name the track @p tid (an 'M' thread_name metadata event), enabled
     * or not: a merged trace names its tracks without ever having a clock.
     */
    void nameTrack(std::uint32_t tid, const std::string &label);

    /** @return events collected so far. */
    const std::vector<TraceEvent> &events() const { return log; }

    /** @return number of events collected. */
    std::size_t size() const { return log.size(); }

    /**
     * Append @p other's events, restamped onto track @p tid_override
     * (how per-point tracers from a parallel sweep combine into one
     * multi-track trace, in point order). Works on disabled tracers.
     */
    void append(const EventTracer &other, std::uint32_t tid_override);

    /**
     * Render as Chrome trace JSON ({"traceEvents": [...]}). When
     * @p metadata_json is non-empty it is embedded verbatim as the
     * top-level "metadata" member (chrome://tracing shows it under
     * Metadata) — pass a RunManifest::toJsonObject() string to stamp
     * the trace with its run's provenance.
     */
    std::string toJson(const std::string &metadata_json = "") const;

    /** Write toJson() to @p os. */
    void writeJson(std::ostream &os,
                   const std::string &metadata_json = "") const;

    /** Write toJson() to file @p path; FatalError when unwritable. */
    void writeJsonFile(const std::string &path,
                       const std::string &metadata_json = "") const;

    /** Drop all collected events. */
    void clear() { log.clear(); }

  private:
    void push(TraceEvent ev);

    bool on = false;
    Clock clock;
    std::uint32_t track = 0;
    std::vector<TraceEvent> log;
};

/**
 * RAII scope: emits one complete ('X') event covering the scope's
 * virtual-time extent. Construction on a disabled tracer costs one
 * branch and the destructor is free.
 *
 * @code
 *   void Autoscaler::decide() {
 *       obs::TraceScope scope(tracer, "decide", "autoscale");
 *       ...
 *   }
 * @endcode
 */
class TraceScope
{
  public:
    TraceScope(EventTracer &tracer_in, std::string name_in,
               std::string cat_in = "scope")
        : tracer(tracer_in.enabled() ? &tracer_in : nullptr)
    {
        if (tracer) {
            name = std::move(name_in);
            cat = std::move(cat_in);
            begin = tracer->now();
        }
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope()
    {
        if (tracer)
            tracer->complete(name, cat, begin, tracer->now());
    }

  private:
    EventTracer *tracer;
    std::string name;
    std::string cat;
    Seconds begin = 0.0;
};

/**
 * sim::KernelHooks adapter: traces every kernel event execution as an
 * instant event (args: event id) and tracks the live pending-event
 * count as a counter series. Attaches itself to the simulation on
 * construction and detaches on destruction.
 *
 * The tracer is enabled with the simulation's clock if it was not
 * enabled already, so `KernelTracer kt(tracer, sim);` is all a bench
 * needs before running.
 */
class KernelTracer : public sim::KernelHooks
{
  public:
    /**
     * @param tracer_in Destination tracer (enabled onto @p sim's clock
     *                  when not already enabled).
     * @param sim_in    Kernel to observe; must outlive this object.
     */
    KernelTracer(EventTracer &tracer_in, sim::Simulation &sim_in);

    ~KernelTracer() override;

    KernelTracer(const KernelTracer &) = delete;
    KernelTracer &operator=(const KernelTracer &) = delete;

    void onSchedule(sim::EventId id, Seconds t, Seconds period) override;
    void onCancel(sim::EventId id) override;
    void onFire(sim::EventId id, Seconds t) override;

  private:
    EventTracer &tracer;
    sim::Simulation &sim;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_TRACE_HH
