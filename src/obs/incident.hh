/**
 * @file
 * Incident timeline: open/close records created by Watchdog raises and
 * clears, correlated with the fault events that (probably) caused
 * them, exported as Chrome-trace duration events and as an
 * `imsim.incidents/1` JSON document that tools/imsim_report renders
 * as SVG timeline bands.
 *
 * Correlation is temporal, as in a real pager timeline: a fault noted
 * at time t attaches to every incident already open at t, and an
 * incident opening at t adopts faults from the trailing
 * correlationLead window (the cause precedes its detection).
 */

#ifndef IMSIM_OBS_INCIDENT_HH
#define IMSIM_OBS_INCIDENT_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/watchdog.hh"
#include "util/units.hh"

namespace imsim {
namespace obs {

class EventTracer;

/** A fault-injection (or other external) event on the timeline. */
struct IncidentFault
{
    Seconds t = 0.0;
    std::string label; ///< e.g. "server_crash#3", "fluid_level_loss".
};

/** One alert's open -> close lifetime. */
struct Incident
{
    std::size_t id = 0;
    AlertKind kind = AlertKind::Custom;
    std::string rule;
    Seconds openedAt = 0.0;
    Seconds closedAt = -1.0; ///< -1 while still open.
    double openValue = 0.0;  ///< Signal value at the raise.
    double peakValue = 0.0;  ///< Worst signal value while open.
    double threshold = 0.0;
    std::vector<IncidentFault> faults; ///< Correlated fault events.

    bool open() const { return closedAt < 0.0; }
    /** @return duration; open incidents measure up to @p horizon. */
    Seconds duration(Seconds horizon) const
    {
        return (open() ? horizon : closedAt) - openedAt;
    }
};

/**
 * The timeline store. Copyable (plain vectors), so experiment
 * outcomes can carry one per sweep point and merge them afterwards.
 */
class IncidentLog
{
  public:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /**
     * @param correlation_lead How far back of an opening incident to
     * adopt earlier faults from.
     */
    explicit IncidentLog(Seconds correlation_lead = 60.0)
        : lead(correlation_lead)
    {}

    /** Open an incident; @return its id. */
    std::size_t open(Seconds t, AlertKind kind, const std::string &rule,
                     double value, double threshold);

    /** Track the worst signal value while incident @p id is open. */
    void observeValue(std::size_t id, double value);

    /** Close incident @p id at time @p t. */
    void close(std::size_t id, Seconds t);

    /** Close every still-open incident at @p t (end of run). */
    void closeAll(Seconds t);

    /**
     * Note an external fault event (a FaultInjector attached with this
     * log as obs::Observers::incidents routes injections here):
     * appended to the fault timeline and attached to every
     * currently-open incident.
     */
    void noteFault(Seconds t, const std::string &label);

    /** @return all incidents, in open order. */
    const std::vector<Incident> &incidents() const { return records; }

    /** @return all noted faults, in time order. */
    const std::vector<IncidentFault> &faults() const { return faultLog; }

    /** @return number of incidents still open. */
    std::size_t openCount() const;

    /**
     * Append the timeline to @p tracer: one complete ('X') event per
     * incident (category "incident", open ones extended to
     * @p horizon) so Perfetto shows the same bands as the HTML
     * report.
     */
    void exportTrace(EventTracer &tracer, Seconds horizon) const;

    /**
     * Render as one point of an `imsim.incidents/1` document (see
     * mergedJson for the envelope).
     */
    std::string pointJson(const std::string &label) const;

    /**
     * The full document: {"schema": "imsim.incidents/1", "meta":
     * <meta_json or {}>, "points": [...]} with one entry per labelled
     * log, in the given order (deterministic under any job count when
     * callers pass sweep points in index order).
     */
    static std::string
    mergedJson(const std::vector<std::pair<std::string,
                                           const IncidentLog *>> &points,
               const std::string &meta_json = "");

    /** Single-log convenience: mergedJson of {(label, this)}. */
    std::string toJson(const std::string &label = "run",
                       const std::string &meta_json = "") const;

  private:
    Seconds lead;
    std::vector<Incident> records;
    std::vector<IncidentFault> faultLog;
};

/** The `schema` stamp incident documents carry. */
inline constexpr const char *kIncidentSchema = "imsim.incidents/1";

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_INCIDENT_HH
