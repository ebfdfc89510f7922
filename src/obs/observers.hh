/**
 * @file
 * The one observer attachment point: a bundle of nullable pointers to
 * the obs sinks a simulation component may publish into. A component
 * takes it through `attach(const obs::Observers &)`, reads the members
 * its own doc comment names and ignores the rest; a null member
 * publishes nothing, so `attach({})` detaches everything. Each pointee
 * must outlive the components it is attached to.
 *
 * Only forward declarations here, so a component header can take the
 * bundle without pulling in the obs implementations.
 */

#ifndef IMSIM_OBS_OBSERVERS_HH
#define IMSIM_OBS_OBSERVERS_HH

namespace imsim {
namespace obs {

class EventTracer;
class FlightRecorder;
class IncidentLog;
class MetricRegistry;

/** The observer sinks one run publishes into; every member may be null. */
struct Observers
{
    MetricRegistry *metrics = nullptr;  ///< Counters and polled gauges.
    EventTracer *tracer = nullptr;      ///< Instant trace events.
    IncidentLog *incidents = nullptr;   ///< Alert/fault correlation.
    FlightRecorder *recorder = nullptr; ///< Black-box event ring.
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_OBSERVERS_HH
