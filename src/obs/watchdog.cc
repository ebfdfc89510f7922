#include "obs/watchdog.hh"

#include <cmath>

#include "obs/blackbox.hh"
#include "obs/incident.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"

namespace imsim {
namespace obs {

namespace {

/** @return the per-kind raise counter's name. */
std::string
raisedCounter(AlertKind kind)
{
    return std::string("watchdog.raised.") + alertKindName(kind);
}

} // namespace

const char *
alertKindName(AlertKind kind)
{
    switch (kind) {
      case AlertKind::TjCeiling:
        return "tj_ceiling";
      case AlertKind::TailLatency:
        return "tail_latency";
      case AlertKind::Brownout:
        return "brownout";
      case AlertKind::FluidLevel:
        return "fluid_level";
      case AlertKind::WearRate:
        return "wear_rate";
      case AlertKind::Custom:
      default:
        return "custom";
    }
}

std::size_t
Watchdog::addRule(WatchdogRule rule)
{
    util::fatalIf(!rule.signal, "Watchdog::addRule: rule needs a signal");
    util::fatalIf(rule.debounce < 0.0,
            "Watchdog::addRule: debounce must be >= 0");
    if (std::isnan(rule.clearThreshold))
        rule.clearThreshold = rule.fireThreshold;
    // Hysteresis must not invert: the clear threshold sits on the
    // recovery side, or firing and clearing would both hold at once.
    util::fatalIf(rule.fireAbove ? rule.clearThreshold > rule.fireThreshold
                           : rule.clearThreshold < rule.fireThreshold,
            "Watchdog::addRule: clear threshold on the breach side");
    RuleState state;
    state.rule = std::move(rule);
    rules.push_back(std::move(state));
    return rules.size() - 1;
}

void
Watchdog::evaluate(Seconds t)
{
    for (RuleState &state : rules) {
        const WatchdogRule &rule = state.rule;
        const double v = rule.signal();
        if (!std::isfinite(v))
            continue; // A broken sample changes no state.
        const bool breach =
            rule.fireAbove ? v >= rule.fireThreshold
                           : v <= rule.fireThreshold;
        // A value exactly at the threshold is a breach for either
        // fireAbove sense, so it must never also count as recovered:
        // without hysteresis (clear == fire) the two would otherwise
        // both hold and a signal parked on the limit would flap
        // raise/clear every poll.
        const bool recovered =
            !breach && (rule.fireAbove ? v <= rule.clearThreshold
                                       : v >= rule.clearThreshold);
        if (!state.isFiring) {
            if (breach) {
                if (state.breachSince < 0.0)
                    state.breachSince = t;
                if (t - state.breachSince >= rule.debounce)
                    raise(state, t, v);
            } else {
                state.breachSince = -1.0;
            }
        } else {
            IncidentLog *log = observers.incidents;
            if (log && state.incident != IncidentLog::kNone)
                log->observeValue(state.incident, v);
            if (recovered)
                clear(state, t, v);
        }
    }
}

void
Watchdog::raise(RuleState &state, Seconds t, double value)
{
    state.isFiring = true;
    transitions.push_back(Alert{t, state.rule.kind, state.rule.name,
                                value, state.rule.fireThreshold, true});
    ++raised;
    if (IncidentLog *log = observers.incidents) {
        state.incident = log->open(t, state.rule.kind, state.rule.name,
                                   value, state.rule.fireThreshold);
    }
    if (MetricRegistry *metrics = observers.metrics) {
        metrics->counter("watchdog.raised").inc();
        metrics->counter(raisedCounter(state.rule.kind)).inc();
    }
    if (observers.recorder)
        observers.recorder->page(t, state.rule.name, value, true);
}

void
Watchdog::clear(RuleState &state, Seconds t, double value)
{
    state.isFiring = false;
    state.breachSince = -1.0;
    transitions.push_back(Alert{t, state.rule.kind, state.rule.name,
                                value, state.rule.clearThreshold,
                                false});
    if (observers.incidents && state.incident != IncidentLog::kNone) {
        observers.incidents->close(state.incident, t);
        state.incident = IncidentLog::kNone;
    }
    if (observers.metrics)
        observers.metrics->counter("watchdog.cleared").inc();
    if (observers.recorder)
        observers.recorder->page(t, state.rule.name, value, false);
}

bool
Watchdog::firing(std::size_t index) const
{
    util::fatalIf(index >= rules.size(), "Watchdog::firing: rule out of range");
    return rules[index].isFiring;
}

std::size_t
Watchdog::firingCount() const
{
    std::size_t n = 0;
    for (const RuleState &state : rules)
        n += state.isFiring ? 1 : 0;
    return n;
}

Seconds
Watchdog::firstRaiseAfter(Seconds after) const
{
    for (const Alert &alert : transitions) {
        if (alert.raised && alert.t >= after)
            return alert.t;
    }
    return -1.0;
}

Seconds
Watchdog::firstRaiseAfter(Seconds after, AlertKind kind) const
{
    for (const Alert &alert : transitions) {
        if (alert.raised && alert.t >= after && alert.kind == kind)
            return alert.t;
    }
    return -1.0;
}

void
Watchdog::attach(const Observers &bundle)
{
    observers = bundle;
    if (!observers.metrics)
        return;
    MetricRegistry &metrics = *observers.metrics;
    metrics.registerGauge("watchdog.firing", [this] {
        return static_cast<double>(firingCount());
    });
    // Create every counter a raise/clear can touch now, not lazily at
    // the first alert: a TelemetrySampler snapshots the registry's
    // column set when it starts, and a metric appearing mid-run is a
    // fatal schema change. (Rules added after this call create their
    // per-kind counter lazily — add rules first.)
    metrics.counter("watchdog.raised");
    metrics.counter("watchdog.cleared");
    for (const RuleState &state : rules)
        metrics.counter(raisedCounter(state.rule.kind));
}

} // namespace obs
} // namespace imsim
