/**
 * @file
 * Declarative SLO watchdog: threshold rules with hysteresis and
 * debounce over any polled scalar signal (fleet aggregates, registry
 * metrics, model accessors), firing typed alerts when breached and
 * clearing them when the signal recovers past the clear threshold.
 *
 * This is the detection half the paper's operational story assumes —
 * overclocking is safe *because* someone is watching Tj, wear, and
 * tail latency and reacts before limits are crossed. The watchdog is a
 * pure observer: evaluate() only reads the rule signals, so attaching
 * one never perturbs a simulation trajectory (the byte-identity
 * contract of the committed bench outputs relies on this).
 *
 * Thread-safety: evaluate() and the accessors belong to the sim
 * thread, like the models the signals read.
 */

#ifndef IMSIM_OBS_WATCHDOG_HH
#define IMSIM_OBS_WATCHDOG_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "obs/observers.hh"
#include "util/units.hh"

namespace imsim {
namespace obs {

/** The alert taxonomy the paper's operating envelope cares about. */
enum class AlertKind : std::uint8_t
{
    TjCeiling,   ///< Junction temperature near the throttle ceiling.
    TailLatency, ///< SLA tail-latency breach.
    Brownout,    ///< Power feed over capacity / brownout event.
    FluidLevel,  ///< Immersion fluid level loss.
    WearRate,    ///< Wear consumption anomalously fast.
    Custom,      ///< Anything else (rule name carries the meaning).
};

/** @return stable snake_case name for @p kind ("tail_latency", ...). */
const char *alertKindName(AlertKind kind);

/**
 * One declarative rule. The signal is polled every evaluate(); the
 * rule fires when the signal sits on the breach side of fireThreshold
 * for at least debounce seconds, and clears when it crosses back past
 * clearThreshold (hysteresis: set it inside the fire threshold to
 * stop a signal hovering at the limit from flapping).
 */
struct WatchdogRule
{
    std::string name;                 ///< Unique-ish label ("sla_p99").
    AlertKind kind = AlertKind::Custom;
    std::function<double()> signal;   ///< Polled scalar (required).
    double fireThreshold = 0.0;
    /**
     * Recovery threshold. NaN (the default) means "same as
     * fireThreshold" — no hysteresis. Must be on the recovery side of
     * fireThreshold: <= it when fireAbove, >= it when firing below.
     */
    double clearThreshold = std::numeric_limits<double>::quiet_NaN();
    bool fireAbove = true;  ///< Breach = signal >= threshold (else <=).
    Seconds debounce = 0.0; ///< Breach must persist this long to fire.
};

/** A raise or clear transition emitted by the state machine. */
struct Alert
{
    Seconds t = 0.0;
    AlertKind kind = AlertKind::Custom;
    std::string rule;
    double value = 0.0;     ///< Signal value at the transition.
    double threshold = 0.0; ///< The threshold that was crossed.
    bool raised = true;     ///< true = raise, false = clear.
};

/**
 * The rule engine. Add rules up front, then poll evaluate(t) at the
 * cadence you want detection latency measured at (the crisis bench
 * uses 1 s). A non-finite signal sample changes no state.
 */
class Watchdog
{
  public:
    static constexpr std::size_t kNoRule = ~std::size_t{0};

    /**
     * Register @p rule. FatalError when the signal is missing or the
     * clear threshold sits on the breach side of the fire threshold.
     * @return the rule's index (stable; rules cannot be removed).
     */
    std::size_t addRule(WatchdogRule rule);

    /** Poll every rule's signal and run its state machine at time @p t. */
    void evaluate(Seconds t);

    /** @return number of registered rules. */
    std::size_t ruleCount() const { return rules.size(); }

    /** @return whether rule @p index is currently firing. */
    bool firing(std::size_t index) const;

    /** @return number of rules currently firing. */
    std::size_t firingCount() const;

    /** @return every raise/clear transition, in emission order. */
    const std::vector<Alert> &alerts() const { return transitions; }

    /** @return number of raise transitions so far. */
    std::size_t raisedCount() const { return raised; }

    /**
     * @return the time of the first raise at or after @p after
     * (@p kind restricts to one alert kind when given); -1 when none —
     * how the crisis bench turns alerts into a detection latency.
     */
    Seconds firstRaiseAfter(Seconds after) const;
    Seconds firstRaiseAfter(Seconds after, AlertKind kind) const;

    /**
     * Attach observers; reads `incidents`, `metrics` and `recorder`.
     *  - incidents: a raise opens an incident, the matching clear
     *    closes it, and the peak signal value while firing is tracked.
     *  - metrics: counters `watchdog.raised`, `watchdog.cleared` and
     *    `watchdog.raised.<kind>` per rule kind, plus gauge
     *    `watchdog.firing`, all registered here (add rules first). The
     *    watchdog must not move afterwards.
     *  - recorder: every raise/clear is paged into its event ring, and
     *    a raise triggers a post-mortem dump when it is armed with a
     *    sink set.
     */
    void attach(const Observers &bundle);

  private:
    struct RuleState
    {
        WatchdogRule rule;
        bool isFiring = false;
        Seconds breachSince = -1.0; ///< Debounce start; -1 = no breach.
        std::size_t incident = kNoRule;
    };

    void raise(RuleState &state, Seconds t, double value);
    void clear(RuleState &state, Seconds t, double value);

    std::vector<RuleState> rules;
    std::vector<Alert> transitions;
    std::size_t raised = 0;
    Observers observers;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_WATCHDOG_HH
