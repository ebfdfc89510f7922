/**
 * @file
 * Metric primitives for fleet telemetry: named counters and gauges
 * collected in a MetricRegistry that any module can cheaply publish
 * into. The registry is the substrate the TelemetrySampler polls.
 *
 * Thread-safety: a registry (and the metrics it owns) is *not*
 * synchronised. The experiment engine's contract applies: one registry
 * per sweep point / replication; never publish into one registry from
 * two threads.
 */

#ifndef IMSIM_OBS_METRICS_HH
#define IMSIM_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace imsim {
namespace obs {

/** Monotonically increasing event count (scale-outs, capping events). */
class Counter
{
  public:
    /** Add @p delta (default 1) to the count. */
    void inc(std::uint64_t delta = 1) { total += delta; }

    /** @return the accumulated count. */
    std::uint64_t value() const { return total; }

    /** Back to zero. */
    void reset() { total = 0; }

  private:
    std::uint64_t total = 0;
};

/**
 * Point-in-time scalar (tank temperature, fleet frequency, VM count).
 *
 * A gauge is either *set* (a module pushes values into it) or
 * *provided* (a callback pulls the value from the owning model when the
 * gauge is read — how the TelemetrySampler observes live state without
 * the model pushing every change).
 */
class Gauge
{
  public:
    /** Push a value; clears any provider. */
    void
    set(double v)
    {
        provider = nullptr;
        last = v;
    }

    /** Make the gauge pull its value from @p fn on every read. */
    void setProvider(std::function<double()> fn) { provider = std::move(fn); }

    /** @return the current value (polls the provider when set). */
    double value() const { return provider ? provider() : last; }

    /** @return whether a pull callback is attached. */
    bool provided() const { return static_cast<bool>(provider); }

  private:
    std::function<double()> provider;
    double last = 0.0;
};

/**
 * Registry of named metrics with stable insertion order.
 *
 * Accessors find-or-create, so publishing is one line:
 * @code
 *   registry.counter("autoscale.scale_outs").inc();
 *   registry.registerGauge("tank.heat_w", [&] { return tank.totalHeat(); });
 * @endcode
 * References returned by the accessors stay valid for the registry's
 * lifetime (metrics are heap-allocated and never move).
 */
class MetricRegistry
{
  public:
    /** Find or create counter @p name. */
    Counter &counter(const std::string &name);

    /** Find or create gauge @p name. */
    Gauge &gauge(const std::string &name);

    /** Find or create gauge @p name and attach pull callback @p fn. */
    Gauge &registerGauge(const std::string &name, std::function<double()> fn);

    /** @return counters in registration order. */
    const std::vector<std::pair<std::string, std::unique_ptr<Counter>>> &
    counters() const
    {
        return counterList;
    }

    /** @return gauges in registration order. */
    const std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> &
    gauges() const
    {
        return gaugeList;
    }

    /** @return total number of registered metrics. */
    std::size_t size() const;

  private:
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>>
        counterList;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gaugeList;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_METRICS_HH
