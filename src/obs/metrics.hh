/**
 * @file
 * Metric primitives for fleet telemetry: named counters, gauges, and
 * sample histograms collected in a MetricRegistry that any module can
 * cheaply publish into. The registry is the substrate the
 * TelemetrySampler polls and the run reports snapshot.
 *
 * Thread-safety: a registry (and the metrics it owns) is *not*
 * synchronised. The experiment engine's contract applies: one registry
 * per sweep point / replication, merged in point order afterwards
 * (merge()); never publish into one registry from two threads.
 */

#ifndef IMSIM_OBS_METRICS_HH
#define IMSIM_OBS_METRICS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hh"

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

    /** Fold another counter's count into this one. */
    void merge(const Counter &other) { total += other.total; }

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
 * Sample distribution built on util::PercentileEstimator (the same
 * reservoir the experiment reports use): exact quantiles, merge by
 * sample union.
 */
class HistogramMetric
{
  public:
    /**
     * Record one sample. Non-finite values (NaN, +/-Inf) are diverted
     * into dropped() instead of the reservoir — the
     * util::QuantileSketch guard applied here too, so a single bad
     * sample cannot poison every percentile of a metric.
     */
    void
    observe(double x)
    {
        if (!std::isfinite(x)) {
            ++droppedSamples;
            return;
        }
        reservoir.add(x);
    }

    /** @return number of samples observed. */
    std::size_t count() const { return reservoir.count(); }

    /** @return non-finite samples rejected by observe(). */
    std::size_t dropped() const { return droppedSamples; }

    /** @return arithmetic mean; 0 when empty. */
    double mean() const { return reservoir.mean(); }

    /** @return the p-th percentile (see PercentileEstimator). */
    double percentile(double p) const { return reservoir.percentile(p); }

    /** Absorb another histogram's samples (and dropped count). */
    void merge(const HistogramMetric &other)
    {
        reservoir.merge(other.reservoir);
        droppedSamples += other.droppedSamples;
    }

    /** @return the underlying reservoir. */
    const util::PercentileEstimator &estimator() const { return reservoir; }

  private:
    util::PercentileEstimator reservoir;
    std::size_t droppedSamples = 0;
};

/**
 * Registry of named metrics with stable insertion order.
 *
 * Accessors find-or-create, so publishing is one line:
 * @code
 *   registry.counter("autoscale.scale_outs").inc();
 *   registry.registerGauge("tank.heat_w", [&] { return tank.totalHeat(); });
 *   registry.histogram("latency_s").observe(lat);
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

    /** Find or create histogram @p name. */
    HistogramMetric &histogram(const std::string &name);

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

    /** @return histograms in registration order. */
    const std::vector<
        std::pair<std::string, std::unique_ptr<HistogramMetric>>> &
    histograms() const
    {
        return histogramList;
    }

    /** @return total number of registered metrics. */
    std::size_t size() const;

    /**
     * Flatten to ordered (name, value) pairs: counters first, then
     * gauges (polled), then histograms as
     * `<name>.count/.mean/.p50/.p95/.p99`.
     */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /**
     * Fold @p other into this registry, matching by name (missing
     * metrics are created): counters sum, histograms union their
     * samples, gauges take @p other's current value (last-merged
     * wins; providers are polled, not copied). Merging replications in
     * point order keeps the result independent of worker scheduling.
     */
    void merge(const MetricRegistry &other);

  private:
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>>
        counterList;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gaugeList;
    std::vector<std::pair<std::string, std::unique_ptr<HistogramMetric>>>
        histogramList;
};

/**
 * Thread-safe read side for an (unsynchronised) MetricRegistry.
 *
 * The registry contract forbids touching one from two threads; the
 * mirror turns that into a safe-point protocol: the owning (sim)
 * thread calls update() at points where no metric is mid-mutation,
 * and any other thread reads the last published snapshot through
 * values()/value(). A watchdog UI thread, a progress reporter, or the
 * concurrency tests can then poll live metrics without racing the
 * simulation.
 */
class RegistryMirror
{
  public:
    /** Publish a fresh registry snapshot (owning thread only). */
    void
    update(const MetricRegistry &registry)
    {
        std::vector<std::pair<std::string, double>> fresh =
            registry.snapshot();
        std::lock_guard<std::mutex> lock(mutex);
        latest.swap(fresh);
        ++updateCount;
    }

    /** @return a copy of the last published snapshot (any thread). */
    std::vector<std::pair<std::string, double>>
    values() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return latest;
    }

    /** @return the last published value of @p name, or @p fallback. */
    double
    value(const std::string &name, double fallback = 0.0) const
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &entry : latest) {
            if (entry.first == name)
                return entry.second;
        }
        return fallback;
    }

    /** @return number of update() publications so far (any thread). */
    std::size_t
    updates() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return updateCount;
    }

  private:
    mutable std::mutex mutex;
    std::vector<std::pair<std::string, double>> latest;
    std::size_t updateCount = 0;
};

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_METRICS_HH
