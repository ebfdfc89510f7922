/**
 * @file
 * Online statistics used throughout the simulator: running moments,
 * percentile estimation over stored samples, time-weighted sliding-window
 * averages (the auto-scaler's 30 s and 3 min utilization windows), a
 * simple fixed-bin histogram, and a mergeable fixed-bin quantile sketch
 * for streaming percentiles at fleet scale.
 */

#ifndef IMSIM_UTIL_STATS_HH
#define IMSIM_UTIL_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/ring.hh"
#include "util/units.hh"

namespace imsim {
namespace util {

/**
 * Running mean/variance/min/max over a stream of samples (Welford update).
 */
class OnlineStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const OnlineStats &other);

    /** Reset to the empty state. */
    void reset();

    /** @return number of samples added. */
    std::size_t count() const { return n; }

    /** @return arithmetic mean (0 when empty). */
    double mean() const { return n ? mu : 0.0; }

    /** @return population variance (0 with fewer than 2 samples). */
    double variance() const;

    /** @return standard deviation. */
    double stddev() const;

    /** @return minimum sample (+inf when empty). */
    double min() const { return minv; }

    /** @return maximum sample (-inf when empty). */
    double max() const { return maxv; }

    /** @return sum of all samples. */
    double sum() const { return mu * static_cast<double>(n); }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double minv = std::numeric_limits<double>::infinity();
    double maxv = -std::numeric_limits<double>::infinity();
};

/**
 * Percentile estimator that stores all samples and sorts on demand.
 *
 * Exact (not sketch-based); the experiments in this repository collect at
 * most a few million latency samples, for which exact quantiles are cheap
 * and reproducible.
 *
 * Thread-safety contract: the const accessors never mutate the estimator
 * (no `mutable` lazy sort), so concurrent reads through const references
 * are race-free — the contract exp::SweepRunner relies on when sweep
 * points share read-only snapshots. Sorting is an explicit non-const
 * operation: the non-const percentile() overload (and sort()) orders the
 * sample store in place and caches that fact; the const overload works
 * on a sorted store directly and otherwise selects the order statistics
 * from a local copy, producing bit-identical values either way.
 */
class PercentileEstimator
{
  public:
    /** Add one sample. */
    void add(double x);

    /** @return number of samples. */
    std::size_t count() const { return samples.size(); }

    /**
     * @param p Quantile in [0, 100].
     * @return the p-th percentile via linear interpolation; 0 when empty.
     *
     * Sorts the sample store in place (once; later calls reuse it).
     */
    double percentile(double p);

    /**
     * Non-mutating overload: reads a pre-sorted store directly, and
     * otherwise selects the two order statistics it needs from a local
     * copy (O(n), no full sort) without touching this object — safe
     * for concurrent const readers. Bit-identical to sorting first.
     */
    double percentile(double p) const;

    /** Convenience accessors for the metrics the paper reports. */
    double p50() { return percentile(50.0); }
    double p95() { return percentile(95.0); }
    double p99() { return percentile(99.0); }
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Sort the sample store now (explicit form of the lazy sort). */
    void sort();

    /** @return arithmetic mean of the samples; 0 when empty. */
    double mean() const;

    /** Absorb all of @p other's samples into this estimator. */
    void merge(const PercentileEstimator &other);

    /**
     * @return the stored samples. Order is unspecified (the non-const
     * percentile()/sort() order them in place); treat as a multiset.
     */
    const std::vector<double> &data() const { return samples; }

    /** Drop all samples. */
    void reset();

  private:
    double percentileSorted(const std::vector<double> &sorted_samples,
                            double p) const;

    std::vector<double> samples;
    bool sorted = true;
};

/**
 * Time-weighted sliding-window average.
 *
 * Samples are (timestamp, value) pairs; the average weights each value by
 * the duration it was current, over the trailing window. This is how the
 * auto-scaler computes "average CPU utilization over the last 30 seconds /
 * 3 minutes" from a piecewise-constant telemetry signal.
 *
 * Segments that fell out of the retained window are evicted by record()
 * (a non-const operation); average() is a pure read, so concurrent
 * queries through const references are race-free. A query binary-
 * searches to the first segment that can overlap its sub-window, so a
 * 30-s read of a 200-s history visits only the last 30 s of segments.
 *
 * Storage is a RingDeque, so once the segment buffer reaches the
 * window's high-water mark, record() is allocation-free — std::deque
 * would keep cycling 512-byte chunks at the eviction boundary (the
 * queueing hot path records two segments per request, which showed up
 * as ~0.06 allocs/request before the switch).
 */
class SlidingTimeWindow
{
  public:
    /** @param window_s Length of the trailing window in seconds (> 0). */
    explicit SlidingTimeWindow(Seconds window_s);

    /** Record that the signal took value @p value starting at time @p t. */
    void record(Seconds t, double value);

    /**
     * @param now Current simulation time (>= last record time).
     * @return time-weighted mean of the signal over [now - window, now];
     *         0 when no sample has ever been recorded.
     */
    double average(Seconds now) const;

    /**
     * Time-weighted mean over a shorter trailing sub-window
     * [now - sub_window, now]; @p sub_window must not exceed the window
     * this instance retains.
     */
    double average(Seconds now, Seconds sub_window) const;

    /** @return the window length. */
    Seconds window() const { return windowLen; }

    /** @return the most recent raw value recorded (0 when empty). */
    double latest() const;

    /** Forget all history. */
    void reset();

  private:
    Seconds windowLen;
    /** (start time, value) of each piecewise-constant segment. */
    RingDeque<std::pair<Seconds, double>> segments;
};

/**
 * Fixed-width-bin histogram over [lo, hi); finite out-of-range samples
 * clamp to the end bins. Non-finite samples (NaN, +/-Inf) are never
 * binned — they count into dropped() instead, keeping the bin-index
 * arithmetic free of undefined float-to-integer casts.
 */
class Histogram
{
  public:
    /**
     * @param lo    Left edge of the first bin.
     * @param hi    Right edge of the last bin (> lo).
     * @param nbins Number of bins (> 0).
     */
    Histogram(double lo, double hi, std::size_t nbins);

    /** Add one sample (non-finite values go to the dropped counter). */
    void add(double x);

    /** @return count in bin @p i. */
    std::size_t binCount(std::size_t i) const;

    /** @return center value of bin @p i. */
    double binCenter(std::size_t i) const;

    /** @return number of bins. */
    std::size_t bins() const { return counts.size(); }

    /** @return total samples binned (excludes dropped non-finite ones). */
    std::size_t total() const { return totalCount; }

    /** @return non-finite samples rejected by add(). */
    std::size_t dropped() const { return droppedCount; }

  private:
    double lo;
    double hi;
    std::vector<std::size_t> counts;
    std::size_t totalCount = 0;
    std::size_t droppedCount = 0;
};

/**
 * Mergeable fixed-bin quantile sketch.
 *
 * Unlike PercentileEstimator (which stores every sample — exact but
 * O(samples) memory), a QuantileSketch holds a fixed array of bin
 * counts over a configured value range: add() is O(1) and
 * allocation-free, memory is O(bins) regardless of sample count, and
 * two sketches with the same geometry merge by adding their counts —
 * the property obs::FleetAggregator exploits to combine per-SKU
 * distributions into a fleet-wide one without touching per-server
 * data twice.
 *
 * Bins are either linearly spaced over [lo, hi] or logarithmically
 * spaced (equal ratio per bin — the right shape for latencies spanning
 * decades). Finite out-of-range samples clamp into the end bins;
 * non-finite samples (NaN, +/-Inf) count into dropped() and are never
 * binned, mirroring Histogram::add. quantile() walks the cumulative
 * counts and interpolates linearly inside the selected bin, so the
 * answer is deterministic and within one bin width (one bin *ratio*
 * for log spacing) of the exact order statistic.
 */
class QuantileSketch
{
  public:
    /** An empty, zero-bin sketch; add() drops everything. */
    QuantileSketch() = default;

    /** Linearly spaced bins over [lo, hi]; requires hi > lo, bins > 0. */
    static QuantileSketch linear(double lo, double hi, std::size_t bins);

    /**
     * Logarithmically spaced bins over [lo, hi]; requires
     * 0 < lo < hi, bins > 0. Finite samples <= 0 clamp to the first
     * bin edge.
     */
    static QuantileSketch logarithmic(double lo, double hi,
                                      std::size_t bins);

    /**
     * Add one sample (non-finite values go to dropped()). O(1) and
     * allocation-free; defined inline because the fleet aggregator
     * calls it once per unit per channel in its reduction pass.
     */
    void
    add(double x)
    {
        // A zero-bin (default-constructed) sketch has no geometry to
        // bin into: count the sample as dropped instead of clamping an
        // index into an empty vector.
        if (!std::isfinite(x) || counts.empty()) {
            ++droppedCount;
            return;
        }
        // Clamp in transform space: log10 of a non-positive sample is
        // not finite, so pin those to the first edge before the cast.
        const double u = (logScale && x <= 0.0) ? tLo : transform(x);
        const double frac = (u - tLo) * invWidth;
        auto idx = static_cast<long>(frac);
        idx = std::clamp<long>(idx, 0,
                               static_cast<long>(counts.size()) - 1);
        ++counts[static_cast<std::size_t>(idx)];
        ++total;
    }

    /** Zero all counts; geometry is retained. Allocation-free. */
    void reset();

    /**
     * Add @p other's counts into this sketch. Merging a zero-bin
     * (default-constructed) sketch is a no-op beyond folding its
     * dropped count; merging *into* a zero-bin sketch adopts the
     * other's geometry wholesale (the natural accumulator idiom).
     * Any other geometry mismatch is a FatalError — never a silent
     * mis-binning.
     */
    void merge(const QuantileSketch &other);

    /** @return whether @p other has the same bin geometry. */
    bool compatible(const QuantileSketch &other) const;

    /**
     * @param p Quantile in [0, 100].
     * @return interpolated p-th percentile; 0 when empty.
     */
    double quantile(double p) const;

    /**
     * Quantile over the union of @p parts without materialising a
     * merged sketch (O(bins * parts), allocation-free) — how the
     * sliding tail-latency window polls p99 across its sub-window
     * buckets. All parts must share one geometry; empty vector or
     * all-empty parts return 0.
     */
    static double mergedQuantile(const std::vector<QuantileSketch> &parts,
                                 double p);

    /** @return samples binned so far (excludes dropped ones). */
    std::uint64_t count() const { return total; }

    /** @return non-finite samples rejected by add(). */
    std::uint64_t dropped() const { return droppedCount; }

    /** @return number of bins (0 for a default-constructed sketch). */
    std::size_t bins() const { return counts.size(); }

    /** @return count in bin @p i. */
    std::uint64_t binCount(std::size_t i) const { return counts[i]; }

    /** @return lower value edge of bin @p i. */
    double binLower(std::size_t i) const;

    /** @return upper value edge of bin @p i. */
    double binUpper(std::size_t i) const;

    /** @return whether bins are log-spaced. */
    bool logSpaced() const { return logScale; }

  private:
    QuantileSketch(bool log_scale, double lo, double hi,
                   std::size_t bins);

    /** Map a value into transform space (log10 for log sketches). */
    double transform(double x) const
    {
        return logScale ? std::log10(x) : x;
    }

    /** Map a transform-space coordinate back to value space. */
    double untransform(double u) const
    {
        return logScale ? std::pow(10.0, u) : u;
    }

    bool logScale = false;
    double tLo = 0.0;      ///< transform(lo)
    double tHi = 0.0;      ///< transform(hi)
    double invWidth = 0.0; ///< bins / (tHi - tLo)
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t droppedCount = 0;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_STATS_HH
