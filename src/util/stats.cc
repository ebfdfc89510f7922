#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace imsim {
namespace util {

void
OnlineStats::add(double x)
{
    ++n;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
    minv = std::min(minv, x);
    maxv = std::max(maxv, x);
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n);
    const double nb = static_cast<double>(other.n);
    const double delta = other.mu - mu;
    const double nt = na + nb;
    mu += delta * nb / nt;
    m2 += other.m2 + delta * delta * na * nb / nt;
    n += other.n;
    minv = std::min(minv, other.minv);
    maxv = std::max(maxv, other.maxv);
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

double
OnlineStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
PercentileEstimator::add(double x)
{
    samples.push_back(x);
    sorted = false;
}

void
PercentileEstimator::sort()
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

double
PercentileEstimator::percentile(double p)
{
    sort();
    return percentileSorted(samples, p);
}

namespace {

/** The two order statistics percentile p of n >= 2 samples blends. */
struct PercentileRank
{
    std::size_t lo;
    std::size_t hi;
    double frac;

    PercentileRank(std::size_t n, double p)
    {
        const double rank = p / 100.0 * static_cast<double>(n - 1);
        lo = static_cast<std::size_t>(rank);
        hi = std::min(lo + 1, n - 1);
        frac = rank - static_cast<double>(lo);
    }

    double blend(double lo_value, double hi_value) const
    {
        return lo_value * (1.0 - frac) + hi_value * frac;
    }
};

} // namespace

double
PercentileEstimator::percentile(double p) const
{
    if (sorted || samples.size() < 2)
        return percentileSorted(samples, p);
    fatalIf(p < 0.0 || p > 100.0, "percentile: p out of [0,100]");
    // Only the lo-th and hi-th smallest samples are read, so select
    // them instead of sorting the copy: nth_element places the lo-th
    // and leaves every larger-ranked sample after it, where the hi-th
    // (lo + 1) is the minimum. Same values, same blend, same bits.
    std::vector<double> copy(samples);
    const PercentileRank rank(copy.size(), p);
    const auto lo_it = copy.begin() + static_cast<std::ptrdiff_t>(rank.lo);
    std::nth_element(copy.begin(), lo_it, copy.end());
    const double hi_value =
        rank.hi == rank.lo ? *lo_it : *std::min_element(lo_it + 1, copy.end());
    return rank.blend(*lo_it, hi_value);
}

double
PercentileEstimator::percentileSorted(
    const std::vector<double> &sorted_samples, double p) const
{
    fatalIf(p < 0.0 || p > 100.0, "percentile: p out of [0,100]");
    if (sorted_samples.empty())
        return 0.0;
    if (sorted_samples.size() == 1)
        return sorted_samples.front();
    const PercentileRank rank(sorted_samples.size(), p);
    return rank.blend(sorted_samples[rank.lo], sorted_samples[rank.hi]);
}

double
PercentileEstimator::mean() const
{
    if (samples.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples)
        s += x;
    return s / static_cast<double>(samples.size());
}

void
PercentileEstimator::merge(const PercentileEstimator &other)
{
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    sorted = samples.empty();
}

void
PercentileEstimator::reset()
{
    samples.clear();
    sorted = true;
}

SlidingTimeWindow::SlidingTimeWindow(Seconds window_s) : windowLen(window_s)
{
    fatalIf(window_s <= 0.0, "SlidingTimeWindow: window must be positive");
}

void
SlidingTimeWindow::record(Seconds t, double value)
{
    fatalIf(!segments.empty() && t < segments.back().first,
            "SlidingTimeWindow::record: time went backwards");
    segments.emplace_back(t, value);

    // Evict segments that ended before the retained window started. A
    // segment ends where the next one begins, so keep the last segment
    // that straddles the retention boundary. Eviction lives here (the
    // only mutating entry point) so that average() stays a pure read;
    // queries always run at now >= t, where these segments contribute
    // zero weight either way.
    const Seconds retain_start = t - windowLen;
    while (segments.size() > 1 && segments[1].first <= retain_start)
        segments.pop_front();
}

double
SlidingTimeWindow::average(Seconds now) const
{
    return average(now, windowLen);
}

double
SlidingTimeWindow::average(Seconds now, Seconds sub_window) const
{
    fatalIf(sub_window <= 0.0 || sub_window > windowLen + 1e-9,
            "SlidingTimeWindow::average: sub-window out of range");
    if (segments.empty())
        return 0.0;

    const Seconds start = now - sub_window;

    // Skip, by binary search, every segment whose successor starts at
    // or before `start`: the loop below would `continue` past each of
    // them without touching `weighted` or `span`, so starting at the
    // first segment that can overlap [start, now] is bit-identical to
    // the full scan. Timestamps are non-decreasing (record() enforces
    // it), so those segments form a prefix; the last segment always
    // remains, since it extends to `now`.
    std::size_t first = 0;
    std::size_t last = segments.size() - 1;
    while (first < last) {
        const std::size_t mid = first + (last - first) / 2;
        if (segments[mid + 1].first <= start)
            first = mid + 1;
        else
            last = mid;
    }

    double weighted = 0.0;
    double span = 0.0;
    for (std::size_t i = first; i < segments.size(); ++i) {
        const Seconds seg_start = std::max(segments[i].first, start);
        const Seconds seg_end =
            (i + 1 < segments.size()) ? segments[i + 1].first : now;
        if (seg_end <= seg_start)
            continue;
        weighted += segments[i].second * (seg_end - seg_start);
        span += seg_end - seg_start;
    }
    if (span <= 0.0)
        return segments.back().second;
    return weighted / span;
}

double
SlidingTimeWindow::latest() const
{
    return segments.empty() ? 0.0 : segments.back().second;
}

void
SlidingTimeWindow::reset()
{
    segments.clear();
}

Histogram::Histogram(double lo_edge, double hi_edge, std::size_t nbins)
    : lo(lo_edge), hi(hi_edge), counts(nbins, 0)
{
    fatalIf(nbins == 0, "Histogram: need at least one bin");
    fatalIf(hi_edge <= lo_edge, "Histogram: hi must exceed lo");
}

void
Histogram::add(double x)
{
    // A NaN/Inf frac would make the float-to-long cast below undefined
    // *before* the clamp can help; divert non-finite samples instead.
    if (!std::isfinite(x)) {
        ++droppedCount;
        return;
    }
    const double frac = (x - lo) / (hi - lo);
    auto idx = static_cast<long>(frac * static_cast<double>(counts.size()));
    idx = std::clamp<long>(idx, 0, static_cast<long>(counts.size()) - 1);
    ++counts[static_cast<std::size_t>(idx)];
    ++totalCount;
}

std::size_t
Histogram::binCount(std::size_t i) const
{
    fatalIf(i >= counts.size(), "Histogram::binCount: bin out of range");
    return counts[i];
}

double
Histogram::binCenter(std::size_t i) const
{
    fatalIf(i >= counts.size(), "Histogram::binCenter: bin out of range");
    const double width = (hi - lo) / static_cast<double>(counts.size());
    return lo + (static_cast<double>(i) + 0.5) * width;
}

QuantileSketch::QuantileSketch(bool log_scale, double lo, double hi,
                               std::size_t nbins)
    : logScale(log_scale), counts(nbins, 0)
{
    fatalIf(nbins == 0, "QuantileSketch: need at least one bin");
    fatalIf(hi <= lo, "QuantileSketch: hi must exceed lo");
    fatalIf(log_scale && lo <= 0.0,
            "QuantileSketch: log spacing needs lo > 0");
    tLo = transform(lo);
    tHi = transform(hi);
    invWidth = static_cast<double>(nbins) / (tHi - tLo);
}

QuantileSketch
QuantileSketch::linear(double lo, double hi, std::size_t bins)
{
    return QuantileSketch(false, lo, hi, bins);
}

QuantileSketch
QuantileSketch::logarithmic(double lo, double hi, std::size_t bins)
{
    return QuantileSketch(true, lo, hi, bins);
}

void
QuantileSketch::reset()
{
    std::fill(counts.begin(), counts.end(), std::uint64_t{0});
    total = 0;
    droppedCount = 0;
}

bool
QuantileSketch::compatible(const QuantileSketch &other) const
{
    return logScale == other.logScale && tLo == other.tLo &&
           tHi == other.tHi && counts.size() == other.counts.size();
}

void
QuantileSketch::merge(const QuantileSketch &other)
{
    // Empty-sketch edge cases first (a default-constructed sketch has
    // no geometry, so compatible() would reject it): merging one in is
    // a no-op beyond its dropped tally, and merging into one adopts
    // the other's geometry — both accumulator idioms, neither an
    // error. Everything else must match exactly.
    if (other.counts.empty()) {
        droppedCount += other.droppedCount;
        return;
    }
    if (counts.empty()) {
        const std::uint64_t dropped_here = droppedCount;
        *this = other;
        droppedCount += dropped_here;
        return;
    }
    fatalIf(!compatible(other),
            "QuantileSketch::merge: incompatible bin geometry");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
    droppedCount += other.droppedCount;
}

double
QuantileSketch::binLower(std::size_t i) const
{
    fatalIf(i >= counts.size(), "QuantileSketch::binLower: out of range");
    const double width = (tHi - tLo) / static_cast<double>(counts.size());
    return untransform(tLo + static_cast<double>(i) * width);
}

double
QuantileSketch::binUpper(std::size_t i) const
{
    fatalIf(i >= counts.size(), "QuantileSketch::binUpper: out of range");
    const double width = (tHi - tLo) / static_cast<double>(counts.size());
    return untransform(tLo + static_cast<double>(i + 1) * width);
}

namespace {

/**
 * Shared cumulative walk for quantile()/mergedQuantile(): find the bin
 * where the cumulative count crosses the target rank and interpolate
 * inside it in transform space. @p bin_count returns the count of bin
 * i summed over whatever sketches participate.
 */
template <typename BinCountFn>
double
sketchQuantileWalk(const QuantileSketch &geometry, std::uint64_t total,
                   double p, BinCountFn bin_count)
{
    fatalIf(p < 0.0 || p > 100.0, "QuantileSketch: p out of [0,100]");
    if (total == 0)
        return 0.0;
    const double target = p / 100.0 * static_cast<double>(total);
    double cum = 0.0;
    const std::size_t nbins = geometry.bins();
    for (std::size_t i = 0; i < nbins; ++i) {
        const double c = static_cast<double>(bin_count(i));
        if (c > 0.0 && cum + c >= target) {
            const double frac =
                std::clamp((target - cum) / c, 0.0, 1.0);
            const double lo = geometry.binLower(i);
            const double hi = geometry.binUpper(i);
            if (geometry.logSpaced()) {
                // Interpolate in log space (equal-ratio bins).
                return lo * std::pow(hi / lo, frac);
            }
            return lo + frac * (hi - lo);
        }
        cum += c;
    }
    return geometry.binUpper(nbins - 1);
}

} // namespace

double
QuantileSketch::quantile(double p) const
{
    if (counts.empty())
        return 0.0;
    return sketchQuantileWalk(*this, total, p,
                              [this](std::size_t i) { return counts[i]; });
}

double
QuantileSketch::mergedQuantile(const std::vector<QuantileSketch> &parts,
                               double p)
{
    if (parts.empty() || parts.front().counts.empty())
        return 0.0;
    const QuantileSketch &geometry = parts.front();
    std::uint64_t total = 0;
    for (const QuantileSketch &part : parts) {
        fatalIf(!geometry.compatible(part),
                "QuantileSketch::mergedQuantile: incompatible geometry");
        total += part.total;
    }
    return sketchQuantileWalk(
        geometry, total, p, [&parts](std::size_t i) {
            std::uint64_t c = 0;
            for (const QuantileSketch &part : parts)
                c += part.counts[i];
            return c;
        });
}

} // namespace util
} // namespace imsim
