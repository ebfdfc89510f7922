/**
 * @file
 * In-memory time-series storage for sampled telemetry, plus the
 * TelemetryMerger that collects one series per sweep point under the
 * experiment engine and writes them as telemetry's one on-disk format:
 * the merged `point,t,<columns...>` CSV that parseTelemetryCsv (and
 * tools/imsim_report) read back.
 *
 * Determinism contract: a series' CSV rows depend only on the samples
 * appended to it; TelemetryMerger stores series by point index and
 * writes them in index order, so the merged CSV is byte-identical
 * whether the sweep ran with --jobs 1 or --jobs N.
 */

#ifndef IMSIM_OBS_TIMESERIES_HH
#define IMSIM_OBS_TIMESERIES_HH

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/units.hh"

namespace imsim {
namespace obs {

/**
 * A fixed-column time-series: a header of column names and rows of
 * (virtual time, values) samples in append order.
 */
class TimeSeries
{
  public:
    TimeSeries() = default;

    /** @param column_names Value column names (time is implicit). */
    explicit TimeSeries(std::vector<std::string> column_names)
        : cols(std::move(column_names))
    {}

    /** Set the value columns; only allowed while there are no rows. */
    void setColumns(std::vector<std::string> column_names);

    /** @return the value column names. */
    const std::vector<std::string> &columns() const { return cols; }

    /** Append one sample row; @p values must match the column count. */
    void append(Seconds t, std::vector<double> values);

    /** @return number of sample rows. */
    std::size_t rows() const { return data.size(); }

    /** @return whether no samples were recorded. */
    bool empty() const { return data.empty(); }

    /** @return timestamp of row @p i. */
    Seconds time(std::size_t i) const { return data[i].first; }

    /** @return values of row @p i (column order). */
    const std::vector<double> &row(std::size_t i) const
    {
        return data[i].second;
    }

  private:
    std::vector<std::string> cols;
    std::vector<std::pair<Seconds, std::vector<double>>> data;
};

/**
 * Collects one labelled TimeSeries per sweep point, thread-safely, and
 * renders them merged in point order.
 *
 * Workers running under exp::SweepRunner call add() concurrently (a
 * mutex guards the slots); the output order is fixed by the point
 * index, never by completion order.
 */
class TelemetryMerger
{
  public:
    /** @param points Number of sweep points that will report. */
    explicit TelemetryMerger(std::size_t points);

    /**
     * Store point @p index's series under @p label (e.g. the policy
     * name). Thread-safe; FatalError on out-of-range or duplicate
     * indices, or when the columns disagree with other points.
     */
    void add(std::size_t index, const std::string &label,
             TimeSeries series);

    /** @return number of slots filled so far (thread-safe). */
    std::size_t filledCount() const;

    /**
     * Write all filled series as one CSV with a leading "point"
     * label column, in point order. Unfilled slots are skipped.
     */
    void writeCsv(std::ostream &os) const;

  private:
    mutable std::mutex mutex;
    std::vector<std::pair<std::string, TimeSeries>> slots;
    std::vector<bool> filled;
};

/** One labelled per-point series parsed back from a merged CSV. */
struct LabelledSeries
{
    std::string label;
    TimeSeries series;
};

/**
 * Parse a TelemetryMerger::writeCsv() artifact: leading `# key: value`
 * manifest comments are skipped, the `point,t,...` header names the
 * columns, and consecutive rows sharing a label fold into one series
 * per point, in file order. FatalError on malformed input.
 */
std::vector<LabelledSeries> parseTelemetryCsv(std::istream &is);

} // namespace obs
} // namespace imsim

#endif // IMSIM_OBS_TIMESERIES_HH
