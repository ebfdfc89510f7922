/**
 * @file
 * Structured results for the experiment engine: named per-point scalar
 * metrics, aligned console tables, and the machine-readable JSON
 * artifact behind the bench binaries' "--report out.json" flag.
 * Reports optionally carry a provenance "meta" block (see
 * obs::RunManifest) and a wall-clock "timing" section — both outside
 * the deterministic result payload.
 */

#ifndef IMSIM_EXP_REPORT_HH
#define IMSIM_EXP_REPORT_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace imsim {
namespace util {
class TableWriter;
} // namespace util

namespace exp {

/** Ordered (name, value) labels identifying one sweep point. */
using Params = std::vector<std::pair<std::string, std::string>>;

/**
 * Ordered named scalar metrics for one sweep point.
 *
 * Insertion order is preserved so tables and JSON come out in the order
 * the experiment recorded them.
 */
class MetricSet
{
  public:
    /** Set (or overwrite) metric @p name. */
    void set(const std::string &name, double value);

    /** @return whether metric @p name was recorded. */
    bool has(const std::string &name) const;

    /** @return metric @p name; FatalError when absent. */
    double get(const std::string &name) const;

    /** @return metrics in insertion order. */
    const std::vector<std::pair<std::string, double>> &
    entries() const
    {
        return values;
    }

  private:
    std::vector<std::pair<std::string, double>> values;
};

/** One sweep point: identifying params plus its collected metrics. */
struct RunRecord
{
    Params params;
    MetricSet metrics;
};

/**
 * Wall-clock timing of one sweep point, recorded by ProgressMonitor.
 * Observability only: lives in the report's "timing" section, never in
 * the result payload, because it legitimately varies run to run.
 */
struct PointTiming
{
    std::size_t index = 0; ///< Sweep point index.
    double queueMs = 0.0;  ///< Wait from the sweep's fork to start.
    double wallMs = 0.0;   ///< Point body wall time.
    int worker = 0;        ///< Worker slot that ran the point.
};

/** Wall-clock timing of one whole sweep. */
struct RunTiming
{
    double totalWallMs = 0.0;         ///< First submit to last finish.
    std::vector<PointTiming> points;  ///< Per-point rows, index order.
};

/**
 * Structured result of one experiment run (one record per sweep point).
 *
 * The *result payload* (name + points) deliberately omits worker count
 * and wall-clock time: it is bit-identical whether the sweep ran with
 * --jobs 1 or N, which is how the determinism tests compare runs. Run
 * provenance and wall-clock timing live in the separate optional
 * "meta" and "timing" sections, which are only emitted when set and
 * are the only sections allowed to differ between job counts.
 */
class RunReport
{
  public:
    explicit RunReport(std::string name = "") : reportName(std::move(name))
    {}

    /** @return the experiment name. */
    const std::string &name() const { return reportName; }

    /** Append one sweep-point record. */
    void add(RunRecord record);

    /** @return records in sweep order. */
    const std::vector<RunRecord> &records() const { return points; }

    /**
     * Attach run provenance, e.g. obs::RunManifest::entries(). Emitted
     * as the JSON "meta" object (string values, given order).
     */
    void setMeta(std::vector<std::pair<std::string, std::string>> meta);

    /** @return the provenance fields (empty when none attached). */
    const std::vector<std::pair<std::string, std::string>> &meta() const
    {
        return metaFields;
    }

    /** @return whether provenance was attached. */
    bool hasMeta() const { return !metaFields.empty(); }

    /** Attach wall-clock timing (the JSON "timing" section). */
    void setTiming(RunTiming timing);

    /** @return the timing section (valid only when hasTiming()). */
    const RunTiming &timing() const { return runTiming; }

    /** @return whether a timing section was attached. */
    bool hasTiming() const { return timingSet; }

    /**
     * @return an aligned table: one column per param, then one per
     *         metric (union across records, first-seen order).
     */
    util::TableWriter toTable() const;

    /** Serialise to JSON (round-trips through fromJson()). */
    std::string toJson() const;

    /** Parse a report previously produced by toJson(). */
    static RunReport fromJson(const std::string &json);

    /** Write toJson() to file @p path; FatalError when unwritable. */
    void writeJsonFile(const std::string &path) const;

  private:
    std::string reportName;
    std::vector<RunRecord> points;
    std::vector<std::pair<std::string, std::string>> metaFields;
    RunTiming runTiming;
    bool timingSet = false;
};

} // namespace exp
} // namespace imsim

#endif // IMSIM_EXP_REPORT_HH
