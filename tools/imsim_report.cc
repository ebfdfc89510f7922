/**
 * @file
 * One-file HTML run report: merges the artifacts a bench run leaves
 * behind — the RunReport JSON (--report), the merged telemetry CSV
 * (--telemetry), the profiler dump (--profile) and a hot-path bench
 * baseline (--bench) — into a single self-contained page with inline
 * SVG sparklines. No external assets, scripts, or stylesheets: the
 * file can be mailed around or archived next to the run.
 *
 * Usage:
 *   imsim_report --report run.json [--telemetry run.csv]
 *                [--incidents incidents.json]
 *                [--blackbox blackbox.json]
 *                [--profile prof.json] [--bench BENCH_hotpaths.json]
 *                [--out report.html] [--title STRING]
 *
 * Only --report is required; every other section appears when its
 * artifact is given. The provenance table at the top renders the
 * report's "meta" block (see obs::RunManifest), so the page answers
 * "which commit, which compiler, which seed produced these numbers?"
 *
 * Artifacts degrade gracefully: a missing, unparseable, or
 * newer-schema artifact renders as an explanatory paragraph in its
 * section (and a warning on stderr), never a crash — a report page
 * with one stale artifact is still a report page.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/report.hh"
#include "obs/incident.hh"
#include "obs/obs.hh"
#include "obs/profiler.hh"
#include "obs/timeseries.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace imsim;

namespace {

/** Read a whole file; FatalError when unreadable. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    util::fatalIf(!in, "imsim_report: cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Escape &, <, >, " for HTML text and attribute contexts. */
std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c;
        }
    }
    return out;
}

/** Compact human-facing number: %.6g, non-finite spelled out. */
std::string
fmtNum(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0 ? "inf" : "-inf";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", v);
    return buffer;
}

/** One coordinate in an SVG points list. */
std::string
fmtCoord(double v)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.1f", v);
    return buffer;
}

/**
 * Inline SVG sparkline of (t, value) samples. Non-finite values break
 * the polyline into segments rather than being interpolated over, so a
 * NaN gap in a gauge is visible as a gap. Flat series draw a midline.
 */
std::string
sparkline(const std::vector<double> &ts, const std::vector<double> &vs)
{
    const int w = 240;
    const int h = 40;
    const int pad = 2;
    double lo = 0.0;
    double hi = 0.0;
    double t_lo = 0.0;
    double t_hi = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (!std::isfinite(vs[i]))
            continue;
        if (!any) {
            lo = hi = vs[i];
            t_lo = t_hi = ts[i];
            any = true;
        } else {
            lo = std::min(lo, vs[i]);
            hi = std::max(hi, vs[i]);
            t_lo = std::min(t_lo, ts[i]);
            t_hi = std::max(t_hi, ts[i]);
        }
    }
    if (!any)
        return "<span class=\"muted\">no finite samples</span>";
    const double t_span = t_hi > t_lo ? t_hi - t_lo : 1.0;
    const double v_span = hi > lo ? hi - lo : 1.0;
    std::string svg = "<svg class=\"spark\" width=\"" +
                      std::to_string(w) + "\" height=\"" +
                      std::to_string(h) + "\" viewBox=\"0 0 " +
                      std::to_string(w) + " " + std::to_string(h) +
                      "\">";
    std::string points;
    const auto flush = [&] {
        if (points.empty())
            return;
        svg += "<polyline fill=\"none\" stroke=\"#2a6f97\" "
               "stroke-width=\"1.5\" points=\"" +
               points + "\"/>";
        points.clear();
    };
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (!std::isfinite(vs[i])) {
            flush(); // NaN/inf sample: visible gap in the line.
            continue;
        }
        const double x =
            pad + (ts[i] - t_lo) / t_span * (w - 2.0 * pad);
        const double y =
            h - pad - (vs[i] - lo) / v_span * (h - 2.0 * pad);
        if (!points.empty())
            points += " ";
        points += fmtCoord(x) + "," + fmtCoord(y);
    }
    flush();
    svg += "</svg>";
    return svg;
}

/** <tr> of <th> or <td> cells, already-escaped content. */
std::string
tableRow(const std::vector<std::string> &cells, bool header = false)
{
    const char *tag = header ? "th" : "td";
    std::string row = "<tr>";
    for (const auto &cell : cells)
        row += std::string("<") + tag + ">" + cell + "</" + tag + ">";
    row += "</tr>\n";
    return row;
}

/** Provenance table from the report's meta block. */
std::string
manifestSection(const exp::RunReport &report)
{
    if (!report.hasMeta())
        return "<p class=\"muted\">No provenance block in the report "
               "(run the bench with a build that stamps "
               "obs::RunManifest).</p>\n";
    std::string html = "<table class=\"kv\">\n";
    for (const auto &field : report.meta())
        html += tableRow(
            {htmlEscape(field.first), htmlEscape(field.second)});
    html += "</table>\n";
    return html;
}

/** Sweep results: one row per point, params then metric columns. */
std::string
resultsSection(const exp::RunReport &report)
{
    const auto &records = report.records();
    if (records.empty())
        return "<p class=\"muted\">Report has no sweep points.</p>\n";
    std::vector<std::string> header;
    for (const auto &param : records.front().params)
        header.push_back(htmlEscape(param.first));
    std::vector<std::string> metric_names;
    for (const auto &record : records)
        for (const auto &metric : record.metrics.entries())
            if (std::find(metric_names.begin(), metric_names.end(),
                          metric.first) == metric_names.end())
                metric_names.push_back(metric.first);
    for (const auto &name : metric_names)
        header.push_back(htmlEscape(name));
    std::string html = "<table>\n" + tableRow(header, true);
    for (const auto &record : records) {
        std::vector<std::string> row;
        for (const auto &param : record.params)
            row.push_back(htmlEscape(param.second));
        for (const auto &name : metric_names)
            row.push_back(record.metrics.has(name)
                              ? fmtNum(record.metrics.get(name))
                              : std::string("&mdash;"));
        html += tableRow(row);
    }
    html += "</table>\n";
    return html;
}

/**
 * Latency/cost Pareto scatter for control reports (bench_control):
 * every sweep point plotted on (P99 latency, cost per Mreq), the
 * non-dominated front marked and connected, and a table of the front
 * rows beneath. Applies the same strict-domination test the bench's
 * stdout table uses, so the page and the console agree on the front.
 */
std::string
paretoSection(const exp::RunReport &report)
{
    const auto &records = report.records();
    std::vector<double> p99;
    std::vector<double> cost;
    std::vector<std::string> labels;
    for (const auto &record : records) {
        if (!record.metrics.has("p99_ms") ||
            !record.metrics.has("cost_per_mreq"))
            continue;
        p99.push_back(record.metrics.get("p99_ms"));
        cost.push_back(record.metrics.get("cost_per_mreq"));
        std::string label;
        for (const auto &param : record.params)
            label += (label.empty() ? "" : " @ ") + param.second;
        labels.push_back(label);
    }
    util::fatalIf(p99.empty(),
                  "report has no points with p99_ms and cost_per_mreq");

    // Both axes minimized: dominated = some other point is no worse on
    // both and strictly better on at least one.
    std::vector<bool> front(p99.size(), true);
    for (std::size_t a = 0; a < p99.size(); ++a)
        for (std::size_t b = 0; b < p99.size(); ++b)
            if (a != b && p99[b] <= p99[a] && cost[b] <= cost[a] &&
                (p99[b] < p99[a] || cost[b] < cost[a])) {
                front[a] = false;
                break;
            }

    const int w = 460;
    const int h = 300;
    const int pad = 40;
    double p_lo = p99[0];
    double p_hi = p99[0];
    double c_lo = cost[0];
    double c_hi = cost[0];
    for (std::size_t i = 0; i < p99.size(); ++i) {
        p_lo = std::min(p_lo, p99[i]);
        p_hi = std::max(p_hi, p99[i]);
        c_lo = std::min(c_lo, cost[i]);
        c_hi = std::max(c_hi, cost[i]);
    }
    const double p_span = p_hi > p_lo ? p_hi - p_lo : 1.0;
    const double c_span = c_hi > c_lo ? c_hi - c_lo : 1.0;
    const auto px = [&](double v) {
        return fmtCoord(pad + (v - p_lo) / p_span * (w - 2.0 * pad));
    };
    const auto py = [&](double v) {
        return fmtCoord(h - pad - (v - c_lo) / c_span * (h - 2.0 * pad));
    };

    std::string svg =
        "<svg class=\"timeline\" width=\"" + std::to_string(w) +
        "\" height=\"" + std::to_string(h) + "\" viewBox=\"0 0 " +
        std::to_string(w) + " " + std::to_string(h) + "\">";
    svg += "<line x1=\"" + std::to_string(pad) + "\" y1=\"" +
           std::to_string(h - pad) + "\" x2=\"" +
           std::to_string(w - pad) + "\" y2=\"" +
           std::to_string(h - pad) + "\" stroke=\"#999\"/>";
    svg += "<line x1=\"" + std::to_string(pad) + "\" y1=\"" +
           std::to_string(pad) + "\" x2=\"" + std::to_string(pad) +
           "\" y2=\"" + std::to_string(h - pad) + "\" stroke=\"#999\"/>";
    svg += "<text class=\"axis\" x=\"" + std::to_string(w / 2) +
           "\" y=\"" + std::to_string(h - 8) +
           "\" text-anchor=\"middle\">P99 latency [ms] (" +
           fmtNum(p_lo) + " &#8211; " + fmtNum(p_hi) + ")</text>";
    svg += "<text class=\"axis\" x=\"12\" y=\"" +
           std::to_string(h / 2) + "\" text-anchor=\"middle\" "
           "transform=\"rotate(-90 12 " + std::to_string(h / 2) +
           ")\">USD/Mreq (" + fmtNum(c_lo) + " &#8211; " +
           fmtNum(c_hi) + ")</text>";

    // Connect the front in latency order so the trade-off curve reads
    // left to right.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < p99.size(); ++i)
        if (front[i])
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return p99[a] < p99[b];
              });
    std::string points;
    for (std::size_t i : order) {
        if (!points.empty())
            points += " ";
        points += px(p99[i]) + "," + py(cost[i]);
    }
    if (order.size() > 1)
        svg += "<polyline fill=\"none\" stroke=\"#2a6f97\" "
               "stroke-dasharray=\"4 3\" points=\"" + points + "\"/>";
    for (std::size_t i = 0; i < p99.size(); ++i) {
        svg += "<circle cx=\"" + px(p99[i]) + "\" cy=\"" +
               py(cost[i]) + "\" r=\"4\" " +
               (front[i] ? "fill=\"#2a6f97\""
                         : "fill=\"none\" stroke=\"#b55\"") +
               "/>";
        svg += "<text class=\"axis\" x=\"" + px(p99[i]) + "\" y=\"" +
               py(cost[i]) + "\" dx=\"6\" dy=\"-4\">" +
               htmlEscape(labels[i]) + "</text>";
    }
    svg += "</svg>";

    std::string html =
        "<p>Filled points are non-dominated on (P99 latency, cost per "
        "million requests); hollow points are dominated by some other "
        "controller.</p>\n" + svg + "\n<table>\n" +
        tableRow({"Point", "P99 [ms]", "USD/Mreq"}, true);
    for (std::size_t i : order)
        html += tableRow({htmlEscape(labels[i]), fmtNum(p99[i]),
                          fmtNum(cost[i])});
    html += "</table>\n";
    return html;
}

/** Per-point wall-clock bars from the report's timing section. */
std::string
timingSection(const exp::RunReport &report)
{
    const auto &timing = report.timing();
    double max_ms = 0.0;
    for (const auto &point : timing.points)
        max_ms = std::max(max_ms, point.queueMs + point.wallMs);
    std::string html = "<p>Total sweep wall time: <b>" +
                       fmtNum(timing.totalWallMs) + " ms</b> across " +
                       std::to_string(timing.points.size()) +
                       " points.</p>\n";
    html += "<table>\n" + tableRow({"point", "worker", "queue [ms]",
                                    "wall [ms]", ""},
                                   true);
    for (const auto &point : timing.points) {
        const double span = max_ms > 0.0 ? max_ms : 1.0;
        const double queue_pct = point.queueMs / span * 100.0;
        const double wall_pct = point.wallMs / span * 100.0;
        const std::string bar =
            "<div class=\"bar\"><div class=\"queue\" style=\"width:" +
            fmtCoord(queue_pct) +
            "%\"></div><div class=\"wall\" style=\"width:" +
            fmtCoord(wall_pct) + "%\"></div></div>";
        html += tableRow({std::to_string(point.index),
                          std::to_string(point.worker),
                          fmtNum(point.queueMs), fmtNum(point.wallMs),
                          bar});
    }
    html += "</table>\n";
    return html;
}

/** Sparkline grid: one row per (point label, telemetry column). */
std::string
telemetrySection(const std::vector<obs::LabelledSeries> &series)
{
    std::string html =
        "<table>\n" +
        tableRow({"point", "column", "min", "max", "last", "samples",
                  "sparkline"},
                 true);
    for (const auto &labelled : series) {
        const auto &ts = labelled.series;
        std::vector<double> times(ts.rows());
        for (std::size_t i = 0; i < ts.rows(); ++i)
            times[i] = ts.time(i);
        for (std::size_t c = 0; c < ts.columns().size(); ++c) {
            std::vector<double> values(ts.rows());
            double lo = std::nan("");
            double hi = std::nan("");
            double last = std::nan("");
            for (std::size_t i = 0; i < ts.rows(); ++i) {
                values[i] = ts.row(i)[c];
                if (!std::isfinite(values[i]))
                    continue;
                lo = std::isnan(lo) ? values[i]
                                    : std::min(lo, values[i]);
                hi = std::isnan(hi) ? values[i]
                                    : std::max(hi, values[i]);
                last = values[i];
            }
            html += tableRow({htmlEscape(labelled.label),
                              htmlEscape(ts.columns()[c]), fmtNum(lo),
                              fmtNum(hi), fmtNum(last),
                              std::to_string(ts.rows()),
                              sparkline(times, values)});
        }
    }
    html += "</table>\n";
    return html;
}

/** Wall-clock profile table, heaviest self time first. */
std::string
profileSection(const obs::ProfileReport &profile)
{
    auto entries = profile.entries();
    std::sort(entries.begin(), entries.end(),
              [](const obs::ProfileEntry &a, const obs::ProfileEntry &b) {
                  return a.selfMs > b.selfMs;
              });
    double total_self = 0.0;
    for (const auto &entry : entries)
        total_self += entry.selfMs;
    std::string html =
        "<table>\n" + tableRow({"scope path", "count", "total [ms]",
                                "self [ms]", "self %"},
                               true);
    for (const auto &entry : entries) {
        const double share =
            total_self > 0.0 ? entry.selfMs / total_self * 100.0 : 0.0;
        html += tableRow({htmlEscape(entry.path),
                          std::to_string(entry.count),
                          fmtNum(entry.totalMs), fmtNum(entry.selfMs),
                          fmtNum(share)});
    }
    html += "</table>\n";
    return html;
}

/** Hot-path bench table from a BENCH_hotpaths.json document. */
std::string
benchSection(const util::Json &doc)
{
    std::string html =
        "<table>\n" + tableRow({"benchmark", "unit", "iterations",
                                "ns/op", "ops/s", "allocs/op"},
                               true);
    for (const auto &row : doc.at("benchmarks").array()) {
        html += tableRow(
            {htmlEscape(row.at("name").str()),
             htmlEscape(row.at("unit").str()),
             fmtNum(row.at("iterations").number()),
             fmtNum(row.at("ns_per_op").number()),
             fmtNum(row.at("ops_per_sec").number()),
             fmtNum(row.at("allocs_per_op").number())});
    }
    html += "</table>\n";
    return html;
}

/** Band color per alert kind (matches obs::alertKindName strings). */
const char *
incidentColor(const std::string &kind)
{
    if (kind == "tail_latency")
        return "#c1121f";
    if (kind == "tj_ceiling")
        return "#9d0208";
    if (kind == "brownout")
        return "#e09f3e";
    if (kind == "fluid_level")
        return "#2a6f97";
    if (kind == "wear_rate")
        return "#5f0f40";
    return "#555555";
}

/** A vertical tick on a timeline (a fault, violation or note). */
struct TimelineMark
{
    double t;
    const char *stroke;
    const char *dash;   ///< stroke-dasharray; "" draws a solid line.
    std::string label;  ///< HTML-escaped; the title appends " @ t s".
};

/** An interval band on one lane of a timeline. */
struct TimelineBand
{
    int lane;
    double open;
    double close;       ///< Negative: still open, drawn to the horizon.
    const char *fill;
    std::string label;  ///< HTML-escaped title before the interval.
    std::string detail; ///< HTML-escaped title after the interval.
};

/**
 * SVG timeline over [0, @p horizon] with @p lanes band lanes (at least
 * one): the marks first, underneath, then the bands (each at least a
 * 2-px sliver wide), then the time axis.
 */
std::string
timelineSvg(int lanes, const std::vector<TimelineMark> &marks,
            const std::vector<TimelineBand> &bands, double horizon)
{
    const int w = 700;
    const int lane_h = 16;
    const int axis_h = 18;
    lanes = std::max(1, lanes);
    const int h = lanes * lane_h + axis_h;
    const double span = horizon > 0.0 ? horizon : 1.0;
    const auto x_of = [&](double t) {
        return std::clamp(t / span, 0.0, 1.0) * (w - 2.0) + 1.0;
    };

    std::string svg = "<svg class=\"timeline\" width=\"" +
                      std::to_string(w) + "\" height=\"" +
                      std::to_string(h) + "\" viewBox=\"0 0 " +
                      std::to_string(w) + " " + std::to_string(h) +
                      "\">";
    for (const auto &mark : marks) {
        const std::string x = fmtCoord(x_of(mark.t));
        svg += "<line x1=\"" + x + "\" y1=\"0\" x2=\"" + x +
               "\" y2=\"" + std::to_string(lanes * lane_h) +
               "\" stroke=\"" + mark.stroke + "\" stroke-dasharray=\"" +
               mark.dash + "\"><title>" + mark.label + " @ " +
               fmtNum(mark.t) + " s</title></line>";
    }
    for (const auto &band : bands) {
        const double end = band.close >= 0.0 ? band.close : horizon;
        const double x0 = x_of(band.open);
        const double x1 = std::max(x_of(end), x0 + 2.0); // Visible sliver.
        svg += "<rect x=\"" + fmtCoord(x0) + "\" y=\"" +
               std::to_string(band.lane * lane_h + 2) + "\" width=\"" +
               fmtCoord(x1 - x0) + "\" height=\"" +
               std::to_string(lane_h - 4) + "\" rx=\"2\" fill=\"" +
               band.fill + "\" fill-opacity=\"0.85\"><title>" +
               band.label + " " + fmtNum(band.open) + " s → " +
               (band.close >= 0.0 ? fmtNum(band.close) + " s"
                                  : std::string("open")) +
               band.detail + "</title></rect>";
    }
    const int axis_y = lanes * lane_h + 4;
    svg += "<line x1=\"1\" y1=\"" + std::to_string(axis_y) +
           "\" x2=\"" + std::to_string(w - 1) + "\" y2=\"" +
           std::to_string(axis_y) + "\" stroke=\"#888\"/>";
    svg += "<text x=\"2\" y=\"" + std::to_string(axis_y + 12) +
           "\" class=\"axis\">0 s</text>";
    svg += "<text x=\"" + std::to_string(w - 2) + "\" y=\"" +
           std::to_string(axis_y + 12) +
           "\" class=\"axis\" text-anchor=\"end\">" + fmtNum(horizon) +
           " s</text>";
    svg += "</svg>";
    return svg;
}

/**
 * SVG timeline of one point's incidents: a band per incident (one lane
 * each, colored by alert kind, open ends drawn to the horizon) over
 * dashed ticks for every noted fault.
 */
std::string
incidentTimeline(const util::Json &point, double horizon)
{
    std::vector<TimelineMark> marks;
    for (const auto &fault : point.at("faults").array()) {
        marks.push_back({fault.at("t_s").number(), "#999", "2,2",
                         htmlEscape(fault.at("label").str())});
    }
    std::vector<TimelineBand> bands;
    for (const auto &incident : point.at("incidents").array()) {
        const std::string kind = incident.at("kind").str();
        bands.push_back(
            {static_cast<int>(bands.size()),
             incident.at("opened_s").number(),
             incident.at("closed_s").number(), incidentColor(kind),
             htmlEscape(incident.at("rule").str()) + " [" +
                 htmlEscape(kind) + "]",
             ", peak " + fmtNum(incident.at("peak_value").number()) +
                 " (threshold " +
                 fmtNum(incident.at("threshold").number()) + ")"});
    }
    return timelineSvg(static_cast<int>(bands.size()), marks, bands,
                       horizon);
}

/**
 * Incident timelines from an imsim.incidents/1 document: per point, a
 * detail table of incidents over the SVG band chart.
 */
std::string
incidentsSection(const util::Json &doc)
{
    const std::string schema =
        doc.has("schema") ? doc.at("schema").str() : "(none)";
    util::fatalIf(schema != obs::kIncidentSchema,
                  "unsupported incident schema '" + schema +
                      "' (this build reads " +
                      std::string(obs::kIncidentSchema) + ")");
    const auto &points = doc.at("points").array();

    // One shared horizon so the per-point charts line up.
    double horizon = 0.0;
    for (const auto &point : points) {
        for (const auto &incident : point.at("incidents").array()) {
            horizon = std::max(horizon, incident.at("opened_s").number());
            horizon = std::max(horizon, incident.at("closed_s").number());
        }
        for (const auto &fault : point.at("faults").array())
            horizon = std::max(horizon, fault.at("t_s").number());
    }

    std::string html;
    std::size_t total = 0;
    for (const auto &point : points) {
        const auto &incidents = point.at("incidents").array();
        total += incidents.size();
        html += "<h3>" + htmlEscape(point.at("label").str()) + " (" +
                std::to_string(incidents.size()) + " incidents, " +
                std::to_string(point.at("faults").array().size()) +
                " faults)</h3>\n";
        html += incidentTimeline(point, horizon);
        if (incidents.empty())
            continue;
        html += "<table>\n" + tableRow({"rule", "kind", "opened [s]",
                                        "closed [s]", "peak",
                                        "threshold", "faults"},
                                       true);
        for (const auto &incident : incidents) {
            const double closed = incident.at("closed_s").number();
            std::string fault_list;
            for (const auto &fault : incident.at("faults").array()) {
                if (!fault_list.empty())
                    fault_list += ", ";
                fault_list += htmlEscape(fault.at("label").str());
            }
            html += tableRow(
                {htmlEscape(incident.at("rule").str()),
                 htmlEscape(incident.at("kind").str()),
                 fmtNum(incident.at("opened_s").number()),
                 closed >= 0.0 ? fmtNum(closed) : std::string("open"),
                 fmtNum(incident.at("peak_value").number()),
                 fmtNum(incident.at("threshold").number()),
                 fault_list.empty() ? std::string("&mdash;")
                                    : fault_list});
        }
        html += "</table>\n";
    }
    if (total == 0 && points.empty())
        html += "<p class=\"muted\">Document has no points.</p>\n";
    return html;
}

/** Lane palette for blackbox alert bands (one lane per alert rule). */
const char *
blackboxLaneColor(std::size_t lane)
{
    static const char *kPalette[] = {"#c1121f", "#e09f3e", "#2a6f97",
                                     "#5f0f40", "#386641", "#9d0208"};
    return kPalette[lane % (sizeof kPalette / sizeof kPalette[0])];
}

/**
 * SVG timeline of one flight-recorder point's event ring: alert
 * intervals reconstructed from alert_raise/alert_clear pairs (one lane
 * per rule; a clear whose raise was evicted from the bounded ring
 * draws from t=0, an unmatched raise draws to the horizon) over
 * vertical tick marks for faults, invariant violations, and notes.
 */
std::string
blackboxTimeline(const util::Json &point, double horizon)
{
    std::vector<TimelineBand> bands;
    std::map<std::string, std::size_t> raised; // rule -> open band.
    std::map<std::string, int> lane_of;        // First-seen order.
    std::vector<TimelineMark> marks;
    const auto add_band = [&](const std::string &rule, double open,
                              double close, double value) {
        const auto lane = lane_of.emplace(
            rule, static_cast<int>(lane_of.size())).first->second;
        bands.push_back({lane, open, close,
                         blackboxLaneColor(static_cast<std::size_t>(lane)),
                         htmlEscape(rule), ", value " + fmtNum(value)});
    };
    for (const auto &event : point.at("events").array()) {
        const double t = event.at("t_s").number();
        const std::string kind = event.at("kind").str();
        const std::string label = event.at("label").str();
        if (kind == "alert_raise") {
            raised[label] = bands.size();
            add_band(label, t, -1.0, event.at("value").number());
        } else if (kind == "alert_clear") {
            const auto it = raised.find(label);
            if (it != raised.end()) {
                bands[it->second].close = t;
                raised.erase(it);
            } else {
                // The matching raise fell off the bounded ring: the
                // alert was already up when retention began.
                add_band(label, 0.0, t, event.at("value").number());
            }
        } else {
            const char *stroke = kind == "violation" ? "#9d0208"
                                 : kind == "fault"   ? "#999"
                                                     : "#bbb";
            marks.push_back({t, stroke, kind == "violation" ? "" : "2,2",
                             htmlEscape(kind) + ": " + htmlEscape(label)});
        }
    }
    return timelineSvg(static_cast<int>(lane_of.size()), marks, bands,
                       horizon);
}

/**
 * Flight-recorder section from an imsim.blackbox/1 document: per
 * point, the event timeline over one table per retention tier (a
 * sparkline of bin means plus the min/max envelope per channel).
 */
std::string
blackboxSection(const util::Json &doc)
{
    const std::string schema =
        doc.has("schema") ? doc.at("schema").str() : "(none)";
    util::fatalIf(schema != obs::kBlackboxSchema,
                  "unsupported blackbox schema '" + schema +
                      "' (this build reads " +
                      std::string(obs::kBlackboxSchema) + ")");
    const auto &points = doc.at("points").array();

    // One shared horizon so the per-point charts line up.
    double horizon = 0.0;
    for (const auto &point : points) {
        for (const auto &tier : point.at("tiers").array()) {
            const double res = tier.at("resolution_s").number();
            const auto &rows = tier.at("rows").array();
            if (!rows.empty())
                horizon = std::max(
                    horizon, rows.back().array()[0].number() + res);
        }
        for (const auto &event : point.at("events").array())
            horizon = std::max(horizon, event.at("t_s").number());
    }

    std::string html;
    for (const auto &point : points) {
        const auto &channels = point.at("channels").array();
        html += "<h3>" + htmlEscape(point.at("label").str()) + " (" +
                fmtNum(point.at("ticks").number()) + " ticks, " +
                fmtNum(point.at("events_noted").number()) +
                " events noted)</h3>\n";
        html += blackboxTimeline(point, horizon);
        for (const auto &tier : point.at("tiers").array()) {
            const double res = tier.at("resolution_s").number();
            const auto &rows = tier.at("rows").array();
            html += "<h4>Tier: " + fmtNum(res) + " s bins, " +
                    fmtNum(tier.at("capacity").number()) +
                    " retained (" + std::to_string(rows.size()) +
                    " filled)</h4>\n";
            if (rows.empty()) {
                html += "<p class=\"muted\">No bins in this tier "
                        "yet.</p>\n";
                continue;
            }
            html += "<table>\n" + tableRow({"channel", "min", "max",
                                            "last mean",
                                            "mean sparkline"},
                                           true);
            for (std::size_t c = 0; c < channels.size(); ++c) {
                std::vector<double> ts;
                std::vector<double> means;
                double lo = 0.0;
                double hi = 0.0;
                bool any = false;
                for (const auto &row_json : rows) {
                    // Row: [t, samples, min0, mean0, max0, min1, ...].
                    const auto &row = row_json.array();
                    ts.push_back(row[0].number());
                    const double mn = row[2 + c * 3 + 0].number();
                    const double mean = row[2 + c * 3 + 1].number();
                    const double mx = row[2 + c * 3 + 2].number();
                    means.push_back(mean);
                    if (!std::isfinite(mn) || !std::isfinite(mx))
                        continue;
                    lo = any ? std::min(lo, mn) : mn;
                    hi = any ? std::max(hi, mx) : mx;
                    any = true;
                }
                html += tableRow(
                    {htmlEscape(channels[c].str()),
                     any ? fmtNum(lo) : std::string("&mdash;"),
                     any ? fmtNum(hi) : std::string("&mdash;"),
                     fmtNum(means.back()), sparkline(ts, means)});
            }
            html += "</table>\n";
        }
    }
    if (points.empty())
        html += "<p class=\"muted\">Document has no points.</p>\n";
    return html;
}

/**
 * Run @p build and return its HTML; on FatalError (missing file, parse
 * failure, schema mismatch) return a muted message paragraph instead
 * and warn on stderr — stale artifacts degrade, they don't crash the
 * report.
 */
template <typename Fn>
std::string
gracefulSection(const std::string &what, Fn &&build)
{
    try {
        return build();
    } catch (const Error &err) {
        std::cerr << "imsim_report: warning: " << what
                  << " section skipped: " << err.what() << "\n";
        return "<p class=\"muted\">Could not render " +
               htmlEscape(what) + ": " +
               htmlEscape(err.what()) + "</p>\n";
    }
}

const char *kUsage =
    "usage: imsim_report --report run.json [--telemetry run.csv]\n"
    "                    [--incidents incidents.json]\n"
    "                    [--blackbox blackbox.json]\n"
    "                    [--profile prof.json] [--bench bench.json]\n"
    "                    [--out report.html] [--title STRING]\n";

const char *kStyle =
    "body{font-family:system-ui,sans-serif;margin:2em auto;"
    "max-width:72em;padding:0 1em;color:#1b1b1b}"
    "h1{border-bottom:2px solid #2a6f97;padding-bottom:.2em}"
    "h2{margin-top:1.6em;color:#2a6f97}"
    "table{border-collapse:collapse;margin:.5em 0}"
    "th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left;"
    "font-variant-numeric:tabular-nums}"
    "th{background:#eef4f8}"
    "table.kv td:first-child{font-weight:600;background:#f7f7f7}"
    ".muted{color:#777}"
    ".spark{vertical-align:middle;background:#fafcfe;"
    "border:1px solid #e5e5e5}"
    ".timeline{background:#fafcfe;border:1px solid #e5e5e5;"
    "margin:.3em 0}"
    ".axis{font-size:11px;fill:#777}"
    ".bar{display:flex;width:16em;height:.9em;background:#f0f0f0}"
    ".bar .queue{background:#c9b458}"
    ".bar .wall{background:#2a6f97}";

} // namespace

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const std::string report_path = cli.get("--report");
    if (report_path.empty()) {
        std::cerr << kUsage;
        return 2;
    }
    const std::string telemetry_path = cli.get("--telemetry");
    const std::string incidents_path = cli.get("--incidents");
    const std::string blackbox_path = cli.get("--blackbox");
    const std::string profile_path = cli.get("--profile");
    const std::string bench_path = cli.get("--bench");
    const std::string out_path = cli.get("--out", "report.html");

    // The report is the page's backbone: unreadable or wrong-schema
    // means no page, but still a message rather than a crash.
    exp::RunReport report;
    try {
        report = exp::RunReport::fromJson(slurp(report_path));
    } catch (const FatalError &err) {
        std::cerr << "imsim_report: cannot load " << report_path << ": "
                  << err.what() << "\n";
        return 1;
    }
    const std::string title =
        cli.get("--title", report.name().empty() ? "ImmerSim run"
                                                 : report.name());

    std::string html = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
                       "<meta charset=\"utf-8\">\n<title>" +
                       htmlEscape(title) +
                       "</title>\n<style>" + kStyle +
                       "</style>\n</head>\n<body>\n";
    html += "<h1>" + htmlEscape(title) + "</h1>\n";

    html += "<h2>Provenance</h2>\n" + manifestSection(report);
    html += "<h2>Results (" + std::to_string(report.records().size()) +
            " sweep points)</h2>\n" + resultsSection(report);
    // Control reports (bench_control) get the latency/cost trade-off
    // plotted; detection is by report name so other sweeps that happen
    // to share metric names are left alone.
    if (report.name() == "control")
        html += "<h2>Latency/cost Pareto front</h2>\n" +
                gracefulSection("pareto", [&] {
                    return paretoSection(report);
                });
    if (report.hasTiming())
        html += "<h2>Wall-clock timing</h2>\n" + timingSection(report);

    if (!telemetry_path.empty()) {
        html += "<h2>Telemetry</h2>\n" +
                gracefulSection("telemetry", [&] {
                    const std::string text = slurp(telemetry_path);
                    // First `# schema:` comment line, when present,
                    // must name the schema this build reads; pre-schema
                    // artifacts (no stamp) still parse.
                    const std::string stamp = "# schema: ";
                    if (text.compare(0, stamp.size(), stamp) == 0) {
                        const std::size_t eol = text.find('\n');
                        const std::string schema = text.substr(
                            stamp.size(),
                            eol - stamp.size());
                        util::fatalIf(
                            schema != obs::kTelemetrySchema,
                            "unsupported telemetry schema '" + schema +
                                "' (this build reads " +
                                std::string(obs::kTelemetrySchema) +
                                ")");
                    }
                    std::istringstream in(text);
                    const auto series = obs::parseTelemetryCsv(in);
                    return "<p>" + std::to_string(series.size()) +
                           " series.</p>\n" + telemetrySection(series);
                });
    }
    if (!incidents_path.empty()) {
        html += "<h2>Incident timelines</h2>\n" +
                gracefulSection("incidents", [&] {
                    const util::Json doc =
                        util::Json::parse(slurp(incidents_path));
                    return incidentsSection(doc);
                });
    }
    if (!blackbox_path.empty()) {
        html += "<h2>Flight recorder</h2>\n" +
                gracefulSection("blackbox", [&] {
                    const util::Json doc =
                        util::Json::parse(slurp(blackbox_path));
                    return blackboxSection(doc);
                });
    }
    if (!profile_path.empty()) {
        html += "<h2>Wall-clock profile</h2>\n" +
                gracefulSection("profile", [&] {
                    return profileSection(
                        obs::ProfileReport::fromJson(
                            slurp(profile_path)));
                });
    }
    if (!bench_path.empty()) {
        html += "<h2>Hot-path benchmarks</h2>\n" +
                gracefulSection("benchmarks", [&] {
                    return benchSection(
                        util::Json::parse(slurp(bench_path)));
                });
    }

    html += "<p class=\"muted\">Generated by imsim_report from " +
            htmlEscape(report_path) + ".</p>\n</body>\n</html>\n";

    std::ofstream out(out_path);
    util::fatalIf(!out, "imsim_report: cannot write " + out_path);
    out << html;
    out.close();
    std::cout << "Wrote " << out_path << " (" << html.size()
              << " bytes)\n";
    return 0;
}
