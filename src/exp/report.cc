#include "exp/report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace imsim {
namespace exp {

void
MetricSet::set(const std::string &name, double value)
{
    for (auto &entry : values) {
        if (entry.first == name) {
            entry.second = value;
            return;
        }
    }
    values.emplace_back(name, value);
}

bool
MetricSet::has(const std::string &name) const
{
    for (const auto &entry : values)
        if (entry.first == name)
            return true;
    return false;
}

double
MetricSet::get(const std::string &name) const
{
    for (const auto &entry : values)
        if (entry.first == name)
            return entry.second;
    util::fatal("MetricSet: no metric named '" + name + "'");
}

void
RunReport::add(RunRecord record)
{
    points.push_back(std::move(record));
}

void
RunReport::setMeta(std::vector<std::pair<std::string, std::string>> meta)
{
    metaFields = std::move(meta);
}

void
RunReport::setTiming(RunTiming timing)
{
    runTiming = std::move(timing);
    timingSet = true;
}

namespace {

/** Union of names across records, in first-seen order. */
template <typename Entries, typename GetName>
void
collectNames(std::vector<std::string> &out, const Entries &entries,
             GetName get_name)
{
    for (const auto &entry : entries) {
        const std::string &name = get_name(entry);
        bool known = false;
        for (const auto &existing : out)
            if (existing == name) {
                known = true;
                break;
            }
        if (!known)
            out.push_back(name);
    }
}

/** %.17g, or null for a non-finite value (the readers take it as NaN). */
std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
appendEscaped(std::string &out, const std::string &s)
{
    util::Json::appendEscaped(out, s);
}

} // namespace

util::TableWriter
RunReport::toTable() const
{
    std::vector<std::string> param_names;
    std::vector<std::string> metric_names;
    for (const auto &record : points) {
        collectNames(param_names, record.params,
                     [](const auto &e) -> const std::string & {
                         return e.first;
                     });
        collectNames(metric_names, record.metrics.entries(),
                     [](const auto &e) -> const std::string & {
                         return e.first;
                     });
    }
    std::vector<std::string> header = param_names;
    header.insert(header.end(), metric_names.begin(), metric_names.end());
    util::TableWriter table(header);
    for (const auto &record : points) {
        std::vector<std::string> row;
        for (const auto &name : param_names) {
            std::string cell;
            for (const auto &param : record.params)
                if (param.first == name)
                    cell = param.second;
            row.push_back(cell);
        }
        for (const auto &name : metric_names)
            row.push_back(record.metrics.has(name)
                              ? util::fmt(record.metrics.get(name), 4)
                              : "");
        table.addRow(row);
    }
    return table;
}

std::string
RunReport::toJson() const
{
    std::string out = "{\n  \"schema\": \"imsim.report/1\",\n  \"name\": ";
    appendEscaped(out, reportName);
    if (hasMeta()) {
        out += ",\n  \"meta\": {";
        for (std::size_t i = 0; i < metaFields.size(); ++i) {
            if (i)
                out += ", ";
            appendEscaped(out, metaFields[i].first);
            out += ": ";
            appendEscaped(out, metaFields[i].second);
        }
        out += "}";
    }
    if (hasTiming()) {
        out += ",\n  \"timing\": {\"total_wall_ms\": ";
        out += formatNumber(runTiming.totalWallMs);
        out += ", \"points\": [";
        for (std::size_t i = 0; i < runTiming.points.size(); ++i) {
            const PointTiming &pt = runTiming.points[i];
            out += i ? ",\n    {" : "\n    {";
            out += "\"index\": " + std::to_string(pt.index);
            out += ", \"queue_ms\": " + formatNumber(pt.queueMs);
            out += ", \"wall_ms\": " + formatNumber(pt.wallMs);
            out += ", \"worker\": " + std::to_string(pt.worker) + "}";
        }
        out += runTiming.points.empty() ? "]}" : "\n  ]}";
    }
    out += ",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &record = points[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"params\": {";
        for (std::size_t j = 0; j < record.params.size(); ++j) {
            if (j)
                out += ", ";
            appendEscaped(out, record.params[j].first);
            out += ": ";
            appendEscaped(out, record.params[j].second);
        }
        out += "}, \"metrics\": {";
        const auto &metrics = record.metrics.entries();
        for (std::size_t j = 0; j < metrics.size(); ++j) {
            if (j)
                out += ", ";
            appendEscaped(out, metrics[j].first);
            out += ": ";
            out += formatNumber(metrics[j].second);
        }
        out += "}}";
    }
    out += points.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

RunReport
RunReport::fromJson(const std::string &json)
{
    const util::Json doc = util::Json::parse(json);
    util::fatalIf(!doc.isObject(),
                  "RunReport::fromJson: document is not an object");
    // Reports written before the schema stamp have no "schema" member;
    // accept those, but refuse anything stamped with a different (i.e.
    // newer) schema rather than misparse it.
    if (const util::Json *schema = doc.find("schema")) {
        util::fatalIf(schema->str() != "imsim.report/1",
                      "RunReport::fromJson: unsupported schema '" +
                          schema->str() +
                          "' (this build reads imsim.report/1)");
    }
    RunReport report(doc.at("name").str());
    if (const util::Json *meta = doc.find("meta")) {
        std::vector<std::pair<std::string, std::string>> fields;
        for (const auto &member : meta->object())
            fields.emplace_back(member.first, member.second.str());
        report.setMeta(std::move(fields));
    }
    if (const util::Json *timing = doc.find("timing")) {
        RunTiming parsed;
        parsed.totalWallMs = timing->at("total_wall_ms").number();
        for (const auto &row : timing->at("points").array()) {
            PointTiming pt;
            pt.index = row.at("index").unsignedInteger();
            pt.queueMs = row.at("queue_ms").number();
            pt.wallMs = row.at("wall_ms").number();
            pt.worker = static_cast<int>(row.at("worker").unsignedInteger(
                std::numeric_limits<int>::max()));
            parsed.points.push_back(pt);
        }
        report.setTiming(std::move(parsed));
    }
    for (const auto &point : doc.at("points").array()) {
        RunRecord record;
        for (const auto &param : point.at("params").object())
            record.params.emplace_back(param.first, param.second.str());
        for (const auto &metric : point.at("metrics").object())
            record.metrics.set(metric.first, metric.second.number());
        report.add(std::move(record));
    }
    return report;
}

void
RunReport::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    util::fatalIf(!out, "RunReport: cannot open '" + path +
                            "' for writing");
    out << toJson();
    util::fatalIf(!out, "RunReport: failed writing '" + path + "'");
}

} // namespace exp
} // namespace imsim
