#include "obs/incident.hh"

#include <string>
#include <utility>

#include "obs/trace.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace imsim {
namespace obs {

namespace {

void
appendFaultJson(std::string &out, const IncidentFault &fault)
{
    out += "{\"t_s\": ";
    util::Json::appendNumber(out, fault.t, 12);
    out += ", \"label\": ";
    util::Json::appendEscaped(out, fault.label);
    out += "}";
}

} // namespace

std::size_t
IncidentLog::open(Seconds t, AlertKind kind, const std::string &rule,
                  double value, double threshold)
{
    Incident incident;
    incident.id = records.size();
    incident.kind = kind;
    incident.rule = rule;
    incident.openedAt = t;
    incident.openValue = value;
    incident.peakValue = value;
    incident.threshold = threshold;
    // Adopt faults from the trailing lead window: the cause usually
    // precedes the alert that detects it.
    for (const IncidentFault &fault : faultLog) {
        if (fault.t >= t - lead && fault.t <= t)
            incident.faults.push_back(fault);
    }
    records.push_back(std::move(incident));
    return records.size() - 1;
}

void
IncidentLog::observeValue(std::size_t id, double value)
{
    util::fatalIf(id >= records.size(),
            "IncidentLog::observeValue: bad incident id");
    Incident &incident = records[id];
    const bool worse = incident.kind == AlertKind::FluidLevel
                           ? value < incident.peakValue
                           : value > incident.peakValue;
    if (worse)
        incident.peakValue = value;
}

void
IncidentLog::close(std::size_t id, Seconds t)
{
    util::fatalIf(id >= records.size(), "IncidentLog::close: bad incident id");
    util::fatalIf(!records[id].open(), "IncidentLog::close: already closed");
    records[id].closedAt = t;
}

void
IncidentLog::closeAll(Seconds t)
{
    for (Incident &incident : records) {
        if (incident.open())
            incident.closedAt = t;
    }
}

void
IncidentLog::noteFault(Seconds t, const std::string &label)
{
    faultLog.push_back(IncidentFault{t, label});
    for (Incident &incident : records) {
        if (incident.open())
            incident.faults.push_back(faultLog.back());
    }
}

std::size_t
IncidentLog::openCount() const
{
    std::size_t n = 0;
    for (const Incident &incident : records)
        n += incident.open() ? 1 : 0;
    return n;
}

void
IncidentLog::exportTrace(EventTracer &tracer, Seconds horizon) const
{
    for (const Incident &incident : records) {
        const Seconds end =
            incident.open() ? horizon : incident.closedAt;
        tracer.complete(incident.rule, "incident", incident.openedAt,
                        end);
    }
}

std::string
IncidentLog::pointJson(const std::string &label) const
{
    std::string out = "{\"label\": ";
    util::Json::appendEscaped(out, label);
    out += ",\n     \"incidents\": [";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Incident &incident = records[i];
        out += i ? ",\n       {\"id\": " : "\n       {\"id\": ";
        out += std::to_string(incident.id);
        out += ", \"kind\": \"";
        out += alertKindName(incident.kind);
        out += "\", \"rule\": ";
        util::Json::appendEscaped(out, incident.rule);
        const std::pair<const char *, double> numbers[] = {
            {"opened_s", incident.openedAt},
            {"closed_s", incident.closedAt},
            {"open_value", incident.openValue},
            {"peak_value", incident.peakValue},
            {"threshold", incident.threshold},
        };
        for (const auto &[key, value] : numbers) {
            out += ", \"";
            out += key;
            out += "\": ";
            util::Json::appendNumber(out, value, 12);
        }
        out += ", \"faults\": [";
        for (std::size_t j = 0; j < incident.faults.size(); ++j) {
            if (j)
                out += ", ";
            appendFaultJson(out, incident.faults[j]);
        }
        out += "]}";
    }
    out += records.empty() ? "]" : "\n     ]";
    out += ",\n     \"faults\": [";
    for (std::size_t i = 0; i < faultLog.size(); ++i) {
        if (i)
            out += ", ";
        appendFaultJson(out, faultLog[i]);
    }
    out += "]}";
    return out;
}

std::string
IncidentLog::mergedJson(
    const std::vector<std::pair<std::string, const IncidentLog *>>
        &points,
    const std::string &meta_json)
{
    std::string out = "{\n  \"schema\": \"";
    out += kIncidentSchema;
    out += "\",\n  \"meta\": ";
    out += meta_json.empty() ? "{}" : meta_json;
    out += ",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += points[i].second->pointJson(points[i].first);
    }
    out += points.empty() ? "]" : "\n  ]";
    out += "\n}\n";
    return out;
}

std::string
IncidentLog::toJson(const std::string &label,
                    const std::string &meta_json) const
{
    return mergedJson({{label, this}}, meta_json);
}

} // namespace obs
} // namespace imsim
