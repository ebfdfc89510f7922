#include "obs/trace.hh"

#include <fstream>
#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace imsim {
namespace obs {

void
EventTracer::enable(Clock clock_in)
{
    util::fatalIf(!clock_in, "EventTracer::enable: need a clock");
    clock = std::move(clock_in);
    on = true;
}

void
EventTracer::complete(const std::string &name, const std::string &cat,
                      Seconds begin, Seconds end)
{
    if (!on)
        return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'X';
    ev.tsUs = begin * 1e6;
    ev.durUs = (end - begin) * 1e6;
    log.push_back(std::move(ev));
}

void
EventTracer::instant(const std::string &name, const std::string &cat)
{
    if (!on)
        return;
    instantAt(name, cat, clock());
}

void
EventTracer::instantAt(const std::string &name, const std::string &cat,
                       Seconds t,
                       std::vector<std::pair<std::string, double>> args)
{
    if (!on)
        return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'i';
    ev.tsUs = t * 1e6;
    ev.args = std::move(args);
    log.push_back(std::move(ev));
}

void
EventTracer::counter(const std::string &name, double value)
{
    if (!on)
        return;
    counterAt(name, clock(), value);
}

void
EventTracer::counterAt(const std::string &name, Seconds t, double value)
{
    if (!on)
        return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = "counter";
    ev.phase = 'C';
    ev.tsUs = t * 1e6;
    ev.args.emplace_back("value", value);
    log.push_back(std::move(ev));
}

void
EventTracer::nameTrack(std::uint32_t tid, const std::string &label)
{
    TraceEvent ev;
    ev.name = "thread_name";
    ev.phase = 'M';
    ev.tid = tid;
    ev.strArg = label;
    log.push_back(std::move(ev));
}

void
EventTracer::append(const EventTracer &other, std::uint32_t tid_override)
{
    for (TraceEvent ev : other.log) {
        ev.tid = tid_override;
        log.push_back(std::move(ev));
    }
}

std::string
EventTracer::toJson(const std::string &metadata_json) const
{
    std::string out =
        "{\"schema\": \"imsim.trace/1\",\n\"traceEvents\": [";
    for (std::size_t i = 0; i < log.size(); ++i) {
        const TraceEvent &ev = log[i];
        out += i ? ",\n  {" : "\n  {";
        out += "\"name\": ";
        util::Json::appendEscaped(out, ev.name);
        if (!ev.cat.empty()) {
            out += ", \"cat\": ";
            util::Json::appendEscaped(out, ev.cat);
        }
        out += ", \"ph\": \"";
        out += ev.phase;
        out += "\", \"pid\": 0, \"tid\": ";
        out += std::to_string(ev.tid);
        if (ev.phase != 'M') {
            out += ", \"ts\": ";
            util::Json::appendNumber(out, ev.tsUs, 12);
        }
        if (ev.phase == 'X') {
            out += ", \"dur\": ";
            util::Json::appendNumber(out, ev.durUs, 12);
        }
        if (ev.phase == 'i')
            out += ", \"s\": \"t\"";
        if (ev.phase == 'M') {
            out += ", \"args\": {\"name\": ";
            util::Json::appendEscaped(out, ev.strArg);
            out += "}";
        } else if (!ev.args.empty()) {
            out += ", \"args\": {";
            for (std::size_t j = 0; j < ev.args.size(); ++j) {
                if (j)
                    out += ", ";
                util::Json::appendEscaped(out, ev.args[j].first);
                out += ": ";
                util::Json::appendNumber(out, ev.args[j].second, 12);
            }
            out += "}";
        }
        out += "}";
    }
    out += log.empty() ? "]" : "\n]";
    if (!metadata_json.empty()) {
        out += ",\n\"metadata\": ";
        out += metadata_json;
    }
    out += "}\n";
    return out;
}

void
EventTracer::writeJson(std::ostream &os,
                       const std::string &metadata_json) const
{
    os << toJson(metadata_json);
}

void
EventTracer::writeJsonFile(const std::string &path,
                           const std::string &metadata_json) const
{
    std::ofstream out(path);
    util::fatalIf(!out, "EventTracer: cannot open '" + path +
                            "' for writing");
    writeJson(out, metadata_json);
    util::fatalIf(!out, "EventTracer: failed writing '" + path + "'");
}

} // namespace obs
} // namespace imsim
