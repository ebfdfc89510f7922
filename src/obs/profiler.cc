#include "obs/profiler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace imsim {
namespace obs {

std::atomic<bool> Profiler::enabledFlag{false};

namespace {

/**
 * Registry of every thread's log. Entries are shared_ptrs so a dump
 * after a worker thread has exited (the usual bench flow: sweep joins
 * its pool, then main dumps) still sees that thread's data.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<Profiler::ThreadLog>> logs;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

/** %.6g, or null for a non-finite value (fromJson takes it as NaN). */
std::string
formatMs(double ms)
{
    if (!std::isfinite(ms))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", ms);
    return buf;
}

} // namespace

Profiler::ThreadLog::ThreadLog()
{
    nodes.emplace_back(); // Node 0: the implicit root.
}

Profiler::ThreadLog &
Profiler::threadLog()
{
    thread_local std::shared_ptr<ThreadLog> local = [] {
        auto log = std::make_shared<ThreadLog>();
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.logs.push_back(log);
        return log;
    }();
    return *local;
}

void
Profiler::setEnabled(bool on)
{
    enabledFlag.store(on, std::memory_order_relaxed);
}

void
Profiler::reset()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto &log : reg.logs) {
        log->nodes.clear();
        log->nodes.emplace_back();
        log->current = 0;
    }
}

ProfileReport
Profiler::report()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    ProfileReport out;
    for (const auto &log : reg.logs) {
        // Walk the tree depth-first, building each node's full path
        // and charging child time against the parent's self time.
        struct Frame
        {
            int node;
            std::string path;
        };
        std::vector<Frame> stack;
        for (int child : log->nodes[0].children)
            stack.push_back({child, log->nodes[child].name});
        while (!stack.empty()) {
            const Frame frame = stack.back();
            stack.pop_back();
            const Node &node = log->nodes[frame.node];
            std::uint64_t child_ns = 0;
            for (int child : node.children) {
                child_ns += log->nodes[child].totalNs;
                stack.push_back(
                    {child, frame.path + "/" + log->nodes[child].name});
            }
            ProfileEntry entry;
            entry.path = frame.path;
            entry.count = node.count;
            entry.totalMs = static_cast<double>(node.totalNs) * 1e-6;
            entry.selfMs =
                static_cast<double>(node.totalNs -
                                    std::min(child_ns, node.totalNs)) *
                1e-6;
            out.add(std::move(entry));
        }
    }
    return out;
}

void
ProfScope::open(const char *name)
{
    Profiler::ThreadLog &tl = Profiler::threadLog();
    const int parent = tl.current;
    int found = -1;
    for (int child : tl.nodes[parent].children) {
        const char *child_name = tl.nodes[child].name;
        if (child_name == name || std::strcmp(child_name, name) == 0) {
            found = child;
            break;
        }
    }
    if (found < 0) {
        found = static_cast<int>(tl.nodes.size());
        Profiler::Node fresh;
        fresh.name = name;
        fresh.parent = parent;
        tl.nodes.push_back(fresh);
        tl.nodes[parent].children.push_back(found);
    }
    tl.current = found;
    log = &tl;
    node = found;
    begin = std::chrono::steady_clock::now();
}

void
ProfScope::close()
{
    const auto end = std::chrono::steady_clock::now();
    Profiler::Node &n = log->nodes[node];
    n.count += 1;
    n.totalNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
    log->current = n.parent;
}

void
ProfileReport::add(ProfileEntry entry)
{
    for (auto &row : rows) {
        if (row.path == entry.path) {
            row.count += entry.count;
            row.totalMs += entry.totalMs;
            row.selfMs += entry.selfMs;
            return;
        }
    }
    rows.push_back(std::move(entry));
    sortByPath();
}

void
ProfileReport::merge(const ProfileReport &other)
{
    for (const auto &row : other.rows)
        add(row);
}

void
ProfileReport::sortByPath()
{
    std::sort(rows.begin(), rows.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  return a.path < b.path;
              });
}

util::TableWriter
ProfileReport::toTable() const
{
    double total_self = 0.0;
    for (const auto &row : rows)
        total_self += row.selfMs;
    std::vector<const ProfileEntry *> by_self;
    by_self.reserve(rows.size());
    for (const auto &row : rows)
        by_self.push_back(&row);
    std::sort(by_self.begin(), by_self.end(),
              [](const ProfileEntry *a, const ProfileEntry *b) {
                  if (a->selfMs != b->selfMs)
                      return a->selfMs > b->selfMs;
                  return a->path < b->path;
              });
    util::TableWriter table(
        {"Scope path", "Count", "Total [ms]", "Self [ms]", "Self %"});
    for (const ProfileEntry *row : by_self) {
        table.addRow({row->path, util::fmt(row->count, 0),
                      util::fmt(row->totalMs, 3),
                      util::fmt(row->selfMs, 3),
                      total_self > 0.0
                          ? util::fmt(row->selfMs / total_self * 100.0, 1)
                          : "0.0"});
    }
    return table;
}

std::string
ProfileReport::toJson(const std::string &meta_json) const
{
    std::string out = "{\n  \"schema\": \"imsim.profile/1\",\n";
    if (!meta_json.empty()) {
        out += "  \"meta\": ";
        out += meta_json;
        out += ",\n";
    }
    out += "  \"scopes\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"path\": ";
        util::Json::appendEscaped(out, row.path);
        out += ", \"count\": " + std::to_string(row.count);
        out += ", \"total_ms\": " + formatMs(row.totalMs);
        out += ", \"self_ms\": " + formatMs(row.selfMs) + "}";
    }
    out += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

ProfileReport
ProfileReport::fromJson(const std::string &json)
{
    const util::Json doc = util::Json::parse(json);
    util::fatalIf(!doc.isObject() || !doc.has("schema") ||
                      doc.at("schema").str() != "imsim.profile/1",
                  "ProfileReport: not an imsim.profile/1 document");
    ProfileReport out;
    for (const auto &scope : doc.at("scopes").array()) {
        ProfileEntry entry;
        entry.path = scope.at("path").str();
        entry.count = scope.at("count").unsignedInteger();
        entry.totalMs = scope.at("total_ms").number();
        entry.selfMs = scope.at("self_ms").number();
        out.add(std::move(entry));
    }
    return out;
}

void
ProfileReport::writeJsonFile(const std::string &path,
                             const std::string &meta_json) const
{
    std::ofstream out(path);
    util::fatalIf(!out, "ProfileReport: cannot open '" + path +
                            "' for writing");
    out << toJson(meta_json);
    util::fatalIf(!out, "ProfileReport: failed writing '" + path + "'");
}

} // namespace obs
} // namespace imsim
