#include "obs/blackbox.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "util/json.hh"
#include "util/logging.hh"

namespace imsim {
namespace obs {

namespace {

/**
 * The process-wide post-mortem registry. Function-local statics so the
 * registry outlives any static-storage recorder; one mutex guards the
 * sink, the armed list, and dump serialization.
 */
struct PostMortemRegistry
{
    std::mutex mutex;
    std::string path;
    std::string meta;
    std::vector<std::pair<std::string, FlightRecorder *>> armed;
    std::uint64_t dumps = 0;
};

PostMortemRegistry &
postMortemRegistry()
{
    static PostMortemRegistry registry;
    return registry;
}

/** util::ErrorHook trampoline: dump the armed recorders on fatal(). */
void
errorHookTrampoline(const char *what, void *)
{
    FlightRecorder::postMortem(what);
}

} // namespace

const char *
blackboxEventKindName(BlackboxEventKind kind)
{
    switch (kind) {
      case BlackboxEventKind::AlertRaise:
        return "alert_raise";
      case BlackboxEventKind::AlertClear:
        return "alert_clear";
      case BlackboxEventKind::Fault:
        return "fault";
      case BlackboxEventKind::Violation:
        return "violation";
      case BlackboxEventKind::Note:
      default:
        return "note";
    }
}

FlightRecorder::Config
FlightRecorder::Config::forCadence(Seconds tick)
{
    util::fatalIf(tick <= 0.0,
                  "FlightRecorder::Config::forCadence: tick must be > 0");
    Config config;
    config.tiers = {{tick, 3600},
                    {10.0 * tick, 1440},
                    {60.0 * tick, 1440}};
    return config;
}

FlightRecorder::FlightRecorder(Config config) : cfg(std::move(config))
{
    util::fatalIf(cfg.tiers.empty(),
                  "FlightRecorder: need at least one retention tier");
    util::fatalIf(cfg.eventCapacity == 0,
                  "FlightRecorder: event capacity must be > 0");
    tiers.reserve(cfg.tiers.size());
    for (const Tier &tier : cfg.tiers) {
        util::fatalIf(tier.resolution <= 0.0,
                      "FlightRecorder: tier resolution must be > 0");
        util::fatalIf(tier.capacity == 0,
                      "FlightRecorder: tier capacity must be > 0");
        TierStore store;
        store.resolution = tier.resolution;
        store.capacity = tier.capacity;
        tiers.push_back(std::move(store));
    }
    eventRing.resize(cfg.eventCapacity);
}

FlightRecorder::~FlightRecorder()
{
    disarmPostMortem();
}

std::size_t
FlightRecorder::addChannel(std::string name,
                           std::function<double()> signal)
{
    std::lock_guard<std::mutex> lock(mutex);
    util::fatalIf(sealed,
                  "FlightRecorder::addChannel: channels are frozen "
                  "after the first tick");
    util::fatalIf(!signal,
                  "FlightRecorder::addChannel: channel needs a signal");
    channels.push_back(Channel{std::move(name), std::move(signal)});
    return channels.size() - 1;
}

/** Size every tier's flat ring for the frozen channel set. */
void
FlightRecorder::sizeStorageLocked()
{
    const std::size_t width = channels.size() * 3;
    for (TierStore &tier : tiers) {
        tier.startT.assign(tier.capacity, 0.0);
        tier.samples.assign(tier.capacity, 0);
        tier.stats.assign(tier.capacity * width, 0.0);
    }
    sampleScratch.assign(channels.size(), 0.0);
    sealed = true;
}

/** Fold the current sampleScratch into @p tier's bin covering @p t. */
void
FlightRecorder::foldLocked(TierStore &tier, Seconds t)
{
    const std::size_t width = channels.size() * 3;
    const auto bin = static_cast<std::int64_t>(
        std::floor(t / tier.resolution + 1e-9));
    if (tier.rows == 0 || bin != tier.backBin) {
        if (tier.rows == tier.capacity) {
            // Ring full: the oldest bin falls off the back of the
            // retention window.
            tier.head = (tier.head + 1) % tier.capacity;
            --tier.rows;
        }
        const std::size_t slot = (tier.head + tier.rows) % tier.capacity;
        tier.startT[slot] =
            static_cast<double>(bin) * tier.resolution;
        tier.samples[slot] = 0;
        double *stats = tier.stats.data() + slot * width;
        for (std::size_t c = 0; c < channels.size(); ++c) {
            stats[c * 3 + 0] = std::numeric_limits<double>::infinity();
            stats[c * 3 + 1] = -std::numeric_limits<double>::infinity();
            stats[c * 3 + 2] = 0.0;
        }
        ++tier.rows;
        tier.backBin = bin;
    }
    const std::size_t slot =
        (tier.head + tier.rows - 1) % tier.capacity;
    ++tier.samples[slot];
    double *stats = tier.stats.data() + slot * width;
    for (std::size_t c = 0; c < channels.size(); ++c) {
        const double v = sampleScratch[c];
        stats[c * 3 + 0] = std::min(stats[c * 3 + 0], v);
        stats[c * 3 + 1] = std::max(stats[c * 3 + 1], v);
        stats[c * 3 + 2] += v;
    }
}

void
FlightRecorder::tick(Seconds t)
{
    std::lock_guard<std::mutex> lock(mutex);
    util::fatalIf(sealed && tickCount > 0 && t < lastTick,
                  "FlightRecorder::tick: time went backwards");
    if (!sealed)
        sizeStorageLocked();
    // Poll every channel once, then fold the same sample vector into
    // each tier — a bin's mean/min/max never mixes two polls of one
    // instant.
    for (std::size_t c = 0; c < channels.size(); ++c)
        sampleScratch[c] = channels[c].signal();
    for (TierStore &tier : tiers)
        foldLocked(tier, t);
    lastTick = t;
    ++tickCount;
}

void
FlightRecorder::pushEventLocked(Seconds t, BlackboxEventKind kind,
                                double value, const std::string &label)
{
    const std::size_t slot = (eventHead + eventLive) % eventRing.size();
    if (eventLive == eventRing.size())
        eventHead = (eventHead + 1) % eventRing.size();
    else
        ++eventLive;
    BlackboxEvent &event = eventRing[slot];
    event.t = t;
    event.kind = kind;
    event.value = value;
    event.label = label;
    ++eventTotal;
}

void
FlightRecorder::noteAlert(Seconds t, const std::string &rule,
                          double value, bool raised)
{
    std::lock_guard<std::mutex> lock(mutex);
    pushEventLocked(t,
                    raised ? BlackboxEventKind::AlertRaise
                           : BlackboxEventKind::AlertClear,
                    value, rule);
}

void
FlightRecorder::noteFault(Seconds t, const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex);
    pushEventLocked(t, BlackboxEventKind::Fault, 0.0, label);
}

void
FlightRecorder::noteViolation(Seconds t, const std::string &check)
{
    std::lock_guard<std::mutex> lock(mutex);
    pushEventLocked(t, BlackboxEventKind::Violation, 0.0, check);
}

void
FlightRecorder::note(Seconds t, const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex);
    pushEventLocked(t, BlackboxEventKind::Note, 0.0, label);
}

void
FlightRecorder::page(Seconds t, const std::string &rule, double value,
                     bool raised)
{
    noteAlert(t, rule, value, raised);
    if (raised && armed())
        postMortem("watchdog page: " + rule);
}

void
FlightRecorder::violation(Seconds t, const std::string &check)
{
    noteViolation(t, check);
    if (armed())
        postMortem("invariant violation: " + check);
}

void
FlightRecorder::armPostMortem(std::string label)
{
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (auto &entry : registry.armed) {
        if (entry.second == this) {
            entry.first = std::move(label);
            return;
        }
    }
    registry.armed.emplace_back(std::move(label), this);
}

void
FlightRecorder::disarmPostMortem()
{
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto &armed = registry.armed;
    armed.erase(std::remove_if(armed.begin(), armed.end(),
                               [this](const auto &entry) {
                                   return entry.second == this;
                               }),
                armed.end());
}

bool
FlightRecorder::armed() const
{
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto &entry : registry.armed) {
        if (entry.second == this)
            return true;
    }
    return false;
}

void
FlightRecorder::setPostMortemSink(std::string path, std::string meta_json)
{
    util::fatalIf(path.empty(),
                  "FlightRecorder::setPostMortemSink: empty path");
    PostMortemRegistry &registry = postMortemRegistry();
    {
        std::lock_guard<std::mutex> lock(registry.mutex);
        registry.path = std::move(path);
        registry.meta = std::move(meta_json);
    }
    util::setErrorHook(&errorHookTrampoline, nullptr);
}

void
FlightRecorder::clearPostMortemSink()
{
    util::setErrorHook(nullptr, nullptr);
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.path.clear();
    registry.meta.clear();
}

std::string
FlightRecorder::postMortem(const std::string &reason)
{
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (registry.path.empty() || registry.armed.empty())
        return "";
    std::string doc = "{\n  \"schema\": \"";
    doc += kBlackboxSchema;
    doc += "\",\n  \"meta\": ";
    doc += registry.meta.empty() ? "{}" : registry.meta;
    // The trigger goes into the document, not the recorders' event
    // rings: recorders stay pure observers, so the explicit end-of-run
    // dump is byte-identical whether or not pages fired mid-run (and
    // at any sweep job count — trigger timing depends on scheduling).
    doc += ",\n  \"reason\": ";
    util::Json::appendEscaped(doc, reason);
    doc += ",\n  \"points\": [";
    for (std::size_t i = 0; i < registry.armed.size(); ++i) {
        FlightRecorder &recorder = *registry.armed[i].second;
        doc += i ? ",\n    " : "\n    ";
        doc += recorder.pointJson(registry.armed[i].first);
    }
    doc += registry.armed.empty() ? "]" : "\n  ]";
    doc += "\n}\n";
    // Best-effort: this runs inside fatal()/panic() paths, so a
    // failing write warns rather than raising a second error.
    std::ofstream out(registry.path);
    if (!out) {
        util::warn("FlightRecorder::postMortem: cannot open '" +
                   registry.path + "' for writing");
        return "";
    }
    out << doc;
    if (!out) {
        util::warn("FlightRecorder::postMortem: failed writing '" +
                   registry.path + "'");
        return "";
    }
    ++registry.dumps;
    return registry.path;
}

std::uint64_t
FlightRecorder::postMortemCount()
{
    PostMortemRegistry &registry = postMortemRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    return registry.dumps;
}

std::size_t
FlightRecorder::ticks() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return tickCount;
}

Seconds
FlightRecorder::tierResolution(std::size_t tier) const
{
    util::fatalIf(tier >= tiers.size(),
                  "FlightRecorder::tierResolution: tier out of range");
    return tiers[tier].resolution;
}

std::size_t
FlightRecorder::tierCapacity(std::size_t tier) const
{
    util::fatalIf(tier >= tiers.size(),
                  "FlightRecorder::tierCapacity: tier out of range");
    return tiers[tier].capacity;
}

std::size_t
FlightRecorder::tierRows(std::size_t tier) const
{
    util::fatalIf(tier >= tiers.size(),
                  "FlightRecorder::tierRows: tier out of range");
    std::lock_guard<std::mutex> lock(mutex);
    return tiers[tier].rows;
}

FlightRecorder::BinStats
FlightRecorder::bin(std::size_t tier, std::size_t row,
                    std::size_t channel) const
{
    util::fatalIf(tier >= tiers.size(),
                  "FlightRecorder::bin: tier out of range");
    util::fatalIf(channel >= channels.size(),
                  "FlightRecorder::bin: channel out of range");
    std::lock_guard<std::mutex> lock(mutex);
    const TierStore &store = tiers[tier];
    util::fatalIf(row >= store.rows,
                  "FlightRecorder::bin: row out of range");
    const std::size_t slot = (store.head + row) % store.capacity;
    const std::size_t width = channels.size() * 3;
    const double *stats = store.stats.data() + slot * width;
    BinStats out;
    out.t = store.startT[slot];
    out.samples = store.samples[slot];
    out.min = stats[channel * 3 + 0];
    out.max = stats[channel * 3 + 1];
    out.mean = out.samples
                   ? stats[channel * 3 + 2] /
                         static_cast<double>(out.samples)
                   : 0.0;
    return out;
}

std::vector<BlackboxEvent>
FlightRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<BlackboxEvent> out;
    out.reserve(eventLive);
    for (std::size_t i = 0; i < eventLive; ++i)
        out.push_back(eventRing[(eventHead + i) % eventRing.size()]);
    return out;
}

std::uint64_t
FlightRecorder::eventsNoted() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return eventTotal;
}

void
FlightRecorder::appendPointJsonLocked(std::string &out,
                                      const std::string &label) const
{
    out += "{\"label\": ";
    util::Json::appendEscaped(out, label);
    out += ",\n     \"ticks\": " + std::to_string(tickCount);
    out += ",\n     \"channels\": [";
    for (std::size_t c = 0; c < channels.size(); ++c) {
        if (c)
            out += ", ";
        util::Json::appendEscaped(out, channels[c].name);
    }
    out += "],\n     \"tiers\": [";
    const std::size_t width = channels.size() * 3;
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
        const TierStore &tier = tiers[ti];
        out += ti ? ",\n       " : "\n       ";
        out += "{\"resolution_s\": ";
        util::Json::appendNumber(out, tier.resolution, 12);
        out += ", \"capacity\": " + std::to_string(tier.capacity) +
               ", \"rows\": [";
        for (std::size_t r = 0; r < tier.rows; ++r) {
            const std::size_t slot = (tier.head + r) % tier.capacity;
            const double *stats = tier.stats.data() + slot * width;
            out += r ? ",\n         [" : "\n         [";
            util::Json::appendNumber(out, tier.startT[slot], 12);
            out += ", " + std::to_string(tier.samples[slot]);
            const auto n = static_cast<double>(tier.samples[slot]);
            for (std::size_t c = 0; c < channels.size(); ++c) {
                out += ", ";
                util::Json::appendNumber(out, stats[c * 3 + 0], 12);
                out += ", ";
                util::Json::appendNumber(
                    out, n > 0.0 ? stats[c * 3 + 2] / n : 0.0, 12);
                out += ", ";
                util::Json::appendNumber(out, stats[c * 3 + 1], 12);
            }
            out += "]";
        }
        out += tier.rows ? "\n       ]}" : "]}";
    }
    out += tiers.empty() ? "]" : "\n     ]";
    out += ",\n     \"events_noted\": " + std::to_string(eventTotal);
    out += ",\n     \"events\": [";
    for (std::size_t i = 0; i < eventLive; ++i) {
        const BlackboxEvent &event =
            eventRing[(eventHead + i) % eventRing.size()];
        out += i ? ",\n       {\"t_s\": " : "\n       {\"t_s\": ";
        util::Json::appendNumber(out, event.t, 12);
        out += ", \"kind\": \"";
        out += blackboxEventKindName(event.kind);
        out += "\", \"value\": ";
        util::Json::appendNumber(out, event.value, 12);
        out += ", \"label\": ";
        util::Json::appendEscaped(out, event.label);
        out += "}";
    }
    out += eventLive ? "\n     ]}" : "]}";
}

std::string
FlightRecorder::pointJson(const std::string &label) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::string out;
    appendPointJsonLocked(out, label);
    return out;
}

std::string
FlightRecorder::mergedJson(
    const std::vector<std::pair<std::string, const FlightRecorder *>>
        &points,
    const std::string &meta_json)
{
    std::string out = "{\n  \"schema\": \"";
    out += kBlackboxSchema;
    out += "\",\n  \"meta\": ";
    out += meta_json.empty() ? "{}" : meta_json;
    out += ",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        std::string point;
        {
            std::lock_guard<std::mutex> lock(points[i].second->mutex);
            points[i].second->appendPointJsonLocked(point,
                                                    points[i].first);
        }
        out += point;
    }
    out += points.empty() ? "]" : "\n  ]";
    out += "\n}\n";
    return out;
}

std::string
FlightRecorder::toJson(const std::string &label,
                       const std::string &meta_json) const
{
    return mergedJson({{label, this}}, meta_json);
}

void
FlightRecorder::writeJsonFile(const std::string &path,
                              const std::string &label,
                              const std::string &meta_json) const
{
    std::ofstream out(path);
    util::fatalIf(!out, "FlightRecorder::writeJsonFile: cannot open '" +
                            path + "' for writing");
    out << toJson(label, meta_json);
    util::fatalIf(!out, "FlightRecorder::writeJsonFile: failed "
                        "writing '" + path + "'");
}

FleetBlackbox::FleetBlackbox(FleetAggregator::Config agg_cfg,
                             FlightRecorder::Config rec_cfg,
                             double fire_power_w, double clear_power_w)
    : aggregator(std::move(agg_cfg)), recorder(std::move(rec_cfg))
{
    recorder.addChannel("fleet_power_w", [this] {
        return aggregator.latest().fleetPower;
    });
    recorder.addChannel("tj_max_c", [this] {
        return aggregator.latest().overall[kChanTj].max;
    });
    recorder.addChannel("tj_p99_c", [this] {
        return aggregator.latest().overall[kChanTj].p99;
    });
    recorder.addChannel("util_mean", [this] {
        return aggregator.latest().overall[kChanUtilization].mean;
    });
    recorder.addChannel("wear_rate_p99", [this] {
        return aggregator.latest().overall[kChanWearRate].p99;
    });
    recorder.addChannel("alerts_firing", [this] {
        return static_cast<double>(watchdog.firingCount());
    });

    WatchdogRule rule;
    rule.name = "fleet_power";
    rule.kind = AlertKind::Brownout;
    rule.signal = [this] { return aggregator.latest().fleetPower; };
    rule.fireThreshold = fire_power_w;
    rule.clearThreshold = clear_power_w;
    watchdog.addRule(rule);
    watchdog.attach({.recorder = &recorder});
}

} // namespace obs
} // namespace imsim
