/**
 * @file
 * Black-box flight recorder (obs::FlightRecorder): multi-resolution
 * retention semantics, the bounded event ring, dump determinism across
 * sweep jobs and sim threads, observer purity against the datacenter
 * minute loop, and every post-mortem trigger (error hook, watchdog
 * page, invariant violation). The DumpWhileRecording case is the
 * `ctest -L tsan` race probe: one thread ticking while another dumps.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "cluster/datacenter.hh"
#include "fault/invariants.hh"
#include "obs/blackbox.hh"
#include "obs/watchdog.hh"
#include "exp/sweep.hh"
#include "sim/simulation.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace imsim;

namespace {

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// A recorder over one externally driven channel with a small
/// two-tier ladder, for retention tests.
struct Probe
{
    double value = 0.0;
    obs::FlightRecorder recorder;

    explicit Probe(obs::FlightRecorder::Config config)
        : recorder(std::move(config))
    {
        recorder.addChannel("probe", [this] { return value; });
    }
};

TEST(FlightRecorder, FoldsTicksIntoBinsWithMinMeanMax)
{
    obs::FlightRecorder::Config config;
    config.tiers = {{1.0, 8}, {4.0, 4}};
    Probe probe(config);
    // Four ticks per 4 s bin: values 1, 3, 5, 7.
    for (int i = 0; i < 8; ++i) {
        probe.value = 1.0 + 2.0 * (i % 4);
        probe.recorder.tick(static_cast<double>(i));
    }
    ASSERT_EQ(probe.recorder.ticks(), 8u);
    // Fine tier: one sample per bin, min == mean == max.
    ASSERT_EQ(probe.recorder.tierRows(0), 8u);
    const auto fine = probe.recorder.bin(0, 3, 0);
    EXPECT_DOUBLE_EQ(fine.t, 3.0);
    EXPECT_EQ(fine.samples, 1u);
    EXPECT_DOUBLE_EQ(fine.min, 7.0);
    EXPECT_DOUBLE_EQ(fine.mean, 7.0);
    EXPECT_DOUBLE_EQ(fine.max, 7.0);
    // Coarse tier: 4 samples folded into each of two bins.
    ASSERT_EQ(probe.recorder.tierRows(1), 2u);
    const auto coarse = probe.recorder.bin(1, 0, 0);
    EXPECT_DOUBLE_EQ(coarse.t, 0.0);
    EXPECT_EQ(coarse.samples, 4u);
    EXPECT_DOUBLE_EQ(coarse.min, 1.0);
    EXPECT_DOUBLE_EQ(coarse.mean, 4.0);
    EXPECT_DOUBLE_EQ(coarse.max, 7.0);
}

TEST(FlightRecorder, RingEvictsOldestBinsInPlace)
{
    obs::FlightRecorder::Config config;
    config.tiers = {{1.0, 4}};
    Probe probe(config);
    for (int i = 0; i < 10; ++i) {
        probe.value = static_cast<double>(i);
        probe.recorder.tick(static_cast<double>(i));
    }
    // Capacity 4: only the last four 1 s bins survive, oldest first.
    ASSERT_EQ(probe.recorder.tierRows(0), 4u);
    for (std::size_t row = 0; row < 4; ++row) {
        const auto bin = probe.recorder.bin(0, row, 0);
        EXPECT_DOUBLE_EQ(bin.t, 6.0 + static_cast<double>(row));
        EXPECT_DOUBLE_EQ(bin.mean, 6.0 + static_cast<double>(row));
    }
}

TEST(FlightRecorder, SparseTicksSkipEmptyBins)
{
    obs::FlightRecorder::Config config;
    config.tiers = {{1.0, 8}};
    Probe probe(config);
    probe.value = 2.0;
    probe.recorder.tick(0.0);
    probe.value = 9.0;
    probe.recorder.tick(5.0); // 4 empty bins in between: not stored.
    ASSERT_EQ(probe.recorder.tierRows(0), 2u);
    EXPECT_DOUBLE_EQ(probe.recorder.bin(0, 0, 0).t, 0.0);
    EXPECT_DOUBLE_EQ(probe.recorder.bin(0, 1, 0).t, 5.0);
    EXPECT_DOUBLE_EQ(probe.recorder.bin(0, 1, 0).mean, 9.0);
}

TEST(FlightRecorder, GuardsChannelSealAndTimeDirection)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.recorder.tick(0.0);
    EXPECT_THROW(probe.recorder.addChannel("late", [] { return 0.0; }),
                 FatalError);
    EXPECT_THROW(probe.recorder.tick(-1.0), FatalError);
}

TEST(FlightRecorder, ForCadenceScalesTheDefaultLadder)
{
    const auto config = obs::FlightRecorder::Config::forCadence(1.0);
    ASSERT_EQ(config.tiers.size(), 3u);
    EXPECT_DOUBLE_EQ(config.tiers[0].resolution, 1.0);
    EXPECT_EQ(config.tiers[0].capacity, 3600u);
    EXPECT_DOUBLE_EQ(config.tiers[1].resolution, 10.0);
    EXPECT_DOUBLE_EQ(config.tiers[2].resolution, 60.0);
}

TEST(FlightRecorder, EventRingIsBoundedOldestFirst)
{
    obs::FlightRecorder::Config config;
    config.eventCapacity = 4;
    obs::FlightRecorder recorder(config);
    for (int i = 0; i < 7; ++i)
        recorder.note(static_cast<double>(i),
                      "note" + std::to_string(i));
    EXPECT_EQ(recorder.eventsNoted(), 7u);
    const auto events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().label, "note3");
    EXPECT_EQ(events.back().label, "note6");
    EXPECT_EQ(events.front().kind, obs::BlackboxEventKind::Note);
}

TEST(FlightRecorder, AlertFaultViolationEventsKeepTheirKind)
{
    obs::FlightRecorder recorder;
    recorder.noteAlert(1.0, "sla_p99", 0.9, true);
    recorder.noteFault(2.0, "server_down#3");
    recorder.noteViolation(3.0, "power_cap");
    recorder.noteAlert(4.0, "sla_p99", 0.2, false);
    const auto events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, obs::BlackboxEventKind::AlertRaise);
    EXPECT_DOUBLE_EQ(events[0].value, 0.9);
    EXPECT_EQ(events[1].kind, obs::BlackboxEventKind::Fault);
    EXPECT_EQ(events[2].kind, obs::BlackboxEventKind::Violation);
    EXPECT_EQ(events[3].kind, obs::BlackboxEventKind::AlertClear);
    EXPECT_STREQ(obs::blackboxEventKindName(events[1].kind), "fault");
}

TEST(FlightRecorder, DumpCarriesSchemaTiersAndEvents)
{
    obs::FlightRecorder::Config config;
    config.tiers = {{1.0, 4}};
    Probe probe(config);
    probe.value = 2.5;
    probe.recorder.tick(0.0);
    probe.recorder.noteFault(0.5, "nic_flap");
    const std::string json = probe.recorder.toJson("unit", "{}");
    EXPECT_NE(json.find(obs::kBlackboxSchema), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"unit\""), std::string::npos);
    EXPECT_NE(json.find("\"resolution_s\": 1"), std::string::npos);
    EXPECT_NE(json.find("nic_flap"), std::string::npos);
    EXPECT_NE(json.find("\"probe\""), std::string::npos);
}

// A channel that reads NaN leaves its cells non-finite (the mean is
// NaN; min and max keep their infinite seeds). The dump writes them as
// null, so it stays valid JSON and the cells read back as NaN.
TEST(FlightRecorder, NaNChannelDumpParsesWithNullCells)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.value = std::numeric_limits<double>::quiet_NaN();
    probe.recorder.tick(0.0);
    probe.recorder.tick(60.0);
    const util::Json doc = util::Json::parse(probe.recorder.toJson());
    std::size_t cells = 0;
    for (const util::Json &tier : doc.at("points").at(0).at("tiers").array()) {
        for (const util::Json &row : tier.at("rows").array()) {
            ASSERT_EQ(row.size(), 5u); // start, samples, min, mean, max.
            EXPECT_TRUE(std::isfinite(row.at(std::size_t{0}).number()));
            for (std::size_t c = 2; c < 5; ++c) {
                EXPECT_TRUE(row.at(c).isNull());
                EXPECT_TRUE(std::isnan(row.at(c).number()));
                ++cells;
            }
        }
    }
    EXPECT_GT(cells, 0u);
}

/// Runs one deterministic recording per sweep point and returns the
/// merged dump (fixed meta, so the whole string must be stable).
std::string
sweepDump(std::size_t jobs)
{
    exp::SweepRunner runner({jobs, 42, nullptr});
    constexpr std::size_t kPoints = 6;
    std::vector<std::unique_ptr<Probe>> probes;
    for (std::size_t i = 0; i < kPoints; ++i) {
        obs::FlightRecorder::Config config;
        config.tiers = {{1.0, 16}, {8.0, 8}};
        probes.push_back(std::make_unique<Probe>(config));
    }
    runner.map<int>(kPoints, [&](std::size_t i, util::Rng &) {
        util::Rng rng(1000 + i); // Point-local stream.
        Probe &probe = *probes[i];
        for (int t = 0; t < 40; ++t) {
            probe.value = rng.uniform(0.0, 100.0);
            probe.recorder.tick(static_cast<double>(t));
            if (t % 13 == 0)
                probe.recorder.note(static_cast<double>(t), "mark");
        }
        return 0;
    });
    std::vector<std::pair<std::string, const obs::FlightRecorder *>>
        points;
    for (std::size_t i = 0; i < kPoints; ++i) {
        std::string label = "p";
        label += std::to_string(i);
        points.emplace_back(std::move(label), &probes[i]->recorder);
    }
    return obs::FlightRecorder::mergedJson(points, "{}");
}

TEST(FlightRecorder, MergedDumpIsIdenticalAcrossSweepJobs)
{
    EXPECT_EQ(sweepDump(1), sweepDump(8));
}

/// One short oversubscribed datacenter run with a FleetBlackbox
/// attached; returns the outcome and the recorder dump.
std::pair<cluster::DatacenterOutcome, std::string>
observedRun(std::size_t sim_threads, bool attach)
{
    cluster::RackConfig batch;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    cluster::DatacenterPowerSim sim({batch, batch, latency}, 40000.0,
                                    1.3, 1.2);
    sim.setSimThreads(sim_threads);
    obs::FleetAggregator::Config agg_cfg;
    agg_cfg.record = false;
    agg_cfg.cumulative = false;
    obs::FleetBlackbox box(agg_cfg, obs::FlightRecorder::Config{},
                           /*fire_power_w=*/0.98 * 40000.0,
                           /*clear_power_w=*/0.95 * 40000.0);
    if (attach)
        sim.attachObservability(&box.aggregator, &box.watchdog,
                                &box.recorder);
    util::Rng rng(7);
    const auto outcome =
        sim.run(cluster::OverclockPolicy::PowerAware, rng, 0.5);
    return {outcome, box.recorder.toJson("run", "{}")};
}

TEST(FlightRecorder, DumpIsIdenticalAcrossSimThreads)
{
    const auto serial = observedRun(1, true);
    const auto sharded = observedRun(8, true);
    EXPECT_EQ(serial.second, sharded.second);
    EXPECT_NE(serial.second.find("fleet_power_w"), std::string::npos);
}

TEST(FlightRecorder, AttachedRecorderDoesNotChangeTheRun)
{
    const auto bare = observedRun(4, false);
    const auto observed = observedRun(4, true);
    EXPECT_EQ(bare.first.energyMwh, observed.first.energyMwh);
    EXPECT_EQ(bare.first.meanFeedUtilization,
              observed.first.meanFeedUtilization);
    EXPECT_EQ(bare.first.cappingMinutesShare,
              observed.first.cappingMinutesShare);
    EXPECT_EQ(bare.first.speedupDelivered,
              observed.first.speedupDelivered);
    EXPECT_EQ(bare.first.overclockShare, observed.first.overclockShare);
}

/// RAII guard: arms a recorder into the process-wide post-mortem
/// registry with a sink file, and tears both down on scope exit.
struct SinkGuard
{
    std::string path;

    SinkGuard(obs::FlightRecorder &recorder, const std::string &name)
        : path(testing::TempDir() + name)
    {
        std::remove(path.c_str());
        recorder.armPostMortem("armed");
        obs::FlightRecorder::setPostMortemSink(path, "{}");
    }
    ~SinkGuard() { obs::FlightRecorder::clearPostMortemSink(); }
};

TEST(FlightRecorder, FatalErrorTriggersPostMortemDump)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.value = 1.0;
    probe.recorder.tick(0.0);
    SinkGuard sink(probe.recorder, "imsim_blackbox_fatal.json");
    EXPECT_THROW(util::fatal("thermal runaway"), FatalError);
    const std::string dump = slurpFile(sink.path);
    EXPECT_NE(dump.find(obs::kBlackboxSchema), std::string::npos);
    EXPECT_NE(dump.find("thermal runaway"), std::string::npos);
    EXPECT_NE(dump.find("\"label\": \"armed\""), std::string::npos);
}

TEST(FlightRecorder, PostMortemReasonStaysOutOfTheRecorders)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.recorder.tick(0.0);
    SinkGuard sink(probe.recorder, "imsim_blackbox_pure.json");
    const std::string before = probe.recorder.toJson("x", "{}");
    EXPECT_FALSE(obs::FlightRecorder::postMortem("checkpoint").empty());
    // The trigger is metadata of the dump, not an event: recorder
    // state (and thus any later dump) is unchanged.
    EXPECT_EQ(probe.recorder.toJson("x", "{}"), before);
    EXPECT_EQ(probe.recorder.eventsNoted(), 0u);
    EXPECT_NE(slurpFile(sink.path).find("\"reason\": \"checkpoint\""),
              std::string::npos);
}

TEST(FlightRecorder, WatchdogPageTriggersPostMortemDump)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.recorder.tick(0.0);
    SinkGuard sink(probe.recorder, "imsim_blackbox_page.json");

    double signal = 0.0;
    obs::Watchdog watchdog;
    obs::WatchdogRule rule;
    rule.name = "sla_p99";
    rule.kind = obs::AlertKind::TailLatency;
    rule.signal = [&signal] { return signal; };
    rule.fireThreshold = 1.0;
    watchdog.addRule(rule);
    watchdog.attach({.recorder = &probe.recorder});

    const std::uint64_t dumps0 = obs::FlightRecorder::postMortemCount();
    watchdog.evaluate(1.0); // Quiet.
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps0);
    signal = 2.0;
    watchdog.evaluate(2.0); // Page -> dump.
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps0 + 1);
    const auto events = probe.recorder.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, obs::BlackboxEventKind::AlertRaise);
    EXPECT_EQ(events[0].label, "sla_p99");
    EXPECT_NE(slurpFile(sink.path).find("watchdog page: sla_p99"),
              std::string::npos);
    signal = 0.0;
    watchdog.evaluate(3.0); // Clear is noted but does not dump.
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps0 + 1);
    EXPECT_EQ(probe.recorder.events().size(), 2u);
}

TEST(FlightRecorder, InvariantViolationTriggersPostMortemDump)
{
    Probe probe(obs::FlightRecorder::Config{});
    probe.recorder.tick(0.0);
    SinkGuard sink(probe.recorder, "imsim_blackbox_violation.json");

    sim::Simulation simulation;
    fault::InvariantChecker checker(simulation);
    bool holds = true;
    checker.addCheck("power_cap", [&holds] { return holds; });
    checker.attach({.recorder = &probe.recorder});
    checker.start(1.0);
    const std::uint64_t dumps0 = obs::FlightRecorder::postMortemCount();
    simulation.runUntil(1.5); // Invariant holds: no dump.
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps0);
    holds = false;
    simulation.runUntil(2.5);
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps0 + 1);
    const auto events = probe.recorder.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().kind, obs::BlackboxEventKind::Violation);
    EXPECT_EQ(events.back().label, "power_cap");
    EXPECT_NE(
        slurpFile(sink.path).find("invariant violation: power_cap"),
        std::string::npos);
}

// The `ctest -L tsan` probe: pointJson() may run concurrently with
// tick() — a crashing worker dumps while the sim thread records.
TEST(FlightRecorder, DumpWhileRecordingIsRaceFree)
{
    obs::FlightRecorder::Config config;
    config.tiers = {{1.0, 32}, {8.0, 16}};
    Probe probe(config);
    std::atomic<bool> done{false};
    std::thread sim_thread([&] {
        for (int t = 0; t < 4000; ++t) {
            probe.value = static_cast<double>(t % 97);
            probe.recorder.tick(static_cast<double>(t));
            if (t % 50 == 0)
                probe.recorder.note(static_cast<double>(t), "mark");
        }
        done.store(true);
    });
    // Keep dumping until the sim thread is done AND a minimum number
    // of dumps ran — the recorder may finish first on a loaded box,
    // but the lower bound keeps the probe meaningful either way.
    std::size_t dumps = 0;
    do {
        const std::string json = probe.recorder.pointJson("racer");
        EXPECT_NE(json.find("\"racer\""), std::string::npos);
        ++dumps;
    } while (!done.load() || dumps < 16);
    sim_thread.join();
    EXPECT_GE(dumps, 16u);
    EXPECT_EQ(probe.recorder.ticks(), 4000u);
}

} // namespace
