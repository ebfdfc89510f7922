/**
 * @file
 * Tests for the observability layer: metric registry semantics, the
 * telemetry sampler's clock alignment, Chrome-trace JSON emission
 * (validated by parse-back), leveled util::log() console records, the
 * disabled-path overhead contract, and serial-vs-parallel determinism
 * of the merged per-point telemetry (run under `ctest -L tsan` with
 * IMSIM_SANITIZE=thread to check the capture/merge path for races).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/experiment.hh"
#include "exp/artifacts.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "obs/obs.hh"
#include "sim/simulation.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser for trace parse-back: validates syntax and counts
// the records inside "traceEvents". Accepts exactly the subset the
// tracer emits (objects, arrays, strings, numbers).
// ---------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    /** Parse the whole document; EXPECT-fails on any syntax error. */
    bool
    parseDocument()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos == s.size();
    }

    std::size_t arrayItems(const std::string &key) const
    {
        const auto it = arrayCounts.find(key);
        return it == arrayCounts.end() ? 0 : it->second;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    parseValue()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return parseObject();
          case '[':
            return parseArray("");
          case '"':
            return parseString(nullptr);
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return parseNumber();
        }
    }

    bool
    literal(const std::string &word)
    {
        if (s.compare(pos, word.size(), word) != 0)
            return false;
        pos += word.size();
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (s[pos] != '"')
            return false;
        ++pos;
        std::string value;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
            }
            value.push_back(s[pos]);
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // Closing quote.
        if (out)
            *out = value;
        return true;
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
            ++pos;
        bool digits = false;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '-' || s[pos] == '+')) {
            if (std::isdigit(static_cast<unsigned char>(s[pos])))
                digits = true;
            ++pos;
        }
        return digits && pos > start;
    }

    bool
    parseArray(const std::string &key)
    {
        if (s[pos] != '[')
            return false;
        ++pos;
        std::size_t items = 0;
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            arrayCounts[key] = 0;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            ++items;
            skipWs();
            if (pos >= s.size())
                return false;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                arrayCounts[key] = items;
                return true;
            }
            return false;
        }
    }

    bool
    parseObject()
    {
        if (s[pos] != '{')
            return false;
        ++pos;
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return false;
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == '[') {
                if (!parseArray(key))
                    return false;
            } else if (!parseValue()) {
                return false;
            }
            skipWs();
            if (pos >= s.size())
                return false;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    const std::string s; // By value: callers pass temporaries.
    std::size_t pos = 0;
    std::map<std::string, std::size_t> arrayCounts;
};

// ---------------------------------------------------------------------
// MetricRegistry semantics.
// ---------------------------------------------------------------------

TEST(MetricRegistry, FindOrCreateReturnsStableReferences)
{
    obs::MetricRegistry registry;
    obs::Counter &a = registry.counter("events");
    a.inc(3);
    // Interleave creations: references must stay valid.
    registry.counter("other");
    registry.gauge("g");
    obs::Counter &b = registry.counter("events");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricRegistry, GaugeProviderPollsLiveState)
{
    obs::MetricRegistry registry;
    double model = 1.0;
    registry.registerGauge("freq", [&model] { return model; });
    EXPECT_DOUBLE_EQ(registry.gauge("freq").value(), 1.0);
    model = 4.1;
    EXPECT_DOUBLE_EQ(registry.gauge("freq").value(), 4.1);
    // set() overrides and detaches the provider.
    registry.gauge("freq").set(2.0);
    model = 9.9;
    EXPECT_DOUBLE_EQ(registry.gauge("freq").value(), 2.0);
}

// ---------------------------------------------------------------------
// TimeSeries / TelemetryMerger.
// ---------------------------------------------------------------------

/** @return @p series written as the one point @p label of a merged CSV. */
std::string
mergedCsv(const obs::TimeSeries &series, const std::string &label = "p")
{
    obs::TelemetryMerger merger(1);
    merger.add(0, label, series);
    std::ostringstream csv;
    merger.writeCsv(csv);
    return csv.str();
}

/** @return the per-point series parseTelemetryCsv reads from @p csv. */
std::vector<obs::LabelledSeries>
parseCsv(const std::string &csv)
{
    std::istringstream in(csv);
    return obs::parseTelemetryCsv(in);
}

TEST(TimeSeries, CsvHasHeaderAndRows)
{
    obs::TimeSeries series({"a", "b"});
    series.append(0.0, {1.0, 2.0});
    series.append(60.0, {3.0, 4.0});
    EXPECT_EQ(mergedCsv(series), "point,t,a,b\np,0,1,2\np,60,3,4\n");
}

TEST(TimeSeries, AppendWithWrongWidthIsFatal)
{
    obs::TimeSeries series({"a", "b"});
    EXPECT_THROW(series.append(0.0, {1.0}), FatalError);
}

TEST(TelemetryMerger, WritesPointsInIndexOrderRegardlessOfAddOrder)
{
    obs::TimeSeries first({"v"});
    first.append(0.0, {1.0});
    obs::TimeSeries second({"v"});
    second.append(0.0, {2.0});

    obs::TelemetryMerger merger(2);
    merger.add(1, "later", second); // Completion order reversed.
    merger.add(0, "earlier", first);
    EXPECT_EQ(merger.filledCount(), 2u);

    std::ostringstream csv;
    merger.writeCsv(csv);
    EXPECT_EQ(csv.str(), "point,t,v\nearlier,0,1\nlater,0,2\n");
}

TEST(TelemetryMerger, DuplicateIndexIsFatal)
{
    obs::TimeSeries series({"v"});
    obs::TelemetryMerger merger(1);
    merger.add(0, "p", series);
    EXPECT_THROW(merger.add(0, "p", series), FatalError);
}

// ---------------------------------------------------------------------
// TelemetrySampler clock alignment.
// ---------------------------------------------------------------------

TEST(TelemetrySampler, SamplesAtStartAndEveryPeriodNeverPastHorizon)
{
    sim::Simulation sim;
    obs::MetricRegistry registry;
    registry.registerGauge("clock", [&sim] { return sim.now(); });

    obs::TelemetrySampler sampler(sim, registry, 10.0);
    sampler.start();
    sim.runUntil(35.0);
    sampler.stop();

    const obs::TimeSeries &series = sampler.series();
    ASSERT_EQ(series.rows(), 4u); // t = 0, 10, 20, 30; none past 35.
    for (std::size_t i = 0; i < series.rows(); ++i) {
        EXPECT_DOUBLE_EQ(series.time(i), 10.0 * static_cast<double>(i));
        EXPECT_DOUBLE_EQ(series.row(i)[0], series.time(i));
    }
}

TEST(TelemetrySampler, HorizonBoundarySampleFires)
{
    sim::Simulation sim;
    obs::MetricRegistry registry;
    registry.registerGauge("one", [] { return 1.0; });
    obs::TelemetrySampler sampler(sim, registry, 10.0);
    sampler.start();
    sim.runUntil(20.0); // Samples at 0, 10, and exactly 20.
    EXPECT_EQ(sampler.series().rows(), 3u);
}

TEST(TelemetrySampler, CountersAppearAfterGauges)
{
    sim::Simulation sim;
    obs::MetricRegistry registry;
    obs::Counter &events = registry.counter("events");
    registry.registerGauge("g", [] { return 7.0; });
    obs::TelemetrySampler sampler(sim, registry, 5.0);
    sampler.start();
    events.inc(2);
    sim.runUntil(5.0);
    const obs::TimeSeries &series = sampler.series();
    ASSERT_EQ(series.columns().size(), 2u);
    EXPECT_EQ(series.columns()[0], "g");
    EXPECT_EQ(series.columns()[1], "events");
    ASSERT_EQ(series.rows(), 2u);
    EXPECT_DOUBLE_EQ(series.row(0)[1], 0.0);
    EXPECT_DOUBLE_EQ(series.row(1)[1], 2.0);
}

// ---------------------------------------------------------------------
// EventTracer: emission, JSON parse-back, append/merge.
// ---------------------------------------------------------------------

TEST(EventTracer, DisabledTracerCollectsNothing)
{
    obs::EventTracer tracer;
    tracer.instant("a", "cat");
    tracer.counter("v", 1.0);
    tracer.complete("x", "cat", 0.0, 1.0);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(EventTracer, JsonParsesBackWithAllEvents)
{
    obs::EventTracer tracer;
    Seconds t = 1.5;
    tracer.enable([&t] { return t; });
    tracer.nameTrack(0, "point Baseline");
    tracer.instant("scale_out", "autoscale");
    tracer.counter("vms", 3.0);
    tracer.complete("decide", "autoscale", 1.5, 1.75);
    ASSERT_EQ(tracer.size(), 4u);

    const std::string json = tracer.toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parseDocument()) << json;
    EXPECT_EQ(checker.arrayItems("traceEvents"), 4u);
    // Spot-check the Chrome trace_event dialect.
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    // Virtual-time stamps are microseconds: 1.5 s -> 1500000.
    EXPECT_NE(json.find("1500000"), std::string::npos);
}

TEST(EventTracer, AppendRestampsTrackAndPreservesOrder)
{
    obs::EventTracer point;
    Seconds t = 0.0;
    point.enable([&t] { return t; });
    point.instant("a", "cat");
    t = 1.0;
    point.instant("b", "cat");

    obs::EventTracer merged; // Stays disabled; append still works.
    merged.append(point, 7);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.events()[0].name, "a");
    EXPECT_EQ(merged.events()[0].tid, 7u);
    EXPECT_EQ(merged.events()[1].tid, 7u);
}

// ---------------------------------------------------------------------
// Disabled-path overhead contract: a run without an obs capture must
// not differ from one where the obs layer does not exist.
// ---------------------------------------------------------------------

TEST(ObsOverhead, ExperimentWithoutCaptureMatchesSeedBaseline)
{
    // The obs pointer defaults to null: the run must not differ from
    // one where the obs layer does not exist at all.
    autoscale::ExperimentParams params;
    params.stepDuration = 30.0;
    const auto a =
        autoscale::runCustomExperiment(autoscale::Policy::OcA,
                                       {1000.0, 2000.0}, 1, params);
    const auto b =
        autoscale::runCustomExperiment(autoscale::Policy::OcA,
                                       {1000.0, 2000.0}, 1, params);
    EXPECT_DOUBLE_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.trace.size(), b.trace.size());
}

// ---------------------------------------------------------------------
// Leveled console logging (util::log / util::warn).
// ---------------------------------------------------------------------

class LoggerTest : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setLogLevel(util::LogLevel::Warn); // Process default.
    }
};

/** stdout and stderr written between construction and take(). */
class ConsoleCapture
{
  public:
    ConsoleCapture()
    {
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
    }

    /** Stop capturing; @return {stdout, stderr}. */
    std::pair<std::string, std::string>
    take()
    {
        std::string out = testing::internal::GetCapturedStdout();
        return {std::move(out), testing::internal::GetCapturedStderr()};
    }
};

TEST_F(LoggerTest, LevelThresholdGatesRecords)
{
    ConsoleCapture console;
    util::setLogLevel(util::LogLevel::Warn);
    util::log(util::LogLevel::Debug, "mod", "hidden");
    util::log(util::LogLevel::Info, "mod", "hidden too");
    util::log(util::LogLevel::Warn, "mod", "shown");
    util::setLogLevel(util::LogLevel::Debug);
    util::log(util::LogLevel::Debug, "mod", "now visible");
    util::log(util::LogLevel::Trace, "mod", "still hidden");
    util::setLogLevel(util::LogLevel::Off);
    util::log(util::LogLevel::Warn, "mod", "muted");
    util::warn("muted too");
    const auto [out, err] = console.take();

    EXPECT_EQ(out, "debug: [mod] now visible\n");
    EXPECT_EQ(err, "warn: [mod] shown\n");
}

TEST_F(LoggerTest, SetVerboseRoutesThroughSharedThreshold)
{
    ConsoleCapture console;
    util::setVerbose(true);
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Info));
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug));
    util::log(util::LogLevel::Info, "mod", "verbose");

    util::setVerbose(false);
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Info));
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Warn));
    util::log(util::LogLevel::Info, "mod", "quiet");
    const auto [out, err] = console.take();

    EXPECT_EQ(out, "info: [mod] verbose\n");
    EXPECT_EQ(err, "");
}

TEST_F(LoggerTest, CliFlagsSetTheSharedThreshold)
{
    ConsoleCapture console;
    const char *argv[] = {"bench", "--log-level", "debug"};
    const util::Cli cli(3, argv);
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Debug));
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Trace));
    util::log(util::LogLevel::Debug, "cli", "debug on");
    util::log(util::LogLevel::Trace, "cli", "trace off");

    const char *argv_verbose[] = {"bench", "--verbose"};
    util::setLogLevel(util::LogLevel::Warn);
    const util::Cli verbose(2, argv_verbose);
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Info));
    util::log(util::LogLevel::Info, "cli", "info on");
    const auto [out, err] = console.take();

    EXPECT_EQ(out, "debug: [cli] debug on\ninfo: [cli] info on\n");
    EXPECT_EQ(err, "");
}

TEST_F(LoggerTest, AutoScalerDebugAndWarnLinesKeepTheirFormatAndStream)
{
    // OC-A under ~72 % load on one VM scales the fleet frequency up and
    // out at its first decision (t = 3 s), and reports both at Debug.
    sim::Simulation sim;
    workload::QueueingCluster::Params cp;
    cp.serviceMean = 2.6e-3;
    cp.kappa = 0.9;
    workload::QueueingCluster cluster(sim, util::Rng(2), cp);
    cluster.addServer(3.4);
    autoscale::AutoScalerConfig config;
    config.policy = autoscale::Policy::OcA;
    autoscale::AutoScaler scaler(sim, cluster, config);
    scaler.start();
    cluster.setArrivalRate(1100.0);

    ConsoleCapture console;
    util::setLogLevel(util::LogLevel::Debug);
    sim.runUntil(3.5);
    util::warn("tank over temperature");
    util::setLogLevel(util::LogLevel::Warn);
    const auto [out, err] = console.take();

    EXPECT_EQ(out,
              "debug: [autoscaler] t=3.000000 fleet frequency -> 4.100000 "
              "GHz\n"
              "debug: [autoscaler] t=3.000000 scale-out from 1 VMs\n");
    EXPECT_EQ(err, "warn: tank over temperature\n");

    // At the default threshold the same decisions print nothing.
    ConsoleCapture quiet;
    sim.runUntil(60.0);
    const auto [quiet_out, quiet_err] = quiet.take();
    EXPECT_EQ(quiet_out, "");
    EXPECT_EQ(quiet_err, "");
}

TEST_F(LoggerTest, ParseLogLevelRejectsUnknownNames)
{
    EXPECT_EQ(util::parseLogLevel("info"), util::LogLevel::Info);
    EXPECT_EQ(util::parseLogLevel("warn"), util::LogLevel::Warn);
    EXPECT_THROW(util::parseLogLevel("loud"), FatalError);
}

// ---------------------------------------------------------------------
// End-to-end: per-point capture under the experiment engine, merged in
// point order by exp::RunArtifacts — byte-identical serial vs parallel
// (the bench path).
// ---------------------------------------------------------------------

struct MergedObs
{
    std::string telemetryCsv;
    std::string traceJson;
};

MergedObs
runSweepWithCapture(std::size_t jobs)
{
    autoscale::ExperimentParams params;
    params.stepDuration = 30.0;
    const std::vector<autoscale::Policy> points{
        autoscale::Policy::Baseline, autoscale::Policy::OcE,
        autoscale::Policy::OcA,      autoscale::Policy::Baseline,
        autoscale::Policy::OcA,      autoscale::Policy::OcE,
        autoscale::Policy::OcA,      autoscale::Policy::Baseline};

    const char *argv[] = {"bench"};
    exp::RunArtifacts artifacts(util::Cli(1, argv), 42, jobs);
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < points.size(); ++i)
        labels.push_back(autoscale::policyName(points[i]) + "#" +
                         std::to_string(i));
    artifacts.setPoints(std::move(labels));

    std::vector<autoscale::ObsCapture> captures(points.size());
    for (std::size_t i = 0; i < captures.size(); ++i) {
        captures[i].telemetryPeriod = 10.0;
        artifacts.addTrace(i, captures[i].tracer);
        artifacts.addTelemetry(i, captures[i].telemetry);
    }

    const exp::SweepRunner runner({jobs, 42});
    runner.map<int>(points.size(), [&](std::size_t i, util::Rng &) {
        autoscale::ExperimentParams point_params = params;
        point_params.obs = &captures[i];
        autoscale::runCustomExperiment(points[i], {1000.0, 2500.0}, 1,
                                       point_params);
        return 0;
    });

    MergedObs out;
    std::ostringstream csv;
    artifacts.writeMergedTelemetry(csv);
    out.telemetryCsv = csv.str();
    out.traceJson = artifacts.mergedTrace().toJson();
    return out;
}

TEST(ObsDeterminism, MergedTelemetryIsByteIdenticalSerialVsParallel)
{
    const MergedObs serial = runSweepWithCapture(1);
    const MergedObs parallel = runSweepWithCapture(8);

    EXPECT_FALSE(serial.telemetryCsv.empty());
    EXPECT_EQ(serial.telemetryCsv, parallel.telemetryCsv);
    EXPECT_EQ(serial.traceJson, parallel.traceJson);

    // The capture actually observed the run.
    JsonChecker checker(serial.traceJson);
    EXPECT_TRUE(checker.parseDocument());
    EXPECT_GT(checker.arrayItems("traceEvents"), 8u);
    EXPECT_NE(serial.telemetryCsv.find("autoscaler.vms"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Artifact flags: exp::RunArtifacts writes what the command line asks
// for, once each, stamped with the run manifest.
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++count;
    return count;
}

TEST(ObsCli, TraceFlagWritesTheMergedTrace)
{
    const std::string path = testing::TempDir() + "imsim_test_trace.json";
    const char *argv[] = {"bench", "--trace", path.c_str()};
    const util::Cli cli(3, argv);
    exp::RunArtifacts artifacts(cli, 1, 1);
    EXPECT_TRUE(artifacts.wantsCapture());
    EXPECT_FALSE(artifacts.wantsTelemetry());

    obs::EventTracer tracer;
    Seconds t = 0.0;
    tracer.enable([&t] { return t; });
    tracer.instant("e", "cat");
    artifacts.setPoints({"p0"});
    artifacts.addTrace(0, tracer);

    std::ostringstream note;
    artifacts.write(exp::RunReport("r"), note);
    EXPECT_NE(note.str().find(path), std::string::npos);

    // The event plus the thread_name naming its track.
    JsonChecker checker(slurp(path));
    EXPECT_TRUE(checker.parseDocument());
    EXPECT_EQ(checker.arrayItems("traceEvents"), 2u);
    std::remove(path.c_str());
}

TEST(ObsCli, MergedTraceNamesEachPointsTrack)
{
    const std::string path =
        testing::TempDir() + "imsim_test_trace_tracks.json";
    const char *argv[] = {"bench", "--trace", path.c_str()};
    exp::RunArtifacts artifacts(util::Cli(3, argv), 1, 1);
    artifacts.setPoints({"Baseline#0", "OC-A@4.10"});
    std::vector<obs::EventTracer> tracers(2);
    Seconds t = 0.0;
    for (std::size_t i = 0; i < tracers.size(); ++i) {
        tracers[i].enable([&t] { return t; });
        tracers[i].instant("e", "cat");
        artifacts.addTrace(i, tracers[i]);
    }
    std::ostringstream note;
    artifacts.write(exp::RunReport("r"), note);

    const std::string json = slurp(path);
    EXPECT_EQ(occurrences(json, "\"thread_name\""), 2u) << json;
    EXPECT_NE(json.find("\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
                        "\"args\": {\"name\": \"Baseline#0\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ph\": \"M\", \"pid\": 0, \"tid\": 1, "
                        "\"args\": {\"name\": \"OC-A@4.10\"}"),
              std::string::npos)
        << json;
    std::remove(path.c_str());
}

TEST(ObsCli, NoFlagsWriteNothing)
{
    const char *argv[] = {"bench"};
    const util::Cli cli(1, argv);
    exp::RunArtifacts artifacts(cli, 1, 1);
    EXPECT_FALSE(artifacts.wantsCapture());
    EXPECT_FALSE(artifacts.wantsTelemetry());
    EXPECT_FALSE(artifacts.wantsBlackbox());
    obs::EventTracer tracer;
    obs::TimeSeries series({"x"});
    series.append(0.0, {1.0});
    artifacts.setPoints({"p0"});
    artifacts.addTrace(0, tracer);
    artifacts.addTelemetry(0, series);
    std::ostringstream os;
    testing::internal::CaptureStderr();
    artifacts.write(exp::RunReport("r"), os);
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
    EXPECT_TRUE(os.str().empty());
}

TEST(ObsCli, EveryFlagWritesEachArtifactOnceWithTheManifest)
{
    const std::string dir = testing::TempDir() + "imsim_test_artifacts_";
    const std::vector<std::pair<std::string, std::string>> flags{
        {"--report", dir + "report.json"},
        {"--trace", dir + "trace.json"},
        {"--telemetry", dir + "telemetry.csv"},
        {"--watchdog", dir + "incidents.json"},
        {"--blackbox", dir + "blackbox.json"},
        {"--profile", dir + "profile.json"}};
    std::vector<const char *> argv{"bench"};
    for (const auto &flag : flags) {
        std::remove(flag.second.c_str());
        argv.push_back(flag.first.c_str());
        argv.push_back(flag.second.c_str());
    }
    const util::Cli cli(static_cast<int>(argv.size()), argv.data());
    exp::RunArtifacts artifacts(cli, 7, 2);
    EXPECT_TRUE(artifacts.wantsCapture());
    EXPECT_TRUE(artifacts.wantsTelemetry());
    EXPECT_TRUE(artifacts.wantsBlackbox());

    const std::size_t points = 2;
    artifacts.setPoints({"a", "b"});
    std::vector<obs::EventTracer> tracers(points);
    std::vector<obs::TimeSeries> series(points, obs::TimeSeries({"x"}));
    std::vector<obs::IncidentLog> logs(points);
    std::vector<std::unique_ptr<obs::FlightRecorder>> recorders;
    Seconds t = 0.0;
    for (std::size_t i = 0; i < points; ++i) {
        tracers[i].enable([&t] { return t; });
        tracers[i].instant("e", "cat");
        series[i].append(0.0, {static_cast<double>(i)});
        logs[i].open(0.0, obs::AlertKind::Custom, "rule", 1.0, 0.5);
        recorders.push_back(std::make_unique<obs::FlightRecorder>());
        recorders.back()->addChannel("x", [] { return 1.0; });
        recorders.back()->tick(0.0);
        artifacts.addTrace(i, tracers[i]);
        artifacts.addTelemetry(i, series[i]);
        artifacts.addIncidents(i, logs[i]);
        artifacts.addRecorder(i, *recorders.back());
    }
    artifacts.armPostMortem();
    EXPECT_TRUE(recorders[0]->armed());
    const std::uint64_t dumps = obs::FlightRecorder::postMortemCount();

    exp::RunReport report("r");
    report.add(exp::RunRecord{{{"p", "a"}}, {}});
    std::ostringstream os;
    testing::internal::CaptureStderr();
    artifacts.write(report, os);
    const std::string profile = testing::internal::GetCapturedStderr();

    // Each file once, each named by exactly one confirmation line, in
    // the writer's fixed order, the profile on its own stream.
    const std::string lines = os.str();
    std::size_t last = 0;
    for (const auto &flag : flags) {
        std::ostringstream tag;
        tag << "[" << (flag.first == "--report" ? "report"
                                                : flag.first.substr(2))
            << "] wrote ";
        const std::string &text =
            flag.first == "--profile" ? profile : lines;
        EXPECT_EQ(occurrences(text, " to " + flag.second), 1u)
            << flag.first;
        EXPECT_EQ(occurrences(text, tag.str()), 1u) << flag.first;
        if (flag.first != "--profile") {
            const auto at = text.find(tag.str());
            EXPECT_GE(at, last) << flag.first;
            last = at;
        }
        // Every artifact carries the manifest.
        const std::string body = slurp(flag.second);
        for (const char *key : {"git_sha", "argv", "started_at"})
            EXPECT_NE(body.find(key), std::string::npos)
                << flag.first << " lacks " << key;
    }
    EXPECT_EQ(occurrences(lines, "\n"), flags.size() - 1);

    // write() cleared the post-mortem sink: a dump now writes nothing.
    EXPECT_EQ(obs::FlightRecorder::postMortem("after write"), "");
    EXPECT_EQ(obs::FlightRecorder::postMortemCount(), dumps);
    for (const auto &flag : flags)
        std::remove(flag.second.c_str());
}

// ---------------------------------------------------------------------
// Telemetry export edge cases: empty, single sample, non-finite values,
// counter-track mirroring — each round-tripped through the merged CSV
// (TelemetryMerger::writeCsv) and its reader (parseTelemetryCsv), the
// path tools/imsim_report reads.
// ---------------------------------------------------------------------

TEST(TimeSeriesRoundTrip, EmptySeriesKeepsColumns)
{
    obs::TimeSeries series({"a", "b"});
    const std::string csv = mergedCsv(series);
    // The header still names every column; with no rows there is no
    // point to parse back.
    EXPECT_EQ(csv, "point,t,a,b\n");
    EXPECT_TRUE(parseCsv(csv).empty());
}

TEST(TimeSeriesRoundTrip, SingleSampleSurvivesBothFormats)
{
    obs::TimeSeries series({"v"});
    series.append(1.5, {42.125});
    // The bare merged CSV, and the --telemetry file that leads it with
    // `# schema:` and manifest comment lines.
    const std::string bare = mergedCsv(series, "only");
    const std::string stamped = std::string("# schema: ") +
                                obs::kTelemetrySchema +
                                "\n# seed: 1\n" + bare;
    for (const std::string &csv : {bare, stamped}) {
        const auto parsed = parseCsv(csv);
        ASSERT_EQ(parsed.size(), 1u);
        EXPECT_EQ(parsed[0].label, "only");
        EXPECT_EQ(parsed[0].series.columns(), series.columns());
        ASSERT_EQ(parsed[0].series.rows(), 1u);
        EXPECT_DOUBLE_EQ(parsed[0].series.time(0), 1.5);
        EXPECT_DOUBLE_EQ(parsed[0].series.row(0)[0], 42.125);
    }
}

TEST(TimeSeriesRoundTrip, NonFiniteGaugeValues)
{
    obs::TimeSeries series({"g"});
    series.append(0.0, {std::nan("")});
    series.append(1.0, {std::numeric_limits<double>::infinity()});
    series.append(2.0, {-std::numeric_limits<double>::infinity()});
    series.append(3.0, {7.0});

    // The CSV spells non-finite values out ("nan"/"inf") and parses
    // them back exactly.
    const auto parsed = parseCsv(mergedCsv(series));
    ASSERT_EQ(parsed.size(), 1u);
    const obs::TimeSeries &back = parsed[0].series;
    ASSERT_EQ(back.rows(), 4u);
    EXPECT_TRUE(std::isnan(back.row(0)[0]));
    EXPECT_TRUE(std::isinf(back.row(1)[0]));
    EXPECT_GT(back.row(1)[0], 0.0);
    EXPECT_TRUE(std::isinf(back.row(2)[0]));
    EXPECT_LT(back.row(2)[0], 0.0);
    EXPECT_DOUBLE_EQ(back.row(3)[0], 7.0);
}

TEST(TimeSeriesRoundTrip, CounterTrackMirroring)
{
    // A sampler series mirrors counters into value columns after the
    // gauges; the cumulative track must survive the export.
    sim::Simulation sim;
    obs::MetricRegistry registry;
    obs::Counter &events = registry.counter("events");
    registry.registerGauge("g", [&sim] { return sim.now(); });
    obs::TelemetrySampler sampler(sim, registry, 5.0);
    sampler.start();
    events.inc(2);
    sim.at(4.0, [&events] { events.inc(3); });
    sim.runUntil(10.0);
    const obs::TimeSeries &series = sampler.series();
    ASSERT_EQ(series.rows(), 3u); // t = 0, 5, 10.

    const auto parsed = parseCsv(mergedCsv(series));
    ASSERT_EQ(parsed.size(), 1u);
    const obs::TimeSeries &back = parsed[0].series;
    ASSERT_EQ(back.columns(), series.columns());
    ASSERT_EQ(back.rows(), 3u);
    EXPECT_DOUBLE_EQ(back.row(0)[1], 0.0); // Counter at start.
    EXPECT_DOUBLE_EQ(back.row(1)[1], 5.0); // 2 + 3 by t=5.
    EXPECT_DOUBLE_EQ(back.row(2)[1], 5.0); // Still cumulative.
}

TEST(TimeSeriesRoundTrip, ParseCsvRejectsRaggedAndHeaderless)
{
    EXPECT_THROW(parseCsv("point,t,a\np,0,1\np,1\n"), FatalError);
    EXPECT_THROW(parseCsv("point,x,a\np,0,1\n"), FatalError);
    EXPECT_THROW(parseCsv("t,a\n0,1\n"), FatalError);
}

TEST(TelemetryCsv, MergedFileParsesBackPerPoint)
{
    obs::TimeSeries first({"v", "w"});
    first.append(0.0, {1.0, 2.0});
    first.append(1.0, {3.0, 4.0});
    obs::TimeSeries second({"v", "w"});
    second.append(0.0, {5.0, 6.0});
    obs::TelemetryMerger merger(2);
    merger.add(0, "alpha", first);
    merger.add(1, "beta", second);

    std::ostringstream csv;
    merger.writeCsv(csv);
    std::istringstream in(csv.str());
    const auto series = obs::parseTelemetryCsv(in);
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].label, "alpha");
    EXPECT_EQ(series[1].label, "beta");
    EXPECT_EQ(series[0].series.columns(),
              (std::vector<std::string>{"v", "w"}));
    ASSERT_EQ(series[0].series.rows(), 2u);
    EXPECT_DOUBLE_EQ(series[0].series.row(1)[1], 4.0);
    ASSERT_EQ(series[1].series.rows(), 1u);
    EXPECT_DOUBLE_EQ(series[1].series.row(0)[0], 5.0);
}

TEST(TelemetryCsv, ManifestCommentsAreSkipped)
{
    std::istringstream in("# git_sha: abc\n# seed: 1\n"
                          "point,t,v\np,0,9\n");
    const auto series = obs::parseTelemetryCsv(in);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_DOUBLE_EQ(series[0].series.row(0)[0], 9.0);
}

// ---------------------------------------------------------------------
// Wall-clock profiler: nesting, self time, merge, disabled contract.
// ---------------------------------------------------------------------

TEST(Profiler, DisabledScopesRecordNothing)
{
    obs::Profiler::reset();
    obs::Profiler::setEnabled(false);
    {
        obs::ProfScope outer("test.disabled.outer");
        obs::ProfScope inner("test.disabled.inner");
    }
    EXPECT_TRUE(obs::Profiler::report().empty());
}

TEST(Profiler, NestedScopesAggregateByPath)
{
    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        obs::ProfScope outer("test.outer");
        {
            obs::ProfScope inner("test.inner");
        }
        {
            obs::ProfScope inner("test.inner");
        }
    }
    obs::Profiler::setEnabled(false);
    const obs::ProfileReport report = obs::Profiler::report();
    obs::Profiler::reset();

    ASSERT_EQ(report.entries().size(), 2u); // Sorted by path.
    const obs::ProfileEntry &outer = report.entries()[0];
    const obs::ProfileEntry &inner = report.entries()[1];
    EXPECT_EQ(outer.path, "test.outer");
    EXPECT_EQ(inner.path, "test.outer/test.inner");
    EXPECT_EQ(outer.count, 3u);
    EXPECT_EQ(inner.count, 6u);
    // Self time excludes children; the child has no children of its
    // own, so its self time is its total.
    EXPECT_LE(outer.selfMs, outer.totalMs);
    EXPECT_DOUBLE_EQ(inner.selfMs, inner.totalMs);
    EXPECT_GE(outer.totalMs, inner.totalMs);
}

TEST(Profiler, ReportJsonRoundTripsAndMerges)
{
    obs::ProfileReport a;
    a.add({"x/y", 2, 3.0, 1.5});
    a.add({"x", 1, 5.0, 2.0});
    const std::string json = a.toJson("{\"git_sha\": \"abc\"}");
    EXPECT_NE(json.find("imsim.profile/1"), std::string::npos);
    EXPECT_NE(json.find("\"git_sha\": \"abc\""), std::string::npos);
    const obs::ProfileReport parsed = obs::ProfileReport::fromJson(json);
    ASSERT_EQ(parsed.entries().size(), 2u);
    EXPECT_EQ(parsed.entries()[0].path, "x"); // Sorted by path.
    EXPECT_EQ(parsed.entries()[1].count, 2u);
    EXPECT_DOUBLE_EQ(parsed.entries()[1].selfMs, 1.5);

    obs::ProfileReport b;
    b.add({"x", 4, 1.0, 0.5});
    b.add({"z", 1, 2.0, 2.0});
    obs::ProfileReport merged = parsed;
    merged.merge(b);
    ASSERT_EQ(merged.entries().size(), 3u);
    EXPECT_EQ(merged.entries()[0].path, "x");
    EXPECT_EQ(merged.entries()[0].count, 5u);
    EXPECT_DOUBLE_EQ(merged.entries()[0].totalMs, 6.0);
    EXPECT_EQ(merged.entries()[2].path, "z");
}

TEST(Profiler, FromJsonRejectsNonIntegralCounts)
{
    // A scope count must be a non-negative integer a double holds
    // exactly; anything else is refused instead of being cast.
    const auto doc = [](const std::string &count) {
        return "{\"schema\": \"imsim.profile/1\", \"scopes\": [{\"path\": "
               "\"x\", \"count\": " +
               count + ", \"total_ms\": 1, \"self_ms\": 1}]}";
    };
    EXPECT_EQ(obs::ProfileReport::fromJson(doc("3")).entries()[0].count,
              3u);
    for (const char *bad :
         {"-5", "2.5", "null", "1e300", "9007199254740994", "\"3\""}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(obs::ProfileReport::fromJson(doc(bad)), FatalError);
    }
}

TEST(TimingJson, NullRoundTripsThroughReportAndProfileWriters)
{
    // Both readers accept null for a timing (read back as NaN); both
    // writers must then emit null again, never a bare nan that JSON
    // parsers reject.
    const exp::RunReport report = exp::RunReport::fromJson(
        "{\"name\": \"t\", \"timing\": {\"total_wall_ms\": null, "
        "\"points\": [{\"index\": 0, \"queue_ms\": null, "
        "\"wall_ms\": null, \"worker\": 0}]}, \"points\": []}");
    const obs::ProfileReport profile = obs::ProfileReport::fromJson(
        "{\"schema\": \"imsim.profile/1\", \"scopes\": [{\"path\": "
        "\"x\", \"count\": 1, \"total_ms\": null, \"self_ms\": "
        "null}]}");
    for (const std::string &json : {report.toJson(), profile.toJson()}) {
        SCOPED_TRACE(json);
        EXPECT_EQ(json.find("nan"), std::string::npos);
        EXPECT_NO_THROW(util::Json::parse(json));
    }
    const std::string report_json = report.toJson();
    EXPECT_EQ(occurrences(report_json, "null"), 3u);
    EXPECT_EQ(occurrences(profile.toJson(), "null"), 2u);
    // And the parsed-back documents are fixed points.
    EXPECT_EQ(exp::RunReport::fromJson(report_json).toJson(), report_json);
    EXPECT_EQ(obs::ProfileReport::fromJson(profile.toJson()).toJson(),
              profile.toJson());
}

TEST(Profiler, SweepWorkersProfileWithoutRacing)
{
    // Concurrent scopes on sweep threads touch only their own trees;
    // report() after the sweep joins merges them by path. Runs under
    // the tsan label.
    obs::Profiler::reset();
    obs::Profiler::setEnabled(true);
    exp::SweepRunner runner({4, 3});
    runner.map<double>(16, [](std::size_t, util::Rng &rng) {
        obs::ProfScope scope("test.worker");
        double sum = 0.0;
        for (int i = 0; i < 100; ++i)
            sum += rng.uniform();
        if (sum < 0.0) // Defeat optimisation; never true.
            std::abort();
        return sum;
    });
    obs::Profiler::setEnabled(false);
    const obs::ProfileReport report = obs::Profiler::report();
    obs::Profiler::reset();
    std::uint64_t worker_count = 0;
    for (const auto &entry : report.entries())
        if (entry.path == "test.worker")
            worker_count += entry.count;
    EXPECT_EQ(worker_count, 16u);
}

// ---------------------------------------------------------------------
// Run manifest provenance.
// ---------------------------------------------------------------------

TEST(RunManifest, CaptureStampsProvenanceFields)
{
    const char *argv[] = {"bench", "--jobs", "4"};
    const util::Cli cli(3, argv);
    const obs::RunManifest manifest =
        obs::RunManifest::capture(cli, 1234, 4);
    EXPECT_FALSE(manifest.get("git_sha").empty());
    EXPECT_FALSE(manifest.get("compiler").empty());
    EXPECT_EQ(manifest.get("seed"), "1234");
    EXPECT_EQ(manifest.get("jobs"), "4");
    EXPECT_NE(manifest.get("argv").find("--jobs 4"), std::string::npos);
    EXPECT_NE(manifest.get("started_at").find("T"), std::string::npos);

    const std::string json = manifest.toJsonObject();
    EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": \"1234\""), std::string::npos);

    std::ostringstream comments;
    manifest.writeCsvComments(comments);
    EXPECT_NE(comments.str().find("# seed: 1234\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Schema stamps: every machine-readable export names its format so
// consumers (tools/imsim_report) can refuse unknown versions with a
// message instead of a crash.
// ---------------------------------------------------------------------

TEST(SchemaStamps, TraceJsonNamesItsSchema)
{
    obs::EventTracer tracer;
    Seconds t = 0.0;
    tracer.enable([&t] { return t; });
    tracer.instant("e", "cat");
    EXPECT_NE(tracer.toJson().find("\"schema\": \"imsim.trace/1\""),
              std::string::npos);
}

TEST(SchemaStamps, TelemetryCsvLeadsWithItsSchemaComment)
{
    const std::string path =
        testing::TempDir() + "imsim_test_schema_telemetry.csv";
    const char *argv[] = {"bench", "--telemetry", path.c_str()};
    const util::Cli cli(3, argv);
    exp::RunArtifacts artifacts(cli, 1, 1);
    obs::TimeSeries series({"x"});
    series.append(0.0, {1.0});
    artifacts.setPoints({"p0"});
    artifacts.addTelemetry(0, series);
    std::ostringstream note;
    artifacts.write(exp::RunReport("r"), note);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_EQ(first_line,
              std::string("# schema: ") + obs::kTelemetrySchema);
    std::remove(path.c_str());
}

TEST(SchemaStamps, RunReportRefusesForeignSchemas)
{
    exp::RunReport report("stamped");
    const std::string json = report.toJson();
    const std::string stamp = "\"schema\": \"imsim.report/1\"";
    const auto at = json.find(stamp);
    ASSERT_NE(at, std::string::npos);

    // The round trip accepts its own stamp...
    EXPECT_EQ(exp::RunReport::fromJson(json).name(), "stamped");
    // ...and refuses a newer one with a FatalError (which the report
    // tool catches to degrade gracefully).
    std::string newer = json;
    newer.replace(at, stamp.size(), "\"schema\": \"imsim.report/9\"");
    EXPECT_THROW(exp::RunReport::fromJson(newer), FatalError);
}

} // namespace
} // namespace imsim
