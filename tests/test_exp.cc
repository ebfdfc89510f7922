/**
 * @file
 * Unit tests for the experiment engine: Rng::split stream
 * independence, SweepRunner serial-vs-parallel determinism, failure
 * reporting and nesting with an inner ShardRunner, RunReport JSON
 * round-trip, and the shared --jobs flag. Registered under the `tsan`
 * ctest label so the sweeps run under IMSIM_SANITIZE=thread in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/shard.hh"

namespace imsim {
namespace {

TEST(RngSplit, IndependentOfDrawState)
{
    util::Rng fresh(1234);
    util::Rng drained(1234);
    for (int i = 0; i < 1000; ++i)
        drained.uniform();
    // split() depends only on (seed, stream), not on consumed draws.
    util::Rng a = fresh.split(7);
    util::Rng b = drained.split(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngSplit, StreamsDifferFromEachOtherAndFromParent)
{
    util::Rng root(42);
    util::Rng s0 = root.split(0);
    util::Rng s1 = root.split(1);
    util::Rng parent(42);
    int equal01 = 0;
    int equal0p = 0;
    for (int i = 0; i < 64; ++i) {
        const double x0 = s0.uniform();
        const double x1 = s1.uniform();
        const double xp = parent.uniform();
        equal01 += x0 == x1;
        equal0p += x0 == xp;
    }
    EXPECT_EQ(equal01, 0);
    EXPECT_EQ(equal0p, 0);
}

TEST(RngSplit, SameStreamIdReproduces)
{
    util::Rng root(42);
    util::Rng a = root.split(3);
    util::Rng b = root.split(3);
    for (int i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngSplit, AdjacentSeedsDecorrelate)
{
    util::Rng a = util::Rng(100).split(0);
    util::Rng b = util::Rng(101).split(0);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.uniform() == b.uniform();
    EXPECT_EQ(equal, 0);
}

/** A toy Monte-Carlo body: mean of 100 exponential draws. */
double
expBody(std::size_t i, util::Rng &rng)
{
    double total = 0.0;
    for (int k = 0; k < 100; ++k)
        total += rng.exponential(1.0 + static_cast<double>(i));
    return total / 100.0;
}

TEST(SweepRunner, SerialAndParallelResultsAreIdentical)
{
    const std::size_t n = 40;
    exp::SweepRunner serial({1, 2021});
    exp::SweepRunner parallel({8, 2021});
    const auto a = serial.map<double>(n, expBody);
    const auto b = parallel.map<double>(n, expBody);
    ASSERT_EQ(a.size(), n);
    ASSERT_EQ(b.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]) << "point " << i;
}

TEST(SweepRunner, RunReportIsDeterministicAcrossJobCounts)
{
    const std::vector<exp::Params> grid{
        {{"load", "low"}}, {{"load", "mid"}}, {{"load", "high"}}};
    const auto body = [](const exp::Params &, std::size_t i,
                         util::Rng &rng, exp::MetricSet &metrics) {
        double lat_sum = 0.0;
        for (int k = 0; k < 200; ++k)
            lat_sum += rng.lognormalMeanCv(1.0 + i, 1.5);
        metrics.set("lat_sum", lat_sum);
        metrics.set("index", static_cast<double>(i));
    };
    const auto serial =
        exp::SweepRunner({1, 7}).run("toy", grid, body);
    const auto parallel =
        exp::SweepRunner({8, 7}).run("toy", grid, body);
    EXPECT_EQ(serial.toJson(), parallel.toJson());
}

TEST(SweepRunner, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(64);
    exp::SweepRunner runner({4, 1});
    const auto indices = runner.map<std::size_t>(
        hits.size(), [&hits](std::size_t i, util::Rng &) {
            ++hits[i];
            return i;
        });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
    for (std::size_t i = 0; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], i);
}

TEST(SweepRunner, ExceptionsPropagateToCaller)
{
    exp::SweepRunner runner({4, 1});
    EXPECT_THROW(runner.map<int>(8,
                                 [](std::size_t i, util::Rng &) {
                                     if (i == 5)
                                         util::fatal("boom");
                                     return 0;
                                 }),
                 FatalError);
}

TEST(SweepRunner, PointsMayShardInternally)
{
    // The --jobs N --sim-threads M nesting: every point drives its own
    // ShardRunner while the sweep's runner is mid-fork.
    constexpr std::size_t kPoints = 16;
    constexpr std::size_t kUnits = 1000;
    for (const std::size_t jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(kPoints * kUnits);
        exp::SweepRunner runner({jobs, 1});
        const auto points = runner.map<std::size_t>(
            kPoints, [&hits](std::size_t i, util::Rng &) {
                util::ShardRunner inner(3);
                inner.run(util::ShardPlan::even(kUnits, 8),
                          [&](std::size_t, std::size_t begin,
                              std::size_t end) {
                              for (std::size_t u = begin; u < end; ++u)
                                  hits[i * kUnits + u].fetch_add(
                                      1, std::memory_order_relaxed);
                          });
                return i;
            });
        for (std::size_t k = 0; k < hits.size(); ++k)
            EXPECT_EQ(hits[k].load(), 1)
                << "jobs " << jobs << " point " << k / kUnits << " unit "
                << k % kUnits;
        ASSERT_EQ(points.size(), kPoints);
        for (std::size_t i = 0; i < kPoints; ++i)
            EXPECT_EQ(points[i], i) << "jobs " << jobs;
    }
}

TEST(SweepRunner, ParamGridIsSecondKeyMajor)
{
    const auto grid = exp::paramGrid("a", {"1", "2"}, "b", {"x", "y"});
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0], (exp::Params{{"a", "1"}, {"b", "x"}}));
    EXPECT_EQ(grid[1], (exp::Params{{"a", "1"}, {"b", "y"}}));
    EXPECT_EQ(grid[3], (exp::Params{{"a", "2"}, {"b", "y"}}));
}

TEST(MetricSet, SetOverwritesInPlaceAndMissingGetIsFatal)
{
    exp::MetricSet metrics;
    metrics.set("power_w", 130.0);
    metrics.set("lat_ms", 2.5);
    metrics.set("power_w", 140.0); // Overwrites, keeps its slot.
    ASSERT_EQ(metrics.entries().size(), 2u);
    EXPECT_EQ(metrics.entries()[0].first, "power_w");
    EXPECT_DOUBLE_EQ(metrics.get("power_w"), 140.0);
    EXPECT_TRUE(metrics.has("lat_ms"));
    EXPECT_FALSE(metrics.has("missing"));
    EXPECT_THROW(metrics.get("missing"), FatalError);
}

TEST(RunReport, JsonRoundTrip)
{
    exp::RunReport report("fig12 \"quoted\"\nname");
    exp::RunRecord r1;
    r1.params = {{"pcores", "8"}, {"config", "B2"}};
    r1.metrics.set("p95_ms", 12.339999999999998);
    r1.metrics.set("power_w", 130.0);
    exp::RunRecord r2;
    r2.params = {{"pcores", "16"}, {"config", "OC3"}};
    r2.metrics.set("p95_ms", 7.25);
    report.add(r1);
    report.add(r2);

    const std::string json = report.toJson();
    const exp::RunReport parsed = exp::RunReport::fromJson(json);
    EXPECT_EQ(parsed.name(), report.name());
    ASSERT_EQ(parsed.records().size(), 2u);
    EXPECT_EQ(parsed.records()[0].params, r1.params);
    EXPECT_DOUBLE_EQ(parsed.records()[0].metrics.get("p95_ms"),
                     12.339999999999998);
    EXPECT_DOUBLE_EQ(parsed.records()[0].metrics.get("power_w"), 130.0);
    EXPECT_EQ(parsed.records()[1].params, r2.params);
    // Emit -> parse -> emit is a fixed point.
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(RunReport, EmptyAndNonFiniteRoundTrip)
{
    exp::RunReport empty("nothing");
    EXPECT_EQ(exp::RunReport::fromJson(empty.toJson()).records().size(),
              0u);

    exp::RunReport report("inf");
    exp::RunRecord record;
    record.metrics.set("bad", std::nan(""));
    report.add(record);
    const auto parsed = exp::RunReport::fromJson(report.toJson());
    EXPECT_TRUE(std::isnan(parsed.records()[0].metrics.get("bad")));
}

TEST(RunReport, FromJsonRejectsGarbage)
{
    EXPECT_THROW(exp::RunReport::fromJson("not json"), FatalError);
    EXPECT_THROW(exp::RunReport::fromJson("{\"points\": []}"), FatalError);
}

TEST(RunReport, TableHasParamAndMetricColumns)
{
    exp::RunReport report("t");
    exp::RunRecord record;
    record.params = {{"config", "B2"}};
    record.metrics.set("p95_ms", 12.0);
    report.add(record);
    std::ostringstream out;
    report.toTable().printCsv(out);
    EXPECT_NE(out.str().find("config"), std::string::npos);
    EXPECT_NE(out.str().find("p95_ms"), std::string::npos);
    EXPECT_NE(out.str().find("B2"), std::string::npos);
}

TEST(RunReport, WriteJsonFileRoundTrips)
{
    exp::RunReport report("file");
    exp::RunRecord record;
    record.params = {{"k", "v"}};
    record.metrics.set("m", 1.5);
    report.add(record);
    const std::string path =
        testing::TempDir() + "imsim_test_report.json";
    report.writeJsonFile(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = exp::RunReport::fromJson(buffer.str());
    EXPECT_EQ(parsed.records().size(), 1u);
    EXPECT_DOUBLE_EQ(parsed.records()[0].metrics.get("m"), 1.5);
    std::remove(path.c_str());
}

TEST(SweepRunner, FirstFailureIsIdenticalAcrossJobCounts)
{
    // Two points fail; the surfaced error must name the lowest index
    // with the same message at every job count.
    const auto run = [](std::size_t jobs) -> std::string {
        exp::SweepRunner runner({jobs, 1});
        try {
            runner.map<int>(8, [](std::size_t i, util::Rng &) {
                if (i == 3 || i == 6)
                    throw std::runtime_error("boom at " +
                                             std::to_string(i));
                return 0;
            });
        } catch (const exp::SweepPointError &e) {
            return std::to_string(e.index()) + "|" + e.what();
        }
        return "no error";
    };
    const std::string serial = run(1);
    EXPECT_NE(serial, "no error");
    EXPECT_NE(serial.find("point 3 failed: boom at 3"),
              std::string::npos);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(8));
}

TEST(SweepRunner, ResultPayloadIdenticalWithProgressAttached)
{
    // The monitor adds a "timing" section but must never leak into the
    // deterministic payload (name + points).
    const auto payload = [](std::size_t jobs) {
        exp::ProgressMonitor monitor("payload_test");
        exp::SweepRunner runner({jobs, 7, &monitor});
        const exp::RunReport report = runner.run(
            "progress_payload",
            exp::paramGrid("a", {"1", "2"}, "b", {"x", "y"}),
            [](const exp::Params &, std::size_t i, util::Rng &rng,
               exp::MetricSet &metrics) {
                metrics.set("value", rng.uniform() + static_cast<double>(i));
            });
        EXPECT_TRUE(report.hasTiming());
        EXPECT_EQ(report.timing().points.size(), 4u);
        exp::RunReport clean(report.name());
        for (const auto &record : report.records())
            clean.add(record);
        return clean.toJson();
    };
    EXPECT_EQ(payload(1), payload(4));
}

TEST(ProgressMonitor, TimingHeartbeatAndStatus)
{
    const std::string hb_path = "progress_test_heartbeat.jsonl";
    std::ostringstream status;
    exp::ProgressMonitor::Options opts;
    opts.status = &status;
    opts.statusIsTty = false;
    opts.minStatusIntervalS = 0.0;
    opts.heartbeatPath = hb_path;
    exp::ProgressMonitor monitor("unit_sweep", opts);
    monitor.begin(2);
    for (std::size_t i = 0; i < 2; ++i) {
        monitor.pointStarted(i);
        monitor.pointFinished(i);
    }
    monitor.end();

    const exp::RunTiming timing = monitor.runTiming();
    ASSERT_EQ(timing.points.size(), 2u);
    EXPECT_EQ(timing.points[0].index, 0u);
    EXPECT_EQ(timing.points[1].index, 1u);
    EXPECT_GE(timing.points[0].wallMs, 0.0);
    EXPECT_GE(timing.totalWallMs, 0.0);
    EXPECT_NE(status.str().find("unit_sweep"), std::string::npos);
    EXPECT_NE(status.str().find("2/2"), std::string::npos);

    std::ifstream in(hb_path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    std::remove(hb_path.c_str());
    ASSERT_EQ(lines.size(), 4u); // begin, 2 points, end.
    EXPECT_NE(lines.front().find("\"event\": \"begin\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"event\": \"point\""), std::string::npos);
    EXPECT_NE(lines.back().find("\"event\": \"end\""),
              std::string::npos);
}

TEST(RunReport, MetaAndTimingRoundTrip)
{
    exp::RunReport report("timed");
    exp::RunRecord record;
    record.metrics.set("x", 1.0);
    report.add(record);
    report.setMeta({{"git_sha", "abcdef012345"}, {"seed", "42"}});
    exp::RunTiming timing;
    timing.totalWallMs = 12.5;
    exp::PointTiming pt;
    pt.index = 0;
    pt.queueMs = 0.25;
    pt.wallMs = 10.5;
    pt.worker = 2;
    timing.points.push_back(pt);
    report.setTiming(timing);

    const std::string json = report.toJson();
    const exp::RunReport parsed = exp::RunReport::fromJson(json);
    ASSERT_TRUE(parsed.hasMeta());
    EXPECT_EQ(parsed.meta(), report.meta());
    ASSERT_TRUE(parsed.hasTiming());
    EXPECT_DOUBLE_EQ(parsed.timing().totalWallMs, 12.5);
    ASSERT_EQ(parsed.timing().points.size(), 1u);
    EXPECT_EQ(parsed.timing().points[0].index, 0u);
    EXPECT_DOUBLE_EQ(parsed.timing().points[0].queueMs, 0.25);
    EXPECT_DOUBLE_EQ(parsed.timing().points[0].wallMs, 10.5);
    EXPECT_EQ(parsed.timing().points[0].worker, 2);
    // Emit -> parse -> emit stays a fixed point with the new sections.
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(RunReport, FromJsonRejectsNonIntegralTimingFields)
{
    // Timing rows come from outside input: an index or worker that is
    // not a non-negative integer in range is refused, never cast.
    const auto doc = [](const std::string &index,
                        const std::string &worker) {
        return "{\"name\": \"t\", \"timing\": {\"total_wall_ms\": 1, "
               "\"points\": [{\"index\": " +
               index + ", \"queue_ms\": 0, \"wall_ms\": 1, \"worker\": " +
               worker + "}]}, \"points\": []}";
    };
    const exp::RunReport ok = exp::RunReport::fromJson(doc("4", "2"));
    ASSERT_EQ(ok.timing().points.size(), 1u);
    EXPECT_EQ(ok.timing().points[0].index, 4u);
    EXPECT_EQ(ok.timing().points[0].worker, 2);
    for (const char *bad : {"-1e300", "null", "-1", "0.5", "1e300"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(exp::RunReport::fromJson(doc(bad, "0")), FatalError);
        EXPECT_THROW(exp::RunReport::fromJson(doc("0", bad)), FatalError);
    }
    // A worker slot must also fit the int it is stored in.
    EXPECT_THROW(exp::RunReport::fromJson(doc("0", "2147483648")),
                 FatalError);
}

TEST(RunReport, MetaAndTimingAreAbsentUntilSet)
{
    exp::RunReport report("plain");
    EXPECT_FALSE(report.hasMeta());
    EXPECT_FALSE(report.hasTiming());
    const std::string json = report.toJson();
    EXPECT_EQ(json.find("\"meta\""), std::string::npos);
    EXPECT_EQ(json.find("\"timing\""), std::string::npos);
}

TEST(Cli, JobsFlagDefaultsToHardwareConcurrency)
{
    const char *argv_default[] = {"bench"};
    const util::Cli plain(1, argv_default);
    EXPECT_EQ(plain.jobs(), util::ShardRunner::defaultThreads());

    const char *argv_jobs[] = {"bench", "--jobs", "3"};
    const util::Cli with_jobs(3, argv_jobs);
    EXPECT_EQ(with_jobs.jobs(), 3u);

    const char *argv_bad[] = {"bench", "--jobs", "0"};
    const util::Cli bad(3, argv_bad);
    EXPECT_THROW(bad.jobs(), FatalError);
}

} // namespace
} // namespace imsim
