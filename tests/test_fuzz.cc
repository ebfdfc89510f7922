/**
 * @file
 * Randomised (fuzz) property tests: the auto-scaler driven by random
 * load schedules, random thermal networks, random hotspot parameters,
 * and random pack/evict/repack cycles — asserting the invariants that
 * must survive any input. Plus a seeded mutation fuzzer for the
 * artifact readers: mutants of the committed goldens must parse or
 * raise FatalError, never crash (run it under scripts/asan.sh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autoscale/autoscaler.hh"
#include "cluster/migration.hh"
#include "cluster/packing.hh"
#include "exp/report.hh"
#include "obs/profiler.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "thermal/network.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/queueing.hh"

namespace imsim {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzSeeds, AutoScalerInvariantsUnderRandomLoad)
{
    util::Rng rng(GetParam());
    sim::Simulation sim;
    workload::QueueingCluster::Params params;
    params.serviceMean = 2.6e-3;
    params.kappa = rng.uniform(0.5, 1.0);
    workload::QueueingCluster cluster(sim, rng.child(), params);
    cluster.addServer(3.4);

    autoscale::AutoScalerConfig config;
    config.policy = static_cast<autoscale::Policy>(rng.uniformInt(0, 2));
    config.maxVms = static_cast<std::size_t>(rng.uniformInt(2, 8));
    autoscale::AutoScaler scaler(sim, cluster, config);
    scaler.start();

    // Random load schedule: 10 segments of 60-180 s, 0-4500 QPS.
    Seconds t = 0.0;
    for (int seg = 0; seg < 10; ++seg) {
        const double qps = rng.uniform(0.0, 4500.0);
        if (t == 0.0)
            cluster.setArrivalRate(qps);
        else
            sim.at(t, [&cluster, qps] { cluster.setArrivalRate(qps); });
        t += rng.uniform(60.0, 180.0);
    }
    sim.runUntil(t);

    // Invariants.
    EXPECT_GE(cluster.activeServers(), config.minVms);
    EXPECT_LE(cluster.maxServers(), config.maxVms);
    EXPECT_GE(scaler.fleetFrequency(), config.baseFrequency - 1e-9);
    EXPECT_LE(scaler.fleetFrequency(), config.maxFrequency + 1e-9);
    Seconds prev = -1.0;
    for (const auto &point : scaler.trace()) {
        EXPECT_GT(point.time, prev);
        prev = point.time;
        EXPECT_GE(point.util30, 0.0);
        EXPECT_LE(point.util30, 1.0 + 1e-9);
        EXPECT_GE(point.vms, config.minVms);
        EXPECT_LE(point.vms, config.maxVms);
        EXPECT_GE(point.frequency, config.baseFrequency - 1e-9);
        EXPECT_LE(point.frequency, config.maxFrequency + 1e-9);
    }
    EXPECT_GE(scaler.averageFrequency(), config.baseFrequency - 1e-9);
    EXPECT_LE(scaler.averageFrequency(), config.maxFrequency + 1e-9);
    // Latencies (when any) are positive and finite.
    if (cluster.completed() > 0) {
        EXPECT_GT(cluster.latencies().percentile(0.0), 0.0);
        EXPECT_LT(cluster.latencies().percentile(100.0), t);
    }
}

TEST_P(FuzzSeeds, ThermalNetworkSettleAgreesWithLongIntegration)
{
    util::Rng rng(GetParam() + 1000);
    thermal::ThermalNetwork net;
    const int n = static_cast<int>(rng.uniformInt(2, 6));
    std::vector<thermal::ThermalNetwork::NodeId> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(net.addNode("n" + std::to_string(i),
                                  rng.uniform(10.0, 500.0),
                                  rng.uniform(20.0, 60.0)));
    const auto ambient = net.addAmbient("amb", rng.uniform(15.0, 35.0));
    // Chain topology plus random extra couplings keeps it connected.
    for (int i = 0; i < n; ++i) {
        net.couple(ids[static_cast<std::size_t>(i)],
                   i == 0 ? ambient : ids[static_cast<std::size_t>(i - 1)],
                   rng.uniform(0.02, 0.3));
    }
    net.inject(ids[static_cast<std::size_t>(n - 1)],
               rng.uniform(50.0, 400.0));

    thermal::ThermalNetwork integrated = net;
    for (int i = 0; i < 200; ++i)
        integrated.step(60.0);
    net.settle();
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(
            integrated.temperature(ids[static_cast<std::size_t>(i)]),
            net.temperature(ids[static_cast<std::size_t>(i)]), 0.05);
    }
}

TEST_P(FuzzSeeds, HotspotStopGapNeverWorseThanMigrateAlone)
{
    util::Rng rng(GetParam() + 2000);
    for (int trial = 0; trial < 20; ++trial) {
        cluster::MigrationParams params;
        params.memoryGb = rng.uniform(4.0, 64.0);
        params.bandwidthGbps = rng.uniform(5.0, 40.0);
        params.dirtyRateGbps = rng.uniform(0.1, 4.0);
        cluster::MigrationModel migration(params);
        const double slowdown = rng.uniform(0.5, 0.95);
        const double speedup = rng.uniform(1.05, 1.25);
        const Seconds hotspot = rng.uniform(60.0, 7200.0);

        const auto migrate = cluster::evaluateHotspot(
            cluster::HotspotResponse::MigrateOnly, slowdown, speedup,
            hotspot, migration, 1e-5);
        const auto stopgap = cluster::evaluateHotspot(
            cluster::HotspotResponse::OverclockStopGap, slowdown, speedup,
            hotspot, migration, 1e-5);
        EXPECT_LE(stopgap.degradationSeconds,
                  migrate.degradationSeconds + 1e-9);
    }
}

TEST_P(FuzzSeeds, PackEvictRepackConservesVms)
{
    util::Rng rng(GetParam() + 3000);
    cluster::BinPacker packer({40, 256.0}, 12,
                              1.0 + 0.1 * rng.uniformInt(0, 2));
    std::size_t placed = 0;
    for (int i = 0; i < 150; ++i) {
        vm::VmSpec spec;
        spec.id = static_cast<vm::VmId>(i);
        spec.vcores = static_cast<int>(rng.uniformInt(1, 8));
        spec.memoryGb = static_cast<double>(rng.uniformInt(2, 32));
        if (packer.place(spec))
            ++placed;
    }
    // Fail a random host and re-place its VMs (the failover path).
    const auto victim =
        static_cast<std::size_t>(rng.uniformInt(0, 11));
    const auto evicted = packer.evictHost(victim);
    std::size_t replaced = 0;
    for (const auto &spec : evicted)
        if (packer.place(spec))
            ++replaced;
    const auto stats = packer.stats();
    // Everything that stayed placed is accounted for.
    std::size_t hosted = 0;
    for (const auto &host : packer.hosts())
        hosted += host.vms.size();
    EXPECT_EQ(hosted, placed - evicted.size() + replaced);
    EXPECT_EQ(stats.hostsTotal, 12u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(11u, 29u, 73u, 547u, 9001u));

// ---------------------------------------------------------------------
// Artifact readers under mutation: every committed JSON/CSV golden is a
// seed; each mutant goes to all four readers, which must either return
// or throw FatalError. A report or profile that parses must also
// survive its own toJson() -> fromJson() round trip.
// ---------------------------------------------------------------------

std::vector<std::string>
readerSeeds()
{
    std::vector<std::filesystem::path> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(IMSIM_GOLDEN_DIR)) {
        const auto ext = entry.path().extension();
        if (ext == ".json" || ext == ".csv")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> seeds;
    for (const auto &path : paths) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream text;
        text << in.rdbuf();
        seeds.push_back(text.str());
    }
    // No profile dump is committed; seed the profile reader too.
    obs::ProfileReport profile;
    profile.add({"sweep", 2, 10.5, 1.25});
    profile.add({"sweep/point", 8, 9.25, 9.25});
    seeds.push_back(profile.toJson());
    return seeds;
}

/** One deterministic mutation of @p seeds[@p i]. */
std::string
mutate(const std::vector<std::string> &seeds, std::size_t i, util::Rng &rng)
{
    static const char *const kNumbers[] = {"nan", "1e400", "-0",
                                           "18446744073709551616"};
    std::string text = seeds[i];
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n)));
    };
    switch (rng.uniformInt(0, 3)) {
      case 0: // Flip a few bytes.
        for (std::size_t k = 1 + pick(3); k > 0 && !text.empty(); --k)
            text[pick(text.size() - 1)] ^=
                static_cast<char>(rng.uniformInt(1, 255));
        break;
      case 1: // Truncate.
        text.resize(pick(text.size()));
        break;
      case 2: { // Splice another seed's tail onto this one's head.
        const std::string &other = seeds[pick(seeds.size() - 1)];
        text = text.substr(0, pick(text.size())) +
               other.substr(pick(other.size()));
        break;
      }
      default: { // Swap one number for an extreme.
        std::size_t at = pick(text.size());
        while (at < text.size() &&
               !std::isdigit(static_cast<unsigned char>(text[at])))
            ++at;
        std::size_t end = at;
        while (end < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '.' || text[end] == 'e' || text[end] == '-'))
            ++end;
        text.replace(at, end - at, kNumbers[pick(3)]);
      }
    }
    return text;
}

/** Run @p read on @p text; only FatalError may escape it. */
template <typename Read>
bool
readOrReject(const std::string &text, Read read)
{
    try {
        read(text);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

TEST(ReaderFuzz, MutantsParseOrRaiseFatalError)
{
    const std::vector<std::string> seeds = readerSeeds();
    ASSERT_GE(seeds.size(), 10u);
    util::Rng rng(2021);
    std::size_t reports = 0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        for (int n = 0; n < 150; ++n) {
            const std::string text = mutate(seeds, i, rng);
            SCOPED_TRACE("seed " + std::to_string(i) + " mutant " +
                         std::to_string(n));
            readOrReject(text, [](const std::string &t) {
                util::Json::parse(t);
            });
            readOrReject(text, [](const std::string &t) {
                std::istringstream in(t);
                obs::parseTelemetryCsv(in);
            });
            reports += readOrReject(text, [](const std::string &t) {
                const auto report = exp::RunReport::fromJson(t);
                exp::RunReport::fromJson(report.toJson());
            });
            readOrReject(text, [](const std::string &t) {
                const auto profile = obs::ProfileReport::fromJson(t);
                obs::ProfileReport::fromJson(profile.toJson());
            });
        }
    }
    // Some mutants must get past the parser into the report reader.
    EXPECT_GT(reports, 0u);
}

} // namespace
} // namespace imsim
