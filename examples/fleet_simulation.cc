/**
 * @file
 * Fleet-scale what-if: run a power-oversubscribed datacenter for two
 * weeks under each overclocking policy, then follow one server through
 * its five-year life with the wear-credit scheduler — the operator's
 * view of "can we overclock this fleet, and for how long?"
 *
 * The policy bake-off and a 16-replication Monte-Carlo confidence run
 * fan across the experiment engine (--jobs N, default hardware
 * concurrency); --report FILE writes the Monte-Carlo sweep as JSON.
 * Replications draw their seeds via Rng::split, so the numbers are
 * identical for any --jobs value.
 *
 * Run: ./build/examples/fleet_simulation [--jobs N] [--sim-threads N]
 *      [--progress [FILE]] and the exp::RunArtifacts flags
 *      [--report out.json] [--telemetry out.csv] [--blackbox out.json]
 *      [--profile [FILE]]
 */

#include <iostream>
#include <memory>

#include "cluster/datacenter.hh"
#include "core/credit.hh"
#include "exp/artifacts.hh"
#include "exp/sweep.hh"
#include "reliability/lifetime.hh"
#include "thermal/network.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace imsim;

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    exp::RunArtifacts artifacts(cli, 99, cli.jobs());
    const auto progress = exp::progressFromCli(cli, "fleet_simulation");

    // 1. Policy bake-off on a 40 kW feed, one policy per worker.
    std::cout << "== Two-week policy bake-off (40 kW feed, 30%"
                 " oversubscribed) ==\n";
    cluster::RackConfig batch;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    // Every run builds its own identically configured sim, so parallel
    // jobs never share observer state. --sim-threads N shards each
    // run's minute loop; the tables and telemetry are bit-identical for
    // any value (see setSimThreads).
    const auto make_sim = [&] {
        cluster::DatacenterPowerSim sim({batch, batch, latency}, 40000.0,
                                        1.3, 1.2);
        sim.setSimThreads(cli.simThreads());
        return sim;
    };

    util::TableWriter table({"Policy", "Speedup delivered",
                             "OC wasted", "Capping time"});
    const std::vector<std::pair<const char *, cluster::OverclockPolicy>>
        policies{
            {"Never", cluster::OverclockPolicy::Never},
            {"Always", cluster::OverclockPolicy::Always},
            {"Power-aware", cluster::OverclockPolicy::PowerAware},
        };
    exp::SweepRunner runner({cli.jobs(), 99, progress.get()});
    std::vector<std::string> labels;
    for (const auto &policy : policies)
        labels.push_back(policy.first);
    artifacts.setPoints(std::move(labels));
    // With --telemetry each policy run records its per-minute feed
    // series into its own slot; the writer merges them in point order,
    // so the CSV is identical for any --jobs value.
    std::vector<obs::TimeSeries> feed_series(
        artifacts.wantsTelemetry() ? policies.size() : 0);
    for (std::size_t i = 0; i < feed_series.size(); ++i)
        artifacts.addTelemetry(i, feed_series[i]);
    // --blackbox FILE: a flight-recorder bundle per policy, ticked by
    // the minute loop; observers are pure reads, so the tables stay
    // byte-identical.
    std::vector<std::unique_ptr<obs::FleetBlackbox>> boxes;
    if (artifacts.wantsBlackbox()) {
        obs::FleetAggregator::Config agg_cfg;
        agg_cfg.record = false;
        agg_cfg.cumulative = false;
        for (std::size_t i = 0; i < policies.size(); ++i) {
            boxes.push_back(std::make_unique<obs::FleetBlackbox>(
                agg_cfg, obs::FlightRecorder::Config{},
                /*fire_power_w=*/0.98 * 40000.0,
                /*clear_power_w=*/0.95 * 40000.0));
            artifacts.addRecorder(i, boxes.back()->recorder);
        }
    }
    const auto outcomes = runner.map<cluster::DatacenterOutcome>(
        policies.size(), [&](std::size_t i, util::Rng &) {
            auto sim = make_sim();
            if (!boxes.empty()) {
                sim.attachObservability(&boxes[i]->aggregator,
                                        &boxes[i]->watchdog,
                                        &boxes[i]->recorder);
            }
            util::Rng rng(99);
            return sim.run(policies[i].second, rng, 14.0,
                           feed_series.empty() ? nullptr
                                               : &feed_series[i]);
        });
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const auto &outcome = outcomes[i];
        table.addRow({policies[i].first,
                      util::fmt(outcome.speedupDelivered, 3),
                      util::fmt(outcome.cappedOverclockShare * 100.0, 1) +
                          "%",
                      util::fmt(outcome.cappingMinutesShare * 100.0, 1) +
                          "%"});
    }
    table.print(std::cout);

    // 2. How sensitive is the power-aware win to the diurnal draw?
    //    16 Monte-Carlo replications, each seeded by Rng::split, fanned
    //    across the --jobs threads.
    std::cout << "\n== Power-aware policy: 16-seed Monte-Carlo"
                 " confidence ==\n";
    const std::size_t replications = 16;
    std::vector<exp::Params> grid;
    for (std::size_t r = 0; r < replications; ++r)
        grid.push_back(exp::Params{
            {"replication", util::fmt(static_cast<double>(r), 0)}});
    exp::RunReport report = runner.run(
        "fleet_power_aware_mc", grid,
        [&](const exp::Params &, std::size_t, util::Rng &rng,
            exp::MetricSet &metrics) {
            const auto outcome = make_sim().run(
                cluster::OverclockPolicy::PowerAware, rng, 14.0);
            metrics.set("speedup", outcome.speedupDelivered);
            metrics.set("capping_share", outcome.cappingMinutesShare);
            metrics.set("oc_served_share", outcome.overclockShare);
        });
    util::OnlineStats speedup;
    util::OnlineStats capping;
    for (const auto &record : report.records()) {
        speedup.add(record.metrics.get("speedup"));
        capping.add(record.metrics.get("capping_share"));
    }
    std::cout << "Across " << replications << " diurnal draws: speedup "
              << util::fmt(speedup.mean(), 3) << " +/- "
              << util::fmt(speedup.stddev(), 3) << " (min "
              << util::fmt(speedup.min(), 3) << ", max "
              << util::fmt(speedup.max(), 3) << "), capping time "
              << util::fmt(capping.mean() * 100.0, 1) << "%.\n";

    // 3. One server's five-year wear ledger under the credit scheduler.
    std::cout << "\n== One server, five years, wear-credit scheduling ==\n";
    reliability::LifetimeModel model;
    reliability::WearTracker tracker(model, 5.0);
    core::CreditScheduler scheduler(tracker);
    const reliability::StressCondition nominal{0.90, 51.0, 35.0, 1.0, 1.0};
    const reliability::StressCondition green{0.98, 60.0, 35.0, 1.23, 1.0};
    const reliability::StressCondition red{1.01, 64.0, 35.0, 1.30, 1.0};
    util::Rng rng(7);
    double oc_hours = 0.0;
    const Years step = 24.0 / units::kHoursPerYear;
    for (int day = 0; day < 5 * 365; ++day) {
        const bool demand = rng.bernoulli(0.4);
        const auto decision =
            scheduler.decide(nominal, green, red, demand, step);
        if (decision.overclock)
            oc_hours += 24.0;
        const auto &applied = decision.redBand ? red
                              : decision.overclock ? green
                                                   : nominal;
        scheduler.commit(applied, step);
    }
    std::cout << "After 5 years: wear consumed "
              << util::fmtPercent(tracker.consumed()) << ", credit "
              << util::fmtPercent(tracker.credit()) << ", overclocked "
              << util::fmt(oc_hours, 0) << " hours.\n";

    // 4. Sanity-check the thermals of the overclocked operating point.
    std::cout << "\n== Thermal check of the overclocked point ==\n";
    auto rig = thermal::makeImmersedCpuNetwork(thermal::hfe7000());
    rig.network.inject(rig.die, 305.0);
    rig.network.settle();
    std::cout << "Die at 305 W in HFE-7000: "
              << util::fmt(rig.network.temperature(rig.die), 1)
              << " C (Table V's overclocked HFE point is ~60 C).\n";

    artifacts.write(report, std::cout);
    return 0;
}
