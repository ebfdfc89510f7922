/**
 * @file
 * Regenerates the Sec. IV power-management discussion (Takeaway 1) as an
 * experiment: a power-oversubscribed feed hosting diurnal racks under
 * three overclocking policies — never, always, and power-aware — plus
 * the wear-credit scheduler's five-year ledger (the paper's wear-out
 * counter direction).
 */

#include <iostream>
#include <memory>

#include "cluster/datacenter.hh"
#include "core/credit.hh"
#include "exp/artifacts.hh"
#include "exp/sweep.hh"
#include "reliability/lifetime.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace imsim;

namespace {

/** The policy sweep; --blackbox fills @p boxes, read at the write. */
exp::RunReport
powerOversubscription(const util::Cli &cli, exp::RunArtifacts &artifacts,
                      std::vector<std::unique_ptr<obs::FleetBlackbox>> &boxes)
{
    util::printHeading(
        std::cout,
        "Sec. IV Takeaway 1: overclocking under power oversubscription");
    std::cout << "3 racks x 24 servers (one latency rack at higher"
                 " capping priority), 40 kW feed,\n30% oversubscribed,"
                 " 14 simulated days of diurnal load.\n\n";

    cluster::RackConfig batch;
    batch.priority = 1;
    cluster::RackConfig latency;
    latency.priority = 2;
    latency.overclockDemand = 0.7;

    util::TableWriter table({"Policy", "Feed util", "Capping time",
                             "OC demand served", "OC wasted (capped)",
                             "Delivered speedup", "Energy [MWh]"});
    struct Row
    {
        const char *name;
        cluster::OverclockPolicy policy;
    };
    const std::vector<Row> rows{
        {"Never overclock", cluster::OverclockPolicy::Never},
        {"Always overclock", cluster::OverclockPolicy::Always},
        {"Power-aware overclock", cluster::OverclockPolicy::PowerAware}};

    // The three 14-day policy runs are independent; fan them across the
    // experiment engine. Each run keeps the bench's historical seed
    // (2021) so the table matches the serial output exactly.
    const auto progress = exp::progressFromCli(cli, "power_oversub");
    exp::SweepRunner runner({cli.jobs(), 2021, progress.get()});
    std::vector<exp::Params> grid;
    std::vector<std::string> labels;
    for (const auto &row : rows) {
        grid.push_back(exp::Params{{"policy", row.name}});
        labels.push_back(row.name);
    }
    artifacts.setPoints(std::move(labels));

    // `--blackbox FILE`: per-point flight-recorder bundles ticked by
    // the minute loop.
    if (artifacts.wantsBlackbox()) {
        obs::FleetAggregator::Config agg_cfg;
        agg_cfg.record = false;
        agg_cfg.cumulative = false;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            boxes.push_back(std::make_unique<obs::FleetBlackbox>(
                agg_cfg, obs::FlightRecorder::Config{},
                /*fire_power_w=*/0.98 * 40000.0,
                /*clear_power_w=*/0.95 * 40000.0));
            artifacts.addRecorder(i, boxes.back()->recorder);
        }
    }

    // Each point runs its own identically configured sim, so parallel
    // jobs never share observer state; observers are pure reads, so
    // the table and report do not depend on them.
    exp::RunReport report = runner.run(
        "power_oversub", grid,
        [&](const exp::Params &, std::size_t i, util::Rng &,
            exp::MetricSet &metrics) {
            cluster::DatacenterPowerSim sim({batch, batch, latency},
                                            40000.0, 1.3, 1.2);
            // Intra-run sharding: bit-identical for any value (see
            // DatacenterPowerSim::setSimThreads).
            sim.setSimThreads(cli.simThreads());
            if (!boxes.empty()) {
                sim.attachObservability(&boxes[i]->aggregator,
                                        &boxes[i]->watchdog,
                                        &boxes[i]->recorder);
            }
            util::Rng rng(2021);
            const auto outcome = sim.run(rows[i].policy, rng, 14.0);
            metrics.set("feed_util", outcome.meanFeedUtilization);
            metrics.set("capping_share", outcome.cappingMinutesShare);
            metrics.set("oc_served_share", outcome.overclockShare);
            metrics.set("oc_capped_share", outcome.cappedOverclockShare);
            metrics.set("speedup", outcome.speedupDelivered);
            metrics.set("energy_mwh", outcome.energyMwh);
        });
    for (const auto &record : report.records()) {
        const auto &m = record.metrics;
        table.addRow(
            {record.params[0].second,
             util::fmt(m.get("feed_util") * 100.0, 1) + "%",
             util::fmt(m.get("capping_share") * 100.0, 1) + "%",
             util::fmt(m.get("oc_served_share") * 100.0, 1) + "%",
             util::fmt(m.get("oc_capped_share") * 100.0, 1) + "%",
             util::fmt(m.get("speedup"), 3),
             util::fmt(m.get("energy_mwh"), 2)});
    }
    table.print(std::cout);
    std::cout << "Paper: 'Overclocking in oversubscribed datacenters"
                 " increases the chance of\nhitting limits and triggering"
                 " power capping ... might offset any performance\ngains'"
                 " — the always-overclock row pays capping minutes for"
                 " speedup it then\nloses; the power-aware row overclocks"
                 " in the diurnal valleys instead.\n";
    return report;
}

void
creditLedger()
{
    util::printHeading(
        std::cout,
        "Sec. IV extension: five-year wear-credit ledger (HFE-7000)");
    const reliability::LifetimeModel model;
    reliability::WearTracker tracker(model, 5.0);
    core::CreditScheduler scheduler(tracker);

    const reliability::StressCondition nominal{0.90, 51.0, 35.0, 1.0, 1.0};
    const reliability::StressCondition green{0.98, 60.0, 35.0, 1.23, 1.0};
    const reliability::StressCondition red{1.01, 64.0, 35.0, 1.30, 1.0};

    util::Rng rng(5);
    const Years step = 6.0 / units::kHoursPerYear;
    double green_h = 0.0;
    double red_h = 0.0;
    util::TableWriter table({"Year", "Credit banked", "Wear consumed",
                             "Green-band hours", "Red-band hours"});
    for (int year = 1; year <= 5; ++year) {
        for (int slot = 0; slot < 1461; ++slot) {
            const bool demand = rng.bernoulli(0.4);
            const auto decision =
                scheduler.decide(nominal, green, red, demand, step);
            const auto &applied = decision.redBand ? red
                                  : decision.overclock ? green
                                                       : nominal;
            if (decision.redBand)
                red_h += 6.0;
            else if (decision.overclock)
                green_h += 6.0;
            scheduler.commit(applied, step);
        }
        table.addRow({util::fmt(year, 0),
                      util::fmtPercent(tracker.credit()),
                      util::fmtPercent(tracker.consumed()),
                      util::fmt(green_h, 0), util::fmt(red_h, 0)});
    }
    table.print(std::cout);
    std::cout << "The scheduler spends exactly the credit the"
                 " moderately-utilized server banks:\nred-band hours"
                 " (beyond +23%) appear once a reserve exists, and the"
                 " part retires\nat its design budget instead of under"
                 " it.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags: --jobs N (default hardware concurrency), --sim-threads N
    // (threads inside each run; results are bit-identical for any
    // value), --progress [FILE], and the exp::RunArtifacts flags
    // --report FILE, --blackbox FILE (per-policy flight recorders),
    // --profile [FILE].
    const util::Cli cli(argc, argv);
    exp::RunArtifacts artifacts(cli, 2021, cli.jobs());
    std::vector<std::unique_ptr<obs::FleetBlackbox>> boxes;
    const exp::RunReport report =
        powerOversubscription(cli, artifacts, boxes);
    creditLedger();
    artifacts.write(report, std::cout);
    return 0;
}
