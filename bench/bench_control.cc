/**
 * @file
 * Controller comparison on the closed-loop control environment: the
 * paper's static OC-A/OC-B schedules against three feedback
 * controllers (PID on max Tj, greedy TCO hill-climbing, epsilon-greedy
 * bandit), each driven through one diurnal day that includes a feed
 * derate, a cooling degradation, and a VM crash. Every (controller,
 * feed) point reports tail latency, cost per million requests, and
 * implied lifetime; the rows on the latency/cost Pareto front are
 * marked, which is the bench's headline: which control laws buy
 * overclocking's speedup without paying for it in wear or SLA.
 *
 * Determinism: each feed group shares one seed, so every controller in
 * a group faces the identical diurnal traces and arrival stream; the
 * sweep fans over the experiment engine, and the table/report are
 * byte-identical for any --jobs and --sim-threads values.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "control/controllers.hh"
#include "control/env.hh"
#include "exp/artifacts.hh"
#include "exp/sweep.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace imsim;

namespace {

constexpr std::uint64_t kSeedBase = 7001;

struct PointResult
{
    control::ControlOutcome outcome;
};

/** Crisis schedule scaled to the horizon: a VM crash in the diurnal
 *  trough (losing half the proxy cluster where the backlog can still
 *  drain), a 70% feed derate through the morning ramp, and a cooling
 *  degradation just ahead of the 16:00 peak — every controller must
 *  ride through all three. */
fault::FaultPlan
crisisPlan(double days)
{
    const Seconds horizon = days * 86400.0;
    fault::FaultPlan plan;
    plan.at(0.08 * horizon,
            {fault::FaultKind::ServerCrash, fault::kAnyServer, 0.0});
    plan.at(0.13 * horizon,
            {fault::FaultKind::ServerRepair, fault::kAnyServer, 0.0});
    plan.at(0.25 * horizon,
            {fault::FaultKind::PowerDerate, fault::kAnyServer, 0.7});
    plan.at(0.35 * horizon,
            {fault::FaultKind::PowerRestore, fault::kAnyServer, 0.0});
    plan.at(0.50 * horizon,
            {fault::FaultKind::CoolingDegrade, fault::kAnyServer, 0.5});
    plan.at(0.58 * horizon,
            {fault::FaultKind::CoolingRestore, fault::kAnyServer, 0.0});
    return plan;
}

std::unique_ptr<control::Controller>
makeController(const std::string &name, const control::ControlEnv &env,
               std::uint64_t bandit_seed)
{
    const GHz floor = env.minCeiling();
    const GHz cap = env.maxCeiling();
    const Seconds sla = env.config().slaP99;
    if (name == "static-baseline")
        return std::make_unique<control::StaticOcController>(
            control::StaticOcController::Mode::Baseline, floor, cap);
    if (name == "static-oc-a")
        return std::make_unique<control::StaticOcController>(
            control::StaticOcController::Mode::OcA, floor, cap);
    if (name == "static-oc-b")
        return std::make_unique<control::StaticOcController>(
            control::StaticOcController::Mode::OcB, floor, cap);
    if (name == "pid-tj")
        return std::make_unique<control::PidTjController>(
            /*setpoint=*/66.0, floor, cap);
    if (name == "greedy-tco")
        return std::make_unique<control::GreedyTcoController>(
            floor, cap, /*levels=*/5, sla);
    if (name == "bandit")
        return std::make_unique<control::BanditController>(
            floor, cap, bandit_seed, /*levels=*/5, /*epsilon=*/0.1, sla);
    util::fatal("bench_control: unknown controller " + name);
}

exp::RunReport
controllerSweep(const util::Cli &cli, double days)
{
    util::printHeading(
        std::cout,
        "Closed-loop control: static schedules vs feedback controllers");
    std::cout << "24 servers (2 batch + 1 latency rack), diurnal day"
                 " with a feed derate,\na cooling degradation and a VM"
                 " crash; M/G/k latency proxy at the fleet's\ndelivered"
                 " clock. Feed levels share seeds, so controllers"
                 " compare on\nidentical workloads.\n\n";

    const std::vector<std::string> controllers{
        "static-baseline", "static-oc-a", "static-oc-b",
        "pid-tj",          "greedy-tco",  "bandit"};
    const std::vector<Watts> feeds{40000.0, 34000.0};

    const auto progress = exp::progressFromCli(cli, "control");
    exp::SweepRunner runner({cli.jobs(), kSeedBase, progress.get()});
    std::vector<exp::Params> grid;
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        for (const auto &name : controllers) {
            grid.push_back(exp::Params{
                {"controller", name},
                {"feed_kw", util::fmt(feeds[f] / 1000.0, 0)}});
        }
    }

    exp::RunReport report = runner.run(
        "control", grid,
        [&](const exp::Params &, std::size_t i, util::Rng &,
            exp::MetricSet &metrics) {
            const std::size_t f = i / controllers.size();
            const std::string &name = controllers[i % controllers.size()];

            control::ControlEnvConfig cfg;
            cfg.days = days;
            cfg.feedCapacity = feeds[f];
            cfg.simThreads = cli.simThreads();
            cfg.crises = crisisPlan(days);

            // One seed per feed group: every controller in the group
            // sees the same traces and the same arrival stream.
            util::Rng rng(kSeedBase + f);
            control::ControlEnv env(cfg, rng);
            const auto controller =
                makeController(name, env, /*bandit_seed=*/977 + f);
            const auto outcome = control::runEpisode(env, *controller);

            metrics.set("p99_ms", outcome.p99LatencyS * 1000.0);
            metrics.set("cost_per_mreq", outcome.costPerMRequestsUsd);
            metrics.set("lifetime_years",
                        std::min(outcome.impliedLifetimeYears, 99.0));
            metrics.set("sla_violation_share", outcome.slaViolationShare);
            metrics.set("mean_ceiling_ghz", outcome.meanCeilingGhz);
            metrics.set("energy_mwh", outcome.energyMwh);
            metrics.set("max_tj_c", outcome.maxTjC);
            metrics.set("requests_m",
                        static_cast<double>(outcome.requests) / 1e6);
        });

    // Pareto front over (P99 latency, cost per Mreq), both minimized:
    // a row is dominated when another row is no worse on both axes and
    // strictly better on one.
    const auto &records = report.records();
    std::vector<bool> pareto(records.size(), true);
    for (std::size_t a = 0; a < records.size(); ++a) {
        const double pa = records[a].metrics.get("p99_ms");
        const double ca = records[a].metrics.get("cost_per_mreq");
        for (std::size_t b = 0; b < records.size(); ++b) {
            if (a == b)
                continue;
            const double pb = records[b].metrics.get("p99_ms");
            const double cb = records[b].metrics.get("cost_per_mreq");
            if (pb <= pa && cb <= ca && (pb < pa || cb < ca)) {
                pareto[a] = false;
                break;
            }
        }
    }

    util::TableWriter table({"Controller", "Feed", "P99 [ms]",
                             "USD/Mreq", "Lifetime [yr]", "SLA viol",
                             "Ceiling [GHz]", "Max Tj", "Pareto"});
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &m = records[i].metrics;
        table.addRow(
            {records[i].params[0].second,
             records[i].params[1].second + " kW",
             util::fmt(m.get("p99_ms"), 1),
             util::fmt(m.get("cost_per_mreq"), 2),
             util::fmt(m.get("lifetime_years"), 1),
             util::fmt(m.get("sla_violation_share") * 100.0, 1) + "%",
             util::fmt(m.get("mean_ceiling_ghz"), 2),
             util::fmt(m.get("max_tj_c"), 1),
             pareto[i] ? "*" : ""});
    }
    table.print(std::cout);
    std::cout << "Rows marked * sit on the latency/cost Pareto front."
                 " The static schedules\nbracket the space — baseline"
                 " cheap-but-slow, OC-A fast-but-wearing — and\nthe"
                 " feedback controllers claim the front between them by"
                 " overclocking only\nwhen thermal headroom (PID) or"
                 " marginal TCO (greedy, bandit) says it pays.\n";
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags: --jobs N, --sim-threads N (bit-identical for any values),
    // --days D (horizon), --smoke (tiny horizon for ctest),
    // --progress [FILE], and the exp::RunArtifacts flags --report FILE,
    // --profile [FILE].
    const util::Cli cli(argc, argv);
    exp::RunArtifacts artifacts(cli, kSeedBase, cli.jobs());
    const double days =
        cli.has("--smoke") ? 0.05 : cli.getDouble("--days", 1.0);
    const exp::RunReport report = controllerSweep(cli, days);
    artifacts.write(report, std::cout);
    return 0;
}
