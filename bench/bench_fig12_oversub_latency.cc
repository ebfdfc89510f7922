/**
 * @file
 * Regenerates Fig. 12: average P95 latency of four 4-vcore SQL VMs as
 * the assigned pcore count sweeps from 8 (50 % oversubscription) to 16
 * (none), under B2 and OC3, plus the Sec. VI-C power readings.
 *
 * The (pcores x config) grid fans across the experiment engine; each
 * point's hypervisor simulation seeds its own Rng, so the table is
 * identical for any --jobs value. "--report out.json" dumps the sweep
 * as a structured artifact.
 */

#include <iostream>

#include "exp/artifacts.hh"
#include "exp/sweep.hh"
#include "hw/configs.hh"
#include "hw/cpu.hh"
#include "thermal/cooling.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "vm/hypervisor.hh"
#include "workload/app.hh"

using namespace imsim;

namespace {

double
averageP95(int pcores, const hw::DomainClocks &clocks)
{
    // 480 QPS per VM keeps even the 8-pcore (50% oversubscribed) point
    // inside the stable-queue region while loading the host to ~96%.
    vm::HypervisorSim sim(pcores, clocks, util::Rng(12));
    for (int i = 0; i < 4; ++i)
        sim.addLatencyVm(workload::app("SQL"), 480.0);
    sim.run(20.0); // Warmup.
    sim.resetStats();
    sim.run(120.0);
    double total = 0.0;
    for (const auto &res : sim.results())
        total += res.p95Latency;
    return total / 4.0;
}

Watts
serverPower(int active_pcores, const hw::CpuConfig &config, bool p99)
{
    static const thermal::TwoPhaseImmersionCooling cooling(
        thermal::hfe7000());
    auto cpu = hw::CpuModel::xeonW3175x();
    cpu.applyConfig(config);
    // SQL keeps the active pcores at roughly their busy fraction; P99
    // periods push them close to fully busy.
    const double duty = p99 ? 0.85 : 0.62;
    const double activity = duty * active_pcores / 28.0;
    return cpu.power(cooling, activity).total + 40.0 + 26.0 + 24.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags: --jobs N (default hardware concurrency), --progress [FILE],
    // and the exp::RunArtifacts flags --report FILE, --profile [FILE].
    const util::Cli cli(argc, argv);
    exp::RunArtifacts artifacts(cli, 12, cli.jobs());
    const std::vector<int> pcore_steps{8, 10, 12, 14, 16};
    const std::vector<std::string> configs{"B2", "OC3"};
    const auto progress =
        exp::progressFromCli(cli, "fig12_oversub_latency");

    util::printHeading(
        std::cout,
        "Fig. 12: average P95 latency of 4 x SQL (4 vcores each) vs "
        "assigned pcores");

    exp::SweepRunner runner({cli.jobs(), 12, progress.get()});
    std::vector<exp::Params> grid;
    for (int pcores : pcore_steps)
        for (const auto &name : configs)
            grid.push_back(exp::Params{
                {"pcores", util::fmt(pcores, 0)}, {"config", name}});

    exp::RunReport report = runner.run(
        "fig12_oversub_latency", grid,
        [](const exp::Params &point, std::size_t, util::Rng &,
           exp::MetricSet &metrics) {
            const int pcores = std::stoi(point[0].second);
            const auto &config = hw::cpuConfig(point[1].second);
            const hw::DomainClocks clocks{config.core, config.llc,
                                          config.memory};
            metrics.set("p95_ms", averageP95(pcores, clocks) * 1000.0);
        });

    const auto p95_ms = [&](int pcores, const std::string &config) {
        for (const auto &record : report.records())
            if (record.params[0].second == util::fmt(pcores, 0) &&
                record.params[1].second == config)
                return record.metrics.get("p95_ms") / 1000.0;
        util::fatal("fig12: sweep point missing");
    };

    const double base = p95_ms(16, "B2");
    util::TableWriter table({"pcores", "Oversubscription", "B2 P95 [ms]",
                             "OC3 P95 [ms]", "B2 vs 16-pcore B2",
                             "OC3 vs 16-pcore B2"});
    for (int pcores : pcore_steps) {
        const double b2_p95 = p95_ms(pcores, "B2");
        const double oc3_p95 = p95_ms(pcores, "OC3");
        table.addRow(
            {util::fmt(pcores, 0),
             util::fmt((16.0 - pcores) / pcores * 100.0, 0) + "%",
             util::fmt(b2_p95 * 1000.0, 2),
             util::fmt(oc3_p95 * 1000.0, 2),
             util::fmtPercent(b2_p95 / base - 1.0),
             util::fmtPercent(oc3_p95 / base - 1.0)});
    }
    table.print(std::cout);

    // Crossover: the fewest pcores at which OC3 still matches the
    // 16-pcore B2 baseline.
    int crossover = 16;
    for (int pcores : pcore_steps) {
        if (p95_ms(pcores, "OC3") <= base * 1.01) {
            crossover = pcores;
            break;
        }
    }
    std::cout << "Crossover: OC3 matches the 16-pcore B2 baseline down to "
              << crossover << " pcores (paper: 12).\nNote: the GPS"
                 " hypervisor model omits cache/bandwidth interference,"
                 " so overclocking\nlooks somewhat stronger here than on"
                 " the paper's hardware — the saved-pcores\nclaim holds"
                 " conservatively.\n";

    util::printHeading(std::cout,
                       "Sec. VI-C power readings for the SQL sweep [W]");
    util::TableWriter power({"Config", "Active pcores", "Average", "P99"});
    const auto &b2 = hw::cpuConfig("B2");
    const auto &oc3 = hw::cpuConfig("OC3");
    for (int pcores : {12, 16}) {
        power.addRow({"B2", util::fmt(pcores, 0),
                      util::fmt(serverPower(pcores, b2, false), 0),
                      util::fmt(serverPower(pcores, b2, true), 0)});
    }
    for (int pcores : {12, 16}) {
        power.addRow({"OC3", util::fmt(pcores, 0),
                      util::fmt(serverPower(pcores, oc3, false), 0),
                      util::fmt(serverPower(pcores, oc3, true), 0)});
    }
    power.print(std::cout);
    std::cout << "Paper: B2 120/130 W avg (126/140 P99) at 12/16 pcores;"
                 " OC3 160/173 W avg\n(169/180 P99) — a 29-33% increase"
                 " from the +20% core and uncore clocks.\n";

    artifacts.write(report, std::cout);
    return 0;
}
