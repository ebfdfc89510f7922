/**
 * @file
 * Fleet planning with overclocking in the toolbox: replace static
 * failover buffers with virtual (overclocked) ones, bridge a capacity
 * crisis, and keep the fleet inside its power budget with priority-aware
 * capping — the Sec. V buffer-reduction and crisis-mitigation use-cases
 * end to end.
 *
 * Run: ./build/examples/capacity_planning
 */

#include <iostream>

#include "cluster/buffers.hh"
#include "cluster/capacity.hh"
#include "power/capping.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace imsim;

int
main()
{
    // 1. Buffer reduction: a 500-server cluster with a 10% failover
    // reserve, over one simulated year.
    std::cout << "== Buffer reduction ==\n";
    cluster::BufferSimulator buffers(500, 10, 0.10);
    util::Rng rng(3);
    const auto stat = buffers.simulate(cluster::BufferStrategy::Static,
                                       rng, 24.0 * 365.0);
    const auto virt = buffers.simulate(cluster::BufferStrategy::Virtual,
                                       rng, 24.0 * 365.0);
    util::TableWriter buffer_table({"Strategy", "VMs sold", "Failures",
                                    "Absorbed", "OC server-hours"});
    buffer_table.addRow({"Static reserve", util::fmt(stat.vmsHosted, 0),
                         util::fmt(stat.failures, 0),
                         util::fmt(stat.recovered, 0), "0"});
    buffer_table.addRow({"Virtual (overclock)", util::fmt(virt.vmsHosted, 0),
                         util::fmt(virt.failures, 0),
                         util::fmt(virt.recovered, 0),
                         util::fmt(virt.overclockHours, 0)});
    buffer_table.print(std::cout);

    // 2. Capacity crisis: demand grows 4%/week; the next two supply
    // deliveries slip by 6 weeks.
    std::cout << "\n== Capacity crisis ==\n";
    std::vector<double> demand;
    std::vector<double> supply;
    cluster::CapacityPlanner::makeCrisisScenario(
        20, 5000.0, 0.04, 800.0, 3, 6, demand, supply);
    cluster::CapacityPlanner planner(0.2);
    const auto points = planner.evaluate(demand, supply);
    const auto summary = planner.summarise(points);
    std::cout << "Peak shortfall without overclocking: "
              << util::fmt(summary.peakGapVms, 0) << " VMs\n"
              << "Denied demand: " << util::fmt(summary.deniedVmPeriodsNominal, 0)
              << " VM-weeks nominal vs "
              << util::fmt(summary.deniedVmPeriodsOverclock, 0)
              << " VM-weeks with +20% overclock headroom\n";

    // 3. Power safety: when the overclocked fleet approaches the feed
    // limit, priority-aware capping sheds batch first (Sec. IV).
    std::cout << "\n== Priority-aware capping under overclocking ==\n";
    power::PowerBudget feed(100000.0, 1.3); // 100 kW feed, 30% oversub.
    const char *const names[] = {"batch rack A", "batch rack B",
                                 "latency rack C (overclocked)"};
    const std::vector<power::PowerConsumer> racks{
        {40000.0, 20000.0, 1},
        {38000.0, 19000.0, 1},
        {45000.0, 22000.0, 2},
    };
    Watts rack_demand = 0.0;
    for (const auto &rack : racks)
        rack_demand += rack.demand;
    std::cout << "Demand " << rack_demand / 1000.0
              << " kW against a 100 kW feed -> "
              << (rack_demand > feed.capacity() ? "capping engaged"
                                                : "no capping")
              << "\n";
    util::TableWriter caps({"Rack", "Demand [kW]", "Granted [kW]",
                            "Capped"});
    feed.allocate(racks);
    for (std::size_t i = 0; i < racks.size(); ++i) {
        caps.addRow({names[i], util::fmt(racks[i].demand / 1000.0, 1),
                     util::fmt(feed.granted()[i] / 1000.0, 1),
                     feed.capped()[i] ? "yes" : "no"});
    }
    caps.print(std::cout);
    std::cout << "The overclocked latency rack keeps its full allocation;"
                 " the batch racks\nabsorb the cut — overclocking and"
                 " priority-aware capping compose.\n";
    return 0;
}
