#include "exp/sweep.hh"

namespace imsim {
namespace exp {

SweepRunner::SweepRunner(SweepOptions opts)
    : workerCount(opts.jobs == 0 ? util::ShardRunner::defaultThreads()
                                 : opts.jobs),
      rootSeed(opts.seed), monitor(opts.progress)
{}

RunReport
SweepRunner::run(const std::string &name, const std::vector<Params> &grid,
                 const std::function<void(const Params &, std::size_t,
                                          util::Rng &, MetricSet &)> &fn)
    const
{
    std::vector<RunRecord> records = map<RunRecord>(
        grid.size(), [&grid, &fn](std::size_t i, util::Rng &rng) {
            RunRecord record{grid[i], {}};
            fn(grid[i], i, rng, record.metrics);
            return record;
        });
    RunReport report(name);
    for (auto &record : records)
        report.add(std::move(record));
    if (monitor)
        report.setTiming(monitor->runTiming());
    return report;
}

std::vector<Params>
paramGrid(const std::string &first_key,
          const std::vector<std::string> &first,
          const std::string &second_key,
          const std::vector<std::string> &second)
{
    std::vector<Params> grid;
    grid.reserve(first.size() * second.size());
    for (const auto &a : first)
        for (const auto &b : second)
            grid.push_back(Params{{first_key, a}, {second_key, b}});
    return grid;
}

} // namespace exp
} // namespace imsim
