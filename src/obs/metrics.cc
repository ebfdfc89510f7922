#include "obs/metrics.hh"

namespace imsim {
namespace obs {

namespace {

/** Find-or-create in an ordered (name, unique_ptr) list. */
template <typename T>
T &
findOrCreate(std::vector<std::pair<std::string, std::unique_ptr<T>>> &list,
             const std::string &name)
{
    for (auto &entry : list)
        if (entry.first == name)
            return *entry.second;
    list.emplace_back(name, std::make_unique<T>());
    return *list.back().second;
}

} // namespace

Counter &
MetricRegistry::counter(const std::string &name)
{
    return findOrCreate(counterList, name);
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return findOrCreate(gaugeList, name);
}

Gauge &
MetricRegistry::registerGauge(const std::string &name,
                              std::function<double()> fn)
{
    Gauge &g = gauge(name);
    g.setProvider(std::move(fn));
    return g;
}

std::size_t
MetricRegistry::size() const
{
    return counterList.size() + gaugeList.size();
}

} // namespace obs
} // namespace imsim
