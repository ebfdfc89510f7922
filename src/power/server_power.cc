#include "power/server_power.hh"

#include "util/logging.hh"

namespace imsim {
namespace power {

ServerPowerModel::ServerPowerModel(SocketPowerModel socket_model,
                                   int sockets,
                                   std::vector<ServerComponent> comps,
                                   GHz nominal_mem_clock)
    : socket(std::move(socket_model)), socketsN(sockets),
      components(std::move(comps)), nominalMemClock(nominal_mem_clock)
{
    util::fatalIf(sockets <= 0, "ServerPowerModel: need at least 1 socket");
    util::fatalIf(nominal_mem_clock <= 0.0,
                  "ServerPowerModel: memory clock must be positive");
}

ServerPowerBreakdown
ServerPowerModel::compute(const OperatingPoint &op,
                          const thermal::CoolingSystem &cooling,
                          GHz mem_clock) const
{
    util::fatalIf(mem_clock <= 0.0,
                  "ServerPowerModel::compute: memory clock must be positive");
    ServerPowerBreakdown out{};

    const PowerSolution sol = socket.solve(op, cooling);
    out.sockets = sol.total * socketsN;
    out.socketTj = sol.tj;

    const bool immersed = cooling.spec().fanOverheadFraction == 0.0;
    for (const auto &comp : components) {
        const double units = static_cast<double>(comp.count);
        Watts p = comp.powerEach * units;
        if (comp.isFan) {
            if (!immersed)
                out.fans += p;
            continue;
        }
        if (comp.scalesWithMemoryClock) {
            p *= mem_clock / nominalMemClock;
            out.memory += p;
        } else {
            out.other += p;
        }
    }
    out.total = out.sockets + out.memory + out.fans + out.other;
    return out;
}

ServerPowerModel
ServerPowerModel::openComputeBlade(GHz all_core_turbo)
{
    std::vector<ServerComponent> comps{
        {"DDR4 DIMM", 5.0, 24, false, true},
        {"Motherboard", 26.0, 1, false, false},
        {"FPGA", 30.0, 1, false, false},
        {"Flash drive", 12.0, 6, false, false},
        {"Fan", 7.0, 6, true, false},
    };
    return ServerPowerModel(SocketPowerModel::skylakeServer(all_core_turbo),
                            2, std::move(comps));
}

} // namespace power
} // namespace imsim
