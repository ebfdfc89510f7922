/**
 * @file
 * Whole-server power aggregation.
 *
 * Encodes the paper's Open Compute server budget (Sec. III): 410 W for two
 * 205 W sockets, 120 W for 24 DDR4 DIMMs (5 W each), 26 W motherboard,
 * 30 W FPGA, 72 W storage (6 flash drives at 12 W), and 42 W of fans —
 * 700 W total. Immersion removes the fans; memory power scales with the
 * memory frequency when overclocked.
 */

#ifndef IMSIM_POWER_SERVER_POWER_HH
#define IMSIM_POWER_SERVER_POWER_HH

#include <string>
#include <vector>

#include "power/socket_power.hh"
#include "thermal/cooling.hh"
#include "util/units.hh"

namespace imsim {
namespace power {

/** Static (non-CPU) component of the server power budget. */
struct ServerComponent
{
    std::string name;
    Watts powerEach;   ///< Power per unit at nominal settings [W].
    int count;         ///< Number of units.
    bool isFan;        ///< Fans are removed under immersion.
    bool scalesWithMemoryClock; ///< DIMM power scales with memory clock.
};

/** Breakdown of a server power computation. */
struct ServerPowerBreakdown
{
    Watts sockets;   ///< Sum of socket package power [W].
    Watts memory;    ///< DIMM power [W].
    Watts fans;      ///< Fan power (0 under immersion) [W].
    Watts other;     ///< Motherboard, FPGA, storage [W].
    Watts total;     ///< Total server power [W].
    Celsius socketTj;///< Junction temperature of the hottest socket [C].
};

/**
 * Power model of a dual-socket Open Compute server.
 */
class ServerPowerModel
{
  public:
    /**
     * @param socket        Socket power model (both sockets identical).
     * @param sockets       Socket count (2 for the paper's blades).
     * @param components    Non-CPU component budget.
     * @param nominal_mem_clock Memory clock at which DIMM power is rated.
     */
    ServerPowerModel(SocketPowerModel socket, int sockets,
                     std::vector<ServerComponent> components,
                     GHz nominal_mem_clock = 2.4);

    /**
     * Compute the server power breakdown.
     *
     * @param op        Per-socket operating point.
     * @param cooling   Cooling system (decides fan presence and leakage).
     * @param mem_clock Memory clock [GHz] (DIMM power scales linearly).
     */
    ServerPowerBreakdown compute(const OperatingPoint &op,
                                 const thermal::CoolingSystem &cooling,
                                 GHz mem_clock = 2.4) const;

    /** @return the socket model. */
    const SocketPowerModel &socketModel() const { return socket; }

    /** @return number of sockets. */
    int socketCount() const { return socketsN; }

    /** The paper's 700 W Open Compute blade (Sec. III). */
    static ServerPowerModel openComputeBlade(GHz all_core_turbo = 2.7);

  private:
    SocketPowerModel socket;
    int socketsN;
    std::vector<ServerComponent> components;
    GHz nominalMemClock;
};

} // namespace power
} // namespace imsim

#endif // IMSIM_POWER_SERVER_POWER_HH
