/**
 * @file
 * Multi-dimensional VM bin packing (Sec. V "Dense VM packing").
 *
 * Places VMs onto hosts by best-fit-decreasing over (vcores, memory),
 * optionally oversubscribing physical cores by a configurable ratio — the
 * paper's 10-20 % CPU oversubscription that overclocking then compensates
 * for. Reports packing density (vcores per pcore), the metric whose
 * single percentage points are "hundreds of millions of dollars" at
 * Azure scale [28].
 */

#ifndef IMSIM_CLUSTER_PACKING_HH
#define IMSIM_CLUSTER_PACKING_HH

#include <optional>
#include <vector>

#include "vm/vm.hh"

namespace imsim {
namespace cluster {

/** One host with its current allocation. */
struct PackedHost
{
    vm::HostSpec spec;
    int vcoresUsed = 0;
    double memoryUsedGb = 0.0;
    std::vector<vm::VmSpec> vms;
};

/** Aggregate packing statistics. */
struct PackingStats
{
    std::size_t hostsUsed = 0;    ///< Hosts with at least one VM.
    std::size_t hostsTotal = 0;   ///< Hosts available.
    int vcoresPlaced = 0;         ///< Total vcores placed.
    int pcoresUsed = 0;           ///< Pcores of used hosts.
    double density = 0.0;         ///< vcores placed / pcores used.
    std::size_t failed = 0;       ///< VMs that could not be placed.
};

/**
 * Best-fit-decreasing multi-dimensional packer.
 */
class BinPacker
{
  public:
    /**
     * @param hosts        Homogeneous host fleet.
     * @param count        Number of hosts.
     * @param cpu_oversub  vcore/pcore oversubscription ratio (>= 1).
     */
    BinPacker(vm::HostSpec hosts, std::size_t count,
              double cpu_oversub = 1.0);

    /**
     * Place one VM.
     * @return index of the chosen host, or std::nullopt when no host fits.
     */
    std::optional<std::size_t> place(const vm::VmSpec &vm);

    /**
     * Place all VMs, largest (by vcores) first.
     * @return number successfully placed.
     */
    std::size_t placeAll(std::vector<vm::VmSpec> vms);

    /** Remove every VM hosted on @p host (a host failure). */
    std::vector<vm::VmSpec> evictHost(std::size_t host);

    /** @return aggregate statistics. */
    PackingStats stats() const;

    /** @return the per-host state. */
    const std::vector<PackedHost> &hosts() const { return fleet; }

  private:
    bool fits(const PackedHost &host, const vm::VmSpec &vm) const;
    /** Remaining weighted capacity (for best-fit scoring). */
    double slack(const PackedHost &host) const;

    std::vector<PackedHost> fleet;
    double oversub;
    std::size_t failedCount = 0;
};

} // namespace cluster
} // namespace imsim

#endif // IMSIM_CLUSTER_PACKING_HH
