#include "fault/plan.hh"

#include "util/logging.hh"

namespace imsim {
namespace fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::ServerCrash:
        return "server_crash";
      case FaultKind::ServerRepair:
        return "server_repair";
      case FaultKind::CoolingDegrade:
        return "cooling_degrade";
      case FaultKind::CoolingRestore:
        return "cooling_restore";
      case FaultKind::PowerDerate:
        return "power_derate";
      case FaultKind::PowerRestore:
        return "power_restore";
    }
    util::panic("faultKindName: unhandled kind");
}

FaultPlan &
FaultPlan::at(Seconds t, Fault fault)
{
    util::fatalIf(t < 0.0, "FaultPlan::at: negative time");
    if (fault.kind == FaultKind::CoolingDegrade) {
        util::fatalIf(fault.magnitude < 0.05 || fault.magnitude >= 1.0,
                      "FaultPlan::at: cooling-degrade level out of "
                      "[0.05, 1)");
    }
    if (fault.kind == FaultKind::PowerDerate) {
        util::fatalIf(fault.magnitude <= 0.0 || fault.magnitude >= 1.0,
                      "FaultPlan::at: power-derate fraction out of (0, 1)");
    }
    events.emplace_back(t, fault);
    return *this;
}

} // namespace fault
} // namespace imsim
