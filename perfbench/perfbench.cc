/**
 * @file
 * End-to-end benchmark binary: runs one workload for a time budget,
 * checks every simulated outcome, and prints the end-to-end metrics
 * (untraced run) or the per-layer split of host time (traced run) as
 * one JSON line. See README.md for the workloads and how to read the
 * metrics; run.py builds this binary and is the entry point.
 *
 *   imsim_perfbench --workload W --seed N --seconds S --trace 0|1
 *                   [--sim-threads T] [--smoke] [--trace-out FILE]
 *
 * Work is done in passes: one pass simulates the workload's fixed
 * scenario from the seed, so every pass of a run must reproduce the
 * first pass's outcome digest bit for bit. Passes repeat until the
 * time budget is spent. In a traced run, odd passes run with the
 * profiler on and even passes with it off, which gives the tracing
 * overhead from the same process.
 *
 * The gated timings are CPU time of the thread that calls the library
 * (the simulating thread): on a shared host, wall time also counts the
 * time the hypervisor takes the CPU away, which swings by tens of
 * percent between runs. Wall-clock figures are printed alongside and
 * reported per layer.
 *
 * Layer spans are obs::ProfScope scopes opened here, around calls into
 * the library's public API, plus the scopes already compiled into the
 * library; the profiler keeps them in memory and they are written out
 * once, at exit.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "autoscale/experiment.hh"
#include "cluster/datacenter.hh"
#include "control/controllers.hh"
#include "control/env.hh"
#include "fault/plan.hh"
#include "fleet/state.hh"
#include "obs/blackbox.hh"
#include "obs/fleet_agg.hh"
#include "obs/profiler.hh"
#include "obs/watchdog.hh"
#include "util/shard.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace imsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
clockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** One instant on the wall clock and on two CPU clocks. */
struct Stamp
{
    Clock::time_point wall = Clock::now();
    /** CPU time of the calling (simulating) thread. */
    double threadCpu = clockSeconds(CLOCK_THREAD_CPUTIME_ID);
    /** CPU time of the whole process, all threads. */
    double processCpu = clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
};

double
wallBetween(const Stamp &begin, const Stamp &end)
{
    return std::chrono::duration<double>(end.wall - begin.wall).count();
}

/** FNV-1a over the bit patterns of the simulated outcome. */
class Digest
{
  public:
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** What one pass measured and produced. */
struct Pass
{
    double timedS = 0.0;    ///< Wall time of the timed steps.
    double timedCpuS = 0.0; ///< Simulating thread's CPU time over them.
    double cpuS = 0.0;      ///< Process CPU time over them, all threads.
    double spanWallS = 0.0; ///< Wall time the layer spans should cover.
    double serverMinutes = 0.0;
    double requests = 0.0;
    double cappingShare = 0.0; ///< Mean over the pass's datacenter runs.
    double ocWastedShare = 0.0;
    Digest digest;
    std::vector<std::string> violations;

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
    void checkFinite(double v, const char *what)
    {
        check(std::isfinite(v), std::string(what) + " is not finite");
    }
    void addTimed(const Stamp &begin, const Stamp &end)
    {
        timedS += wallBetween(begin, end);
        timedCpuS += end.threadCpu - begin.threadCpu;
        cpuS += end.processCpu - begin.processCpu;
    }
};

/** Host-time samples shared by every pass of a run. */
struct Samples
{
    /** One per set-up (session, sim, env or experiment built). */
    std::vector<double> setupCpuS, setupWallS;
    /** One per timed step. */
    std::vector<double> stepCpuMs, stepWallMs;

    void setup(const Stamp &begin, const Stamp &end)
    {
        setupCpuS.push_back(end.threadCpu - begin.threadCpu);
        setupWallS.push_back(wallBetween(begin, end));
    }
    void step(const Stamp &begin, const Stamp &end)
    {
        stepCpuMs.push_back(1e3 * (end.threadCpu - begin.threadCpu));
        stepWallMs.push_back(1e3 * wallBetween(begin, end));
    }
};

/**
 * Book a monolithic run whose hook stamped @p ticks once per step:
 * the time before the first poll is set-up, each interval between
 * polls is a step, and the first poll to @p end is timed.
 */
void
bookPolledRun(Pass &pass, Samples &samples, const Stamp &begin,
              const std::vector<Stamp> &ticks, const Stamp &end)
{
    pass.check(ticks.size() >= 2, "the step hook was not polled");
    if (ticks.size() < 2)
        return;
    samples.setup(begin, ticks.front());
    for (std::size_t i = 1; i < ticks.size(); ++i)
        samples.step(ticks[i - 1], ticks[i]);
    pass.addTimed(ticks.front(), end);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t simThreads = 2;
    bool smoke = false;
    std::string traceOut;
};

// ---------------------------------------------------------------------
// Datacenter shape shared by the two fleet workloads.
// ---------------------------------------------------------------------

/**
 * The feed of the 100k-server fleet [W]. bench_hot_paths' 3.5e7 W caps
 * every minute of a per-server day, so the uncapped branch never runs;
 * at 4.0e7 W capping fires for part of the quarter-day only (the
 * measured share is in README.md and the traced run's
 * power.capping_minutes_share).
 */
constexpr Watts kFleetFeedW = 4.0e7;

std::vector<cluster::RackConfig>
fleetRacks(std::size_t rack_count)
{
    cluster::RackConfig batch;
    batch.servers = 40;
    batch.priority = 1;
    cluster::RackConfig latency = batch;
    latency.priority = 2;
    latency.overclockDemand = 0.7;
    std::vector<cluster::RackConfig> racks;
    racks.reserve(rack_count);
    for (std::size_t i = 0; i < rack_count; ++i)
        racks.push_back(i % 3 == 2 ? latency : batch);
    return racks;
}

/** Feed scaled to the fleet size, so smoke fleets cap like the full one. */
Watts
fleetFeed(std::size_t rack_count)
{
    return kFleetFeedW * static_cast<double>(rack_count) / 2500.0;
}

void
addOutcome(Pass &pass, const cluster::DatacenterOutcome &o, Watts feed,
           std::size_t minutes, double runs)
{
    for (double v : {o.energyMwh, o.meanFeedUtilization,
                     o.cappingMinutesShare, o.overclockShare,
                     o.cappedOverclockShare, o.speedupDelivered,
                     o.fleet.meanTj, o.fleet.peakTj,
                     o.fleet.meanWearConsumed, o.fleet.meanWearCredit,
                     o.fleet.meanServerPower}) {
        pass.checkFinite(v, "datacenter outcome");
        pass.digest.add(v);
    }
    const double feed_mwh = feed * static_cast<double>(minutes) / 60.0 / 1e6;
    pass.check(o.energyMwh > 0.0, "no IT energy consumed");
    pass.check(o.energyMwh <= feed_mwh * (1.0 + 1e-9),
               "energy exceeds feed x horizon");
    pass.check(o.cappingMinutesShare >= 0.0 && o.cappingMinutesShare <= 1.0,
               "capping share outside [0, 1]");
    pass.cappingShare += o.cappingMinutesShare / runs;
    pass.ocWastedShare += o.cappedOverclockShare / runs;
}

// ---------------------------------------------------------------------
// fleet-perserver: the benchmark drives PerServerSession minute by
// minute and runs the observers itself, in observeMinute's order.
// ---------------------------------------------------------------------

void
runFleetPerServer(const Options &opt, Pass &pass, Samples &samples,
                  bool traced)
{
    const std::size_t rack_count = opt.smoke ? 60 : 2500;
    const double days = opt.smoke ? 0.02 : 0.25;
    const std::size_t threads = opt.simThreads;
    const Stamp t0;
    const Watts feed = fleetFeed(rack_count);
    cluster::DatacenterPowerSim dc(fleetRacks(rack_count), feed, 1.3,
                                   1.2);
    dc.enablePerServerFidelity(
        cluster::PerServerPhysics::openComputeImmersed());
    dc.setSimThreads(threads);
    obs::FleetAggregator::Config agg_cfg;
    agg_cfg.skuCount = dc.perServerPhysics().skus.size();
    agg_cfg.record = false;
    agg_cfg.cumulative = false;
    obs::FleetBlackbox box(agg_cfg, obs::FlightRecorder::Config{},
                           0.98 * feed, 0.95 * feed);
    util::Rng rng(opt.seed);
    auto session = dc.startPerServerSession(
        cluster::OverclockPolicy::PowerAware, rng, days);
    // The sharded observe's plan: rack-aligned, ~2k servers a shard.
    std::vector<std::size_t> rack_begin{0};
    for (const auto &rack : dc.rackConfigs())
        rack_begin.push_back(rack_begin.back() + rack.servers);
    const util::ShardPlan plan = util::ShardPlan::alignedTo(
        rack_begin, (rack_begin.back() + 2047) / 2048);
    util::ShardRunner runner(threads);
    const Stamp loop0;
    samples.setup(t0, loop0);

    obs::Profiler::setEnabled(traced);
    Stamp prev = loop0;
    for (std::size_t m = 0; !session->done(); ++m) {
        {
            obs::ProfScope span("cluster.session_step");
            session->stepMinutes(1);
        }
        const Seconds t = static_cast<double>(m) * 60.0;
        const obs::FleetView view = fleet::fleetView(session->fleet());
        {
            obs::ProfScope span("obs.aggregate");
            if (threads > 1)
                box.aggregator.observe(t, view, 60.0, plan, runner);
            else
                box.aggregator.observe(t, view, 60.0);
        }
        {
            obs::ProfScope span("obs.watchdog");
            box.watchdog.evaluate(t);
        }
        {
            obs::ProfScope span("obs.recorder");
            box.recorder.tick(t);
        }
        const Stamp stepped;
        samples.step(prev, stepped);
        prev = stepped;
    }
    obs::Profiler::setEnabled(false);
    pass.addTimed(loop0, prev);
    pass.spanWallS = pass.timedS;

    const std::size_t minutes = session->minutesDone();
    const auto outcome = session->finish();
    addOutcome(pass, outcome, feed, minutes, 1.0);
    const obs::FleetSample &last = box.aggregator.latest();
    pass.digest.add(last.fleetPower);
    for (const auto &c : last.overall) {
        for (double v : {c.min, c.mean, c.max, c.p50, c.p95, c.p99})
            pass.digest.add(v);
    }
    pass.digest.add(std::uint64_t{box.watchdog.raisedCount()});
    pass.digest.add(std::uint64_t{box.recorder.ticks()});
    pass.check(box.recorder.ticks() == minutes,
               "flight recorder missed ticks");
    pass.checkFinite(last.fleetPower, "aggregated fleet power");
    pass.serverMinutes = static_cast<double>(outcome.fleet.servers) *
                         static_cast<double>(minutes);
}

// ---------------------------------------------------------------------
// fleet-rackagg: DatacenterPowerSim::run in the default rack-aggregate
// fidelity for the three policies. The run is monolithic, so a
// watchdog rule that never fires is the per-minute clock: the minute
// loop polls it once per simulated minute.
// ---------------------------------------------------------------------

void
runFleetRackAgg(const Options &opt, Pass &pass, Samples &samples,
                bool traced)
{
    const std::size_t rack_count = opt.smoke ? 60 : 2500;
    const double days = opt.smoke ? 0.02 : 1.0;
    const cluster::OverclockPolicy policies[] = {
        cluster::OverclockPolicy::Never,
        cluster::OverclockPolicy::Always,
        cluster::OverclockPolicy::PowerAware};
    for (const auto policy : policies) {
        const Stamp t0;
        const Watts feed = fleetFeed(rack_count);
        cluster::DatacenterPowerSim dc(fleetRacks(rack_count), feed,
                                       1.3, 1.2);
        std::vector<Stamp> ticks;
        ticks.reserve(static_cast<std::size_t>(
            days * units::kMinutesPerDay) + 1);
        obs::Watchdog clock;
        obs::WatchdogRule rule;
        rule.name = "minute_clock";
        rule.signal = [&ticks] {
            ticks.emplace_back();
            return 0.0;
        };
        rule.fireThreshold = 1.0;
        clock.addRule(rule);
        dc.attachObservability(nullptr, &clock);
        util::Rng rng(opt.seed);

        obs::Profiler::setEnabled(traced);
        const Stamp run0;
        cluster::DatacenterOutcome outcome;
        {
            obs::ProfScope span("cluster.run");
            outcome = dc.run(policy, rng, days);
        }
        const Stamp end;
        obs::Profiler::setEnabled(false);
        pass.spanWallS += wallBetween(run0, end);
        // Minute 0 and the traces built before it are set-up.
        bookPolledRun(pass, samples, t0, ticks, end);
        addOutcome(pass, outcome, feed, ticks.size(), 3.0);
        if (!ticks.empty())
            pass.serverMinutes += static_cast<double>(rack_count * 40) *
                                  static_cast<double>(ticks.size() - 1);
    }
}

// ---------------------------------------------------------------------
// control-crisis: bench_control's grid (6 controllers x 2 feeds through
// the scripted crisis day), stepped by the benchmark's own
// observe -> decide -> act -> step loop (the loop runEpisode runs).
// ---------------------------------------------------------------------

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
makeController(std::size_t which, const control::ControlEnv &env,
               std::uint64_t bandit_seed)
{
    using control::StaticOcController;
    const GHz floor = env.minCeiling();
    const GHz cap = env.maxCeiling();
    const Seconds sla = env.config().slaP99;
    switch (which) {
    case 0:
        return std::make_unique<StaticOcController>(
            StaticOcController::Mode::Baseline, floor, cap);
    case 1:
        return std::make_unique<StaticOcController>(
            StaticOcController::Mode::OcA, floor, cap);
    case 2:
        return std::make_unique<StaticOcController>(
            StaticOcController::Mode::OcB, floor, cap);
    case 3:
        return std::make_unique<control::PidTjController>(66.0, floor, cap);
    case 4:
        return std::make_unique<control::GreedyTcoController>(floor, cap, 5,
                                                              sla);
    default:
        return std::make_unique<control::BanditController>(
            floor, cap, bandit_seed, 5, 0.1, sla);
    }
}

void
runControlCrisis(const Options &opt, Pass &pass, Samples &samples,
                 bool traced)
{
    const double days = opt.smoke ? 0.05 : 1.0;
    const Watts feeds[] = {40000.0, 34000.0};
    constexpr std::size_t kControllers = 6;
    const double episodes = 2.0 * kControllers;
    for (std::size_t f = 0; f < 2; ++f) {
        for (std::size_t c = 0; c < kControllers; ++c) {
            const Stamp t0;
            control::ControlEnvConfig cfg;
            cfg.days = days;
            cfg.feedCapacity = feeds[f];
            cfg.simThreads = 1;
            cfg.crises = crisisPlan(days);
            // One stream per feed: every controller in a feed group
            // faces the same traces and arrivals.
            util::Rng rng(2 * opt.seed + f);
            control::ControlEnv env(cfg, rng);
            const auto controller =
                makeController(c, env, 977 + 2 * opt.seed + f);
            const Stamp loop0;
            samples.setup(t0, loop0);

            obs::Profiler::setEnabled(traced);
            Stamp prev = loop0;
            for (bool more = true; more;) {
                control::Action action;
                {
                    obs::ProfScope span("control.decide");
                    action = controller->decide(env.observe());
                }
                env.act(action);
                {
                    obs::ProfScope span("control.step");
                    more = env.step();
                }
                const Stamp stepped;
                samples.step(prev, stepped);
                prev = stepped;
            }
            obs::Profiler::setEnabled(false);
            pass.addTimed(loop0, prev);
            pass.spanWallS += wallBetween(loop0, prev);

            const auto out = env.finish();
            for (double v : {out.p99LatencyS, out.energyMwh,
                             out.meanFleetPowerW, out.maxTjC,
                             out.wearConsumed, out.totalCostUsd,
                             out.costPerMRequestsUsd,
                             out.slaViolationShare, out.meanCeilingGhz}) {
                pass.checkFinite(v, "control outcome");
                pass.digest.add(v);
            }
            pass.digest.add(std::uint64_t{out.requests});
            pass.check(out.requests > 0, "no requests completed");
            const std::size_t minutes =
                out.epochs * static_cast<std::size_t>(cfg.epoch / 60.0);
            addOutcome(pass, out.datacenter, feeds[f], minutes,
                       episodes);
            pass.requests += static_cast<double>(out.requests);
            pass.serverMinutes +=
                static_cast<double>(out.datacenter.fleet.servers) *
                static_cast<double>(minutes);
        }
    }
}

// ---------------------------------------------------------------------
// autoscale-ramp: runFullExperiment for Baseline, OC-E and OC-A. Load
// levels last 100 s instead of the paper's 300 s so several passes fit
// a run; a decision's cost depends on the load level and the window
// lengths, which stay the paper's. The run is monolithic; its
// telemetry sampler, set to the auto-scaler's 3 s decision period,
// polls a benchmark gauge that serves as the per-period clock.
// ---------------------------------------------------------------------

void
runAutoscaleRamp(const Options &opt, Pass &pass, Samples &samples,
                 bool traced)
{
    const autoscale::Policy policies[] = {autoscale::Policy::Baseline,
                                          autoscale::Policy::OcE,
                                          autoscale::Policy::OcA};
    for (const auto policy : policies) {
        const Stamp t0;
        std::vector<Stamp> ticks;
        autoscale::ObsCapture capture;
        capture.telemetryPeriod = 3.0;
        capture.registry.gauge("perfbench.clock").setProvider([&ticks] {
            ticks.emplace_back();
            return 0.0;
        });
        autoscale::ExperimentParams params;
        params.seed = opt.seed;
        params.stepDuration = opt.smoke ? 20.0 : 100.0;
        params.obs = &capture;

        obs::Profiler::setEnabled(traced);
        autoscale::AutoScaleOutcome out;
        {
            obs::ProfScope span("autoscale.run");
            out = autoscale::runFullExperiment(policy, params);
        }
        const Stamp end;
        obs::Profiler::setEnabled(false);
        pass.spanWallS += wallBetween(t0, end);
        // The first poll is the sampler's start, before the scaler
        // runs; the last freezes the gauges after the horizon.
        if (!ticks.empty())
            ticks.pop_back();
        bookPolledRun(pass, samples, t0, ticks, end);

        for (double v : {out.p95Latency, out.meanLatency, out.vmHours,
                         out.avgFrequency, out.avgPowerPerVm}) {
            pass.checkFinite(v, "autoscale outcome");
            pass.digest.add(v);
        }
        pass.digest.add(std::uint64_t{out.maxVms});
        pass.digest.add(std::uint64_t{out.requests});
        pass.digest.add(std::uint64_t{out.trace.size()});
        pass.check(out.requests > 0, "no requests completed");
        pass.check(out.maxVms >= 1 && out.maxVms <= params.maxVms,
                   "VM count outside [1, maxVms]");
        pass.check(out.vmHours > 0.0, "no VM time consumed");
        pass.requests += static_cast<double>(out.requests);
        pass.serverMinutes += out.vmHours * 60.0;
    }
}

// ---------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of a sorted sample, q in [0, 1]. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonResult(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << '"' << metrics[i].name
            << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

/**
 * Spans reported per layer, whether or not the workload enters them:
 * those the gated workloads enter. Other spans (fleet-rackagg's
 * cluster.run and datacenter.run) still show in the profile table.
 */
const char *const kSpans[] = {
    "cluster.session_step", "obs.aggregate",     "obs.watchdog",
    "obs.recorder",         "control.decide",    "control.step",
    "autoscale.run",        "datacenter.minute", "power.allocate",
    "workload.queueing.arrival", "autoscale.decide",
};

int
usage(const std::string &msg)
{
    std::cerr << "imsim_perfbench: " << msg
              << "\nusage: imsim_perfbench --workload "
                 "{fleet-perserver|fleet-rackagg|control-crisis|"
                 "autoscale-ramp} --seed N --seconds S --trace 0|1 "
                 "[--sim-threads T] [--smoke] [--trace-out FILE]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0' && std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            opt.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        double number = 0.0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else if (!parseNumber(value, number)) {
            return usage("bad value for " + flag + ": " + value);
        } else if (flag == "--seed" && number >= 0 && number < 1e15 &&
                   number == std::floor(number)) {
            opt.seed = static_cast<std::uint64_t>(number);
            have_seed = true;
        } else if (flag == "--seconds" && number > 0 && number <= 3600) {
            opt.seconds = number;
        } else if (flag == "--trace" && (number == 0 || number == 1)) {
            opt.trace = number == 1;
        } else if (flag == "--sim-threads" && number >= 1 && number <= 64 &&
                   number == std::floor(number)) {
            opt.simThreads = static_cast<std::size_t>(number);
        } else {
            return usage("bad flag or value: " + flag + " " + value);
        }
    }
    if (!have_seed)
        return usage("--seed is required");

    using PassFn = void (*)(const Options &, Pass &, Samples &, bool);
    const std::map<std::string, PassFn> workloads{
        {"fleet-perserver", runFleetPerServer},
        {"fleet-rackagg", runFleetRackAgg},
        {"control-crisis", runControlCrisis},
        {"autoscale-ramp", runAutoscaleRamp},
    };
    const auto workload = workloads.find(opt.workload);
    if (workload == workloads.end())
        return usage("unknown workload '" + opt.workload + "'");

    obs::Profiler::setEnabled(false);
    obs::Profiler::reset();
    Samples plain;  // untraced passes
    Samples traced; // traced passes (trace runs only)
    std::vector<Pass> passes;
    std::size_t failed = 0;
    // Peak resident set of one pass, as a user running the scenario once
    // sees it. Later passes reuse a heap the earlier ones fragmented,
    // which raised the process peak by 0-13% depending on the seed.
    double peak_rss_mb = 0.0;
    const auto start = Clock::now();
    // A traced run needs an untraced and a traced pass at least.
    const std::size_t min_passes = opt.trace ? 2 : 1;
    while (passes.size() < min_passes || secondsSince(start) < opt.seconds) {
        const bool on = opt.trace && passes.size() % 2 == 1;
        Pass pass;
        try {
            workload->second(opt, pass, on ? traced : plain, on);
        } catch (const std::exception &e) {
            obs::Profiler::setEnabled(false);
            pass.violations.push_back(std::string("exception: ") + e.what());
        }
        if (!passes.empty() &&
            pass.digest.value() != passes.front().digest.value())
            pass.violations.push_back("digest differs from the first pass");
        std::cout << "pass " << passes.size() << (on ? " traced" : "")
                  << ": timed " << pass.timedS << " s wall, "
                  << pass.timedCpuS << " s simulating-thread CPU, "
                  << pass.cpuS << " s process CPU\n";
        for (const auto &v : pass.violations)
            std::cout << "pass " << passes.size() << ": FAILED: " << v
                      << '\n';
        failed += pass.violations.empty() ? 0 : 1;
        if (passes.empty()) {
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        passes.push_back(std::move(pass));
    }
    const obs::ProfileReport profile = obs::Profiler::report();

    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(
                      passes.front().digest.value()));
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << " passes " << passes.size() << " digest " << digest_hex
              << '\n';

    std::vector<double> plain_cpu, plain_rate, plain_wall_rate, request_rate;
    std::vector<double> overhead_base, overhead_traced;
    double cpu_all = 0.0, timed_all = 0.0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        cpu_all += p.cpuS;
        timed_all += p.timedS;
        if (opt.trace && i % 2 == 1) {
            overhead_traced.push_back(p.timedCpuS);
            continue;
        }
        plain_cpu.push_back(p.cpuS);
        plain_rate.push_back(p.serverMinutes / p.timedCpuS);
        plain_wall_rate.push_back(p.serverMinutes / p.timedS);
        request_rate.push_back(p.requests / p.timedCpuS);
        // The first pass warms caches and the allocator; the tracing
        // overhead compares against later untraced passes when any ran.
        if (i > 0 || passes.size() < 3)
            overhead_base.push_back(p.timedCpuS);
    }
    const Pass &first = passes.front();
    std::vector<double> cpu_steps = plain.stepCpuMs;
    std::vector<double> wall_steps = plain.stepWallMs;
    std::sort(cpu_steps.begin(), cpu_steps.end());
    std::sort(wall_steps.begin(), wall_steps.end());
    // p99 needs at least 10 samples beyond it; below 1000 steps the
    // highest level that keeps 10 beyond it is reported instead.
    const std::size_t n = cpu_steps.size();
    const double tail_q =
        n >= 1000 ? 0.99
                  : std::max(0.5, 1.0 - 10.0 / std::max<double>(n, 1));
    std::cout << "untraced: " << n << " step samples (tail level p"
              << 100.0 * tail_q << "), " << plain.setupCpuS.size()
              << " set-up samples\n"
              << "untraced wall clock: set-up " << median(plain.setupWallS)
              << " s, " << median(plain_wall_rate) << " server-min/s, step p50 "
              << quantile(wall_steps, 0.5) << " ms, tail "
              << quantile(wall_steps, tail_q) << " ms\n";

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(plain.setupCpuS), "s"},
            {"server_minutes_per_cpu_s", median(plain_rate),
             "server-min/cpu-s"},
            {"step_cpu_ms_p50", quantile(cpu_steps, 0.5), "ms"},
            {"step_cpu_ms_p99", quantile(cpu_steps, tail_q), "ms"},
            {"cpu_s", median(plain_cpu), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
        };
    } else {
        // Per-span calls and self time, summed over every call path
        // that ends in the span, per traced pass.
        const double traced_passes = static_cast<double>(passes.size() / 2);
        std::map<std::string, std::pair<double, double>> spans;
        double covered_ms = 0.0;
        for (const auto &e : profile.entries()) {
            const auto slash = e.path.rfind('/');
            const std::string name =
                slash == std::string::npos ? e.path : e.path.substr(slash + 1);
            spans[name].first += static_cast<double>(e.count);
            spans[name].second += e.selfMs / 1e3;
            if (slash == std::string::npos)
                covered_ms += e.totalMs;
        }
        profile.toTable().print(std::cout);
        for (const char *name : kSpans) {
            const auto it = spans.find(name);
            const double calls = it == spans.end() ? 0.0 : it->second.first;
            const double self = it == spans.end() ? 0.0 : it->second.second;
            metrics.push_back({std::string(name) + ".calls",
                               calls / traced_passes, "count"});
            metrics.push_back({std::string(name) + ".self_s",
                               self / traced_passes, "s"});
            spans.erase(name);
        }
        for (const auto &[name, value] : spans)
            std::cout << "span " << name << " is not reported per layer\n";
        double span_wall = 0.0;
        for (std::size_t i = 1; i < passes.size(); i += 2)
            span_wall += passes[i].spanWallS;
        metrics.push_back({"trace.uncovered_share",
                           1.0 - covered_ms / 1e3 / span_wall, "share"});
        metrics.push_back(
            {"trace_overhead",
             median(overhead_traced) / median(overhead_base) - 1.0, "share"});
        metrics.push_back(
            {"util.shard.parallelism", cpu_all / timed_all, "cpu/wall"});
        metrics.push_back({"wall.server_minutes_per_s",
                           median(plain_wall_rate), "server-min/s"});
        metrics.push_back(
            {"wall.step_ms_p50", quantile(wall_steps, 0.5), "ms"});
        metrics.push_back(
            {"wall.step_ms_p99", quantile(wall_steps, tail_q), "ms"});
        metrics.push_back({"workload.requests", first.requests, "count"});
        metrics.push_back({"workload.requests_per_cpu_s",
                           median(request_rate), "req/cpu-s"});
        metrics.push_back({"power.capping_minutes_share",
                           first.cappingShare, "share"});
        metrics.push_back({"cluster.oc_wasted_share", first.ocWastedShare,
                           "share"});
        if (!opt.traceOut.empty())
            profile.writeJsonFile(opt.traceOut);
    }
    for (const auto &m : metrics)
        std::cout << "metric " << m.name << " = " << m.value << ' '
                  << m.unit << '\n';
    std::cout << jsonResult(failed == 0, passes.size(), failed, metrics)
              << std::endl;
    return 0;
}
