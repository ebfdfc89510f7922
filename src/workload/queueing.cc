#include "workload/queueing.hh"

#include <algorithm>

#include "obs/profiler.hh"
#include "util/logging.hh"
#include "workload/perf.hh"

namespace imsim {
namespace workload {

QueueingCluster::QueueingCluster(sim::Simulation &simulation,
                                 util::Rng rng_in, Params params)
    : sim(simulation), rng(rng_in), cfg(params)
{
    util::fatalIf(cfg.serviceMean <= 0.0,
                  "QueueingCluster: service mean must be positive");
    util::fatalIf(cfg.threadsPerServer <= 0,
                  "QueueingCluster: need at least one thread per server");
    util::fatalIf(cfg.kappa < 0.0 || cfg.kappa > 1.0,
                  "QueueingCluster: kappa out of [0,1]");
}

std::size_t
QueueingCluster::addServer(GHz freq)
{
    util::fatalIf(freq <= 0.0, "QueueingCluster::addServer: bad frequency");
    accountVmTime();
    auto server = std::make_unique<Server>(cfg.utilWindow);
    server->freq = freq;
    server->threads = cfg.threadsPerServer;
    server->createdAt = sim.now();
    server->lastChange = sim.now();
    server->lastCounterAdvance = sim.now();
    recordUtilization(*server, 0.0);
    servers.push_back(std::move(server));
    const std::size_t id = servers.size() - 1;
    maxActive = std::max(maxActive, activeServers());
    // A new server can immediately absorb queued work.
    while (!queue.empty() &&
           servers[id]->busy < servers[id]->threads) {
        Request req = queue.front();
        queue.pop_front();
        dispatch(id, req);
    }
    return id;
}

std::size_t
QueueingCluster::removeServer()
{
    accountVmTime();
    for (std::size_t id = servers.size(); id-- > 0;) {
        if (servers[id]->active) {
            servers[id]->active = false;
            ++utilStamp;
            return id;
        }
    }
    util::fatal("QueueingCluster::removeServer: no active server");
}

void
QueueingCluster::crashServer(std::size_t id)
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::crashServer: bad server id");
    Server &server = *servers[id];
    util::fatalIf(!server.active,
                  "QueueingCluster::crashServer: server not active");
    accountVmTime();
    // Advance the busy integral and counters up to the crash instant,
    // then zero the thread state: the interrupted work is not lost, it
    // goes back to the queue below.
    recordBusyChange(server);
    server.busy = 0;
    server.active = false;
    server.crashed = true;
    recordUtilization(server, 0.0);

    // Cancel the in-flight completions and requeue their requests, in
    // arrival order (slot index breaks ties), ahead of the queued
    // backlog — they arrived before everything still waiting.
    std::vector<std::pair<Seconds, Seconds>> interrupted; // (arrival, demand)
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(inFlight.size()); ++slot) {
        InFlight &rec = inFlight[slot];
        if (!rec.live || rec.server != id)
            continue;
        sim.cancel(rec.completion);
        interrupted.emplace_back(rec.arrival, rec.demand);
        rec.live = false;
        rec.nextFree = inFlightFree;
        inFlightFree = slot;
    }
    std::stable_sort(interrupted.begin(), interrupted.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (auto it = interrupted.rbegin(); it != interrupted.rend(); ++it)
        queue.push_front(Request{it->first, it->second});

    // Surviving servers with free threads absorb the displaced work.
    drainQueue();
}

void
QueueingCluster::repairServer(std::size_t id)
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::repairServer: bad server id");
    Server &server = *servers[id];
    util::fatalIf(!server.crashed,
                  "QueueingCluster::repairServer: server not crashed");
    accountVmTime();
    server.crashed = false;
    server.active = true;
    server.busy = 0;
    // Restart the piecewise-constant signals at the repair instant; the
    // dead gap reads as zero utilization and contributes no counter
    // cycles (callers invalidate their Aperf/Pperf deltas on crash).
    server.lastChange = sim.now();
    server.lastCounterAdvance = sim.now();
    recordUtilization(server, 0.0);
    maxActive = std::max(maxActive, activeServers());
    // A repaired server can immediately absorb queued work.
    while (!queue.empty() && server.busy < server.threads) {
        Request req = queue.front();
        queue.pop_front();
        dispatch(id, req);
    }
}

bool
QueueingCluster::isCrashed(std::size_t id) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::isCrashed: bad server id");
    return servers[id]->crashed;
}

std::size_t
QueueingCluster::crashedServers() const
{
    std::size_t count = 0;
    for (const auto &server : servers)
        if (server->crashed)
            ++count;
    return count;
}

int
QueueingCluster::busyThreads(std::size_t id) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::busyThreads: bad server id");
    return servers[id]->busy;
}

void
QueueingCluster::drainQueue()
{
    int target;
    while (!queue.empty() && (target = pickServer()) >= 0) {
        Request req = queue.front();
        queue.pop_front();
        dispatch(static_cast<std::size_t>(target), req);
    }
}

void
QueueingCluster::setFrequency(std::size_t id, GHz freq)
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::setFrequency: bad server id");
    util::fatalIf(freq <= 0.0,
                  "QueueingCluster::setFrequency: bad frequency");
    advanceCounters(*servers[id]);
    servers[id]->freq = freq;
}

void
QueueingCluster::setAllFrequencies(GHz freq)
{
    for (std::size_t id = 0; id < servers.size(); ++id)
        if (servers[id]->active)
            setFrequency(id, freq);
}

GHz
QueueingCluster::frequency(std::size_t id) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::frequency: bad server id");
    return servers[id]->freq;
}

void
QueueingCluster::setArrivalRate(double qps)
{
    util::fatalIf(qps < 0.0, "QueueingCluster: negative arrival rate");
    arrivalRate = qps;
    if (arrivalPending) {
        sim.cancel(arrivalEvent);
        arrivalPending = false;
    }
    if (arrivalRate > 0.0)
        scheduleNextArrival();
}

void
QueueingCluster::scheduleNextArrival()
{
    const Seconds gap = rng.exponential(1.0 / arrivalRate);
    arrivalEvent = sim.after(gap, [this] {
        arrivalPending = false;
        onArrival();
    });
    arrivalPending = true;
}

void
QueueingCluster::onArrival()
{
    obs::ProfScope prof("workload.queueing.arrival");
    Request req;
    req.arrival = sim.now();
    req.demand = rng.lognormalMeanCv(cfg.serviceMean, cfg.serviceCv);

    const int target = pickServer();
    if (target >= 0)
        dispatch(static_cast<std::size_t>(target), req);
    else
        queue.push_back(req);

    if (arrivalRate > 0.0)
        scheduleNextArrival();
}

int
QueueingCluster::pickServer() const
{
    // Least-loaded active server with a free thread (the load balancer).
    int best = -1;
    double best_load = 2.0;
    for (std::size_t id = 0; id < servers.size(); ++id) {
        const Server &server = *servers[id];
        if (!server.active || server.busy >= server.threads)
            continue;
        const double load =
            static_cast<double>(server.busy) /
            static_cast<double>(server.threads);
        if (load < best_load) {
            best_load = load;
            best = static_cast<int>(id);
        }
    }
    return best;
}

void
QueueingCluster::dispatch(std::size_t id, Request req)
{
    Server &server = *servers[id];
    util::panicIf(server.busy >= server.threads,
                  "QueueingCluster::dispatch: server has no free thread");
    recordBusyChange(server);
    ++server.busy;
    recordUtilization(server, static_cast<double>(server.busy) /
                                  static_cast<double>(server.threads));

    const double scale =
        serviceTimeScale(cfg.kappa, cfg.refFreq, server.freq);
    const Seconds duration = req.demand * scale;
    const std::uint32_t slot = allocInFlight();
    InFlight &rec = inFlight[slot];
    rec.arrival = req.arrival;
    rec.demand = req.demand;
    rec.server = static_cast<std::uint32_t>(id);
    rec.live = true;
    rec.completion = sim.after(duration, [this, slot] { complete(slot); });
}

std::uint32_t
QueueingCluster::allocInFlight()
{
    if (inFlightFree != kNoInFlight) {
        const std::uint32_t slot = inFlightFree;
        inFlightFree = inFlight[slot].nextFree;
        inFlight[slot].nextFree = kNoInFlight;
        return slot;
    }
    inFlight.emplace_back();
    return static_cast<std::uint32_t>(inFlight.size() - 1);
}

void
QueueingCluster::complete(std::uint32_t slot)
{
    const InFlight rec = inFlight[slot];
    inFlight[slot].live = false;
    inFlight[slot].nextFree = inFlightFree;
    inFlightFree = slot;
    const Seconds latency = sim.now() - rec.arrival;
    latencyStats.add(latency);
    if (!tailBuckets.empty())
        recordTailLatency(latency);
    ++completedCount;
    onCompletion(rec.server);
}

void
QueueingCluster::onCompletion(std::size_t id)
{
    Server &server = *servers[id];
    recordBusyChange(server);
    --server.busy;
    util::panicIf(server.busy < 0,
                  "QueueingCluster::onCompletion: negative busy count");
    recordUtilization(server, static_cast<double>(server.busy) /
                                  static_cast<double>(server.threads));

    if (server.active && !queue.empty()) {
        Request req = queue.front();
        queue.pop_front();
        dispatch(id, req);
    }
}

void
QueueingCluster::recordBusyChange(Server &server)
{
    const Seconds dt = sim.now() - server.lastChange;
    server.busyIntegral += dt * static_cast<double>(server.busy);
    server.lastChange = sim.now();
    advanceCounters(server);
}

void
QueueingCluster::recordUtilization(Server &server, double value)
{
    server.utilWindow.record(sim.now(), value);
    ++utilStamp;
}

void
QueueingCluster::advanceCounters(Server &server)
{
    const Seconds dt = sim.now() - server.lastCounterAdvance;
    if (dt <= 0.0)
        return;
    const double busy_frac =
        static_cast<double>(server.busy) /
        static_cast<double>(server.threads);
    server.counters.advance(dt, server.freq, busy_frac, 1.0 - cfg.kappa);
    server.lastCounterAdvance = sim.now();
}

double
QueueingCluster::utilization(std::size_t id, Seconds window) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::utilization: bad server id");
    return servers[id]->utilWindow.average(sim.now(), window);
}

double
QueueingCluster::fleetUtilization(Seconds window) const
{
    const Seconds now = sim.now();
    for (const FleetUtilMemo &memo : utilMemo)
        if (memo.stamp == utilStamp && memo.now == now &&
            memo.window == window)
            return memo.value;

    double total = 0.0;
    std::size_t active = 0;
    for (std::size_t id = 0; id < servers.size(); ++id) {
        if (!servers[id]->active)
            continue;
        total += utilization(id, window);
        ++active;
    }
    const double value = active ? total / static_cast<double>(active) : 0.0;
    utilMemo[utilMemoNext] = FleetUtilMemo{now, window, utilStamp, value};
    utilMemoNext ^= 1;
    return value;
}

hw::CounterSample
QueueingCluster::counters(std::size_t id)
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::counters: bad server id");
    advanceCounters(*servers[id]);
    return servers[id]->counters.sample();
}

std::size_t
QueueingCluster::activeServers() const
{
    std::size_t count = 0;
    for (const auto &server : servers)
        if (server->active)
            ++count;
    return count;
}

bool
QueueingCluster::isActive(std::size_t id) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::isActive: bad server id");
    return servers[id]->active;
}

void
QueueingCluster::accountVmTime()
{
    const Seconds dt = sim.now() - lastVmAccounting;
    vmSecondsIntegral += dt * static_cast<double>(activeServers());
    lastVmAccounting = sim.now();
}

double
QueueingCluster::vmHours() const
{
    const Seconds dt = sim.now() - lastVmAccounting;
    return (vmSecondsIntegral + dt * static_cast<double>(activeServers())) /
           units::kSecondsPerHour;
}

double
QueueingCluster::lifetimeBusyFraction(std::size_t id) const
{
    util::fatalIf(id >= servers.size(),
                  "QueueingCluster::lifetimeBusyFraction: bad server id");
    const Server &server = *servers[id];
    const Seconds lived = sim.now() - server.createdAt;
    if (lived <= 0.0)
        return 0.0;
    const Seconds dt = sim.now() - server.lastChange;
    const double busy_seconds =
        server.busyIntegral + dt * static_cast<double>(server.busy);
    return busy_seconds /
           (lived * static_cast<double>(server.threads));
}

void
QueueingCluster::enableTailTracking(Seconds window, std::size_t buckets)
{
    // 0.1 ms .. 100 s log-spaced: ~5.5% per-bin resolution across the
    // six decades a crisis can stretch a latency distribution over.
    enableTailTracking(window, buckets,
                       util::QuantileSketch::logarithmic(1e-4, 100.0,
                                                         256));
}

void
QueueingCluster::enableTailTracking(Seconds window, std::size_t buckets,
                                    const util::QuantileSketch &prototype)
{
    util::fatalIf(window <= 0.0,
                  "enableTailTracking: window must be > 0");
    util::fatalIf(buckets == 0,
                  "enableTailTracking: need at least one bucket");
    util::fatalIf(prototype.bins() == 0,
                  "enableTailTracking: prototype sketch has no bins");
    tailBuckets.assign(buckets, prototype);
    for (util::QuantileSketch &bucket : tailBuckets)
        bucket.reset();
    tailBucketSpan = window / static_cast<double>(buckets);
    tailBucketCur = 0;
    tailBucketStart = sim.now();
}

void
QueueingCluster::recordTailLatency(Seconds latency)
{
    const Seconds now = sim.now();
    // Rotate the ring up to once around; a gap longer than the whole
    // window has already staled every bucket, so just restart there.
    std::size_t steps = 0;
    while (now - tailBucketStart >= tailBucketSpan &&
           steps < tailBuckets.size()) {
        tailBucketCur = (tailBucketCur + 1) % tailBuckets.size();
        tailBuckets[tailBucketCur].reset();
        tailBucketStart += tailBucketSpan;
        ++steps;
    }
    if (now - tailBucketStart >= tailBucketSpan)
        tailBucketStart = now;
    tailBuckets[tailBucketCur].add(latency);
}

double
QueueingCluster::recentTailQuantile(double p) const
{
    if (tailBuckets.empty())
        return 0.0;
    return util::QuantileSketch::mergedQuantile(tailBuckets, p);
}

} // namespace workload
} // namespace imsim
