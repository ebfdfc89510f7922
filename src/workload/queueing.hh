/**
 * @file
 * M/G/k queueing cluster on the discrete-event kernel: the Client-Server
 * application of Table IX (Markovian arrivals, General service times, k
 * server VMs) behind the Fig. 15/16 and Table XI auto-scaling experiments
 * and the Fig. 12 latency sweeps.
 *
 * Each server VM has a fixed number of service threads (vcores) and a core
 * frequency; a least-loaded dispatcher (the load balancer of Fig. 14)
 * routes requests, and a global FIFO queue absorbs overload. Service times
 * scale with the core clock through the frequency-scalable fraction kappa,
 * the same quantity the Aperf/Pperf counters expose to Eq. 1.
 */

#ifndef IMSIM_WORKLOAD_QUEUEING_HH
#define IMSIM_WORKLOAD_QUEUEING_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "hw/counters.hh"
#include "sim/simulation.hh"
#include "util/random.hh"
#include "util/ring.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace imsim {
namespace workload {

/**
 * Cluster of server VMs fed by an open-loop Poisson arrival stream.
 */
class QueueingCluster
{
  public:
    /** Configuration of the cluster and its service process. */
    struct Params
    {
        Seconds serviceMean = 3.3e-3;  ///< Mean service demand at refFreq.
        double serviceCv = 1.5;        ///< Service-time CV ("General").
        double kappa = 0.9;            ///< Frequency-scalable fraction.
        GHz refFreq = 3.4;             ///< Frequency serviceMean refers to.
        int threadsPerServer = 4;      ///< vCores per server VM.
        Seconds utilWindow = 200.0;    ///< Utilization history retained.
    };

    /**
     * @param simulation Event kernel driving the cluster.
     * @param rng        Random stream (forked internally).
     * @param params     Cluster parameters.
     */
    QueueingCluster(sim::Simulation &simulation, util::Rng rng,
                    Params params);

    /**
     * Add one server VM running at @p freq.
     * @return the server's index (stable; removed servers keep theirs).
     */
    std::size_t addServer(GHz freq);

    /**
     * Deactivate the most recently added active server (scale-in). Its
     * in-flight requests drain; it accepts no new work.
     * @return the id of the server that was deactivated (so callers —
     *         e.g. the auto-scaler's counter bookkeeping — can drop
     *         per-server state for it).
     */
    std::size_t removeServer();

    /**
     * Fault-injection hook: kill server @p id instantly (must be
     * active). Unlike removeServer(), its in-flight requests do not
     * drain — their completions are cancelled and the requests are
     * requeued (original arrival timestamps kept, so the crash penalty
     * shows up in their latency) ahead of the already-queued backlog,
     * then redistributed to surviving free threads. The server's
     * utilization window records 0 from the crash instant on.
     */
    void crashServer(std::size_t id);

    /**
     * Fault-injection hook: bring a crashed server back (must be
     * crashed). It rejoins with zero busy threads, its utilization
     * window restarting from the repair instant (the dead gap reads as
     * zero utilization), and immediately absorbs queued work.
     */
    void repairServer(std::size_t id);

    /** @return whether server @p id is down due to crashServer(). */
    bool isCrashed(std::size_t id) const;

    /** @return number of servers currently down due to crashes. */
    std::size_t crashedServers() const;

    /** @return busy service threads of server @p id right now. */
    int busyThreads(std::size_t id) const;

    /** Set the core frequency of server @p id (scale-up/down). */
    void setFrequency(std::size_t id, GHz freq);

    /** Set the core frequency of every active server. */
    void setAllFrequencies(GHz freq);

    /** @return frequency of server @p id. */
    GHz frequency(std::size_t id) const;

    /** Set the arrival rate [requests/s]; 0 pauses arrivals. */
    void setArrivalRate(double qps);

    /** @return number of active servers. */
    std::size_t activeServers() const;

    /** @return total servers ever added (index bound). */
    std::size_t serverCount() const { return servers.size(); }

    /** @return whether server @p id is active. */
    bool isActive(std::size_t id) const;

    /**
     * Per-server CPU utilization averaged over the trailing
     * @p window seconds.
     */
    double utilization(std::size_t id, Seconds window) const;

    /**
     * Average utilization across active servers over @p window.
     *
     * The auto-scaler, its gauges and the power accounting all read
     * this at the same instant, so the last two results are memoized,
     * keyed on (now, window, a stamp that moves on every utilization
     * record and every change to the active set); a hit returns
     * exactly what a fresh scan would. The memo makes this method
     * thread-compatible, not thread-safe: concurrent calls on one
     * cluster must be synchronized by the caller.
     */
    double fleetUtilization(Seconds window) const;

    /** Counter sample of server @p id (advances counters to now). */
    hw::CounterSample counters(std::size_t id);

    /** @return latency statistics of all completed requests [s]. */
    const util::PercentileEstimator &latencies() const { return latencyStats; }

    /** Reset collected latency statistics (e.g. after warmup). */
    void resetLatencies() { latencyStats.reset(); }

    /**
     * Opt-in *windowed* tail-latency tracking for live SLO watchdogs:
     * completions also feed a ring of @p buckets quantile sketches
     * (util::QuantileSketch copies of @p prototype) rotated every
     * window/buckets seconds, so recentTailQuantile() reflects only
     * the trailing ~window seconds rather than the whole run. O(1)
     * per completion, allocation-free after this call, and — when
     * never enabled — completely free (one branch per completion), so
     * existing runs stay byte-identical.
     *
     * The default prototype's log-spaced bins cover 0.1 ms .. 100 s
     * at ~5% per-bin resolution.
     */
    void enableTailTracking(Seconds window, std::size_t buckets = 8);
    void enableTailTracking(Seconds window, std::size_t buckets,
                            const util::QuantileSketch &prototype);

    /** @return whether enableTailTracking() was called. */
    bool tailTrackingEnabled() const { return !tailBuckets.empty(); }

    /**
     * @param p Quantile in [0, 100].
     * @return the p-th latency percentile [s] over the trailing
     * window (sketch resolution; 0 when disabled or nothing
     * completed recently). Pure read — safe to poll from a watchdog
     * at any cadence. Buckets older than the window at the time of
     * the last completion are included until displaced; with a
     * 1 s-scale poll against the crisis bench's 15 s window the
     * staleness is negligible.
     */
    double recentTailQuantile(double p) const;

    /** @return completed request count. */
    std::uint64_t completed() const { return completedCount; }

    /** @return current global queue depth. */
    std::size_t queueDepth() const { return queue.size(); }

    /** @return integral of active servers over time [VM-hours]. */
    double vmHours() const;

    /** @return peak number of simultaneously active servers. */
    std::size_t maxServers() const { return maxActive; }

    /** @return time-average busy-thread fraction of server @p id since
     *  creation (for power accounting). */
    double lifetimeBusyFraction(std::size_t id) const;

    /** @return the cluster parameters. */
    const Params &params() const { return cfg; }

  private:
    struct Request
    {
        Seconds arrival;
        Seconds demand; ///< Service demand at refFreq [s].
    };

    struct Server
    {
        GHz freq;
        int threads;
        int busy = 0;
        bool active = true;
        bool crashed = false;
        Seconds createdAt = 0.0;
        Seconds busyIntegral = 0.0; ///< busy-thread-seconds accumulated.
        Seconds lastChange = 0.0;
        util::SlidingTimeWindow utilWindow;
        hw::CounterBlock counters;
        Seconds lastCounterAdvance = 0.0;

        explicit Server(Seconds window) : utilWindow(window) {}
    };

    /**
     * In-flight request record, pooled with a free list so the
     * completion callback captures only (this, slot) — 16 bytes, which
     * fits std::function's small-buffer storage. Dispatching a request
     * therefore performs no heap allocation once the pool is warm.
     * The record also keeps the request's demand and its completion
     * event handle so crashServer() can cancel and requeue it.
     */
    struct InFlight
    {
        Seconds arrival = 0.0;
        Seconds demand = 0.0; ///< Service demand at refFreq [s].
        sim::EventId completion = 0;
        std::uint32_t server = 0;
        std::uint32_t nextFree = kNoInFlight;
        bool live = false; ///< Slot holds a dispatched request.
    };

    static constexpr std::uint32_t kNoInFlight = ~std::uint32_t{0};

    void scheduleNextArrival();
    void onArrival();
    void dispatch(std::size_t id, Request req);
    void drainQueue();
    void complete(std::uint32_t slot);
    void onCompletion(std::size_t id);
    void recordBusyChange(Server &server);
    void recordUtilization(Server &server, double value);
    void advanceCounters(Server &server);
    int pickServer() const;
    std::uint32_t allocInFlight();

    sim::Simulation &sim;
    util::Rng rng;
    Params cfg;
    std::vector<std::unique_ptr<Server>> servers;
    /// Global FIFO backlog; a RingDeque so steady-state overload churn
    /// (push_back/pop_front cycles) never touches the allocator.
    util::RingDeque<Request> queue;
    std::vector<InFlight> inFlight;
    std::uint32_t inFlightFree = kNoInFlight;
    double arrivalRate = 0.0;
    sim::EventId arrivalEvent = 0;
    bool arrivalPending = false;
    util::PercentileEstimator latencyStats;
    std::uint64_t completedCount = 0;
    double vmSecondsIntegral = 0.0;
    Seconds lastVmAccounting = 0.0;
    std::size_t maxActive = 0;

    /// One memoized fleetUtilization() result.
    struct FleetUtilMemo
    {
        Seconds now = 0.0;
        Seconds window = 0.0;
        std::uint64_t stamp = ~std::uint64_t{0}; ///< Never a live stamp.
        double value = 0.0;
    };
    /// Bumped whenever an input of fleetUtilization() changes.
    std::uint64_t utilStamp = 0;
    mutable std::array<FleetUtilMemo, 2> utilMemo{};
    mutable std::size_t utilMemoNext = 0; ///< Slot the next miss fills.

    /// Windowed tail-latency ring (empty until enableTailTracking).
    std::vector<util::QuantileSketch> tailBuckets;
    Seconds tailBucketSpan = 0.0;
    Seconds tailBucketStart = 0.0;
    std::size_t tailBucketCur = 0;

    void recordTailLatency(Seconds latency);
    void accountVmTime();
};

} // namespace workload
} // namespace imsim

#endif // IMSIM_WORKLOAD_QUEUEING_HH
