/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The queueing experiments (Figs. 12, 13, 15, 16; Table XI) run on this
 * kernel: a virtual clock, an event queue ordered by (time, sequence), and
 * helpers for periodic tasks (the auto-scaler's 3 s decision loop, telemetry
 * sampling) and one-shot delayed actions (the 60 s VM scale-out latency).
 *
 * Allocation contract (see DESIGN.md "Performance & hot paths" and
 * bench_hot_paths): events live in a slab with a free list, the binary
 * heap holds 16-byte POD (time, id) records, and per-slot state replaces
 * the old cancellation hash sets. A slot holds either a closure
 * (EventFn) or a typed (EventTarget, tag) pair. Steady-state dispatch —
 * pops, periodic re-arms, typed one-shots, and closure one-shots that
 * fit std::function's small-buffer storage — performs zero heap
 * allocations. Typed one-shots also skip the closure's type erasure:
 * scheduling stores two words and firing is one virtual call.
 */

#ifndef IMSIM_SIM_SIMULATION_HH
#define IMSIM_SIM_SIMULATION_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/units.hh"

namespace imsim {
namespace sim {

/** Callback invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * Receiver of typed one-shot events (Simulation::after with a target).
 *
 * A hot scheduling site that would otherwise capture `(this, index)`
 * in a closure implements fire() instead and passes the index as the
 * tag. The kernel does not own targets: a target must outlive every
 * event scheduled on it, or cancel them first.
 */
class EventTarget
{
  public:
    /** The event scheduled with @p tag fires (clock at its time). */
    virtual void fire(std::uint32_t tag) = 0;

  protected:
    ~EventTarget() = default;
};

/**
 * Opaque handle used to cancel a scheduled event.
 *
 * Handles are unique for the lifetime of a Simulation: the kernel packs
 * a monotonic schedule sequence into the high bits and the slab slot
 * into the low bits, so a handle whose event already fired (or was
 * cancelled) can never resurrect a later event that reuses the slot.
 * Comparing two handles orders them by schedule time, which is what
 * breaks ties between events scheduled for the same timestamp.
 */
using EventId = std::uint64_t;

/**
 * Discrete-event simulation engine.
 *
 * Events scheduled for the same timestamp fire in scheduling order, which
 * keeps runs deterministic (periodic events keep their original position:
 * a re-arm reuses the event's id, and with it its tie-break rank).
 * Cancellation is lazy: a cancelled event's heap record stays queued but
 * is skipped (and its slab slot reclaimed) when popped, so both cancel()
 * and the pop-side check are O(1) — no hashing involved, cancel() flips
 * the event's slab slot to Cancelled in place.
 */
class Simulation
{
  public:
    Simulation() = default;

    /** @return the current virtual time [s]. */
    Seconds now() const { return clock; }

    /**
     * Schedule @p fn to run at absolute time @p t (>= now).
     * @return a handle usable with cancel().
     */
    EventId at(Seconds t, EventFn fn);

    /** Schedule @p fn to run @p delay seconds from now (delay >= 0). */
    EventId after(Seconds delay, EventFn fn);

    /**
     * Schedule the typed one-shot `target.fire(tag)` @p delay seconds
     * from now (delay >= 0). Ids, tie order, cancel() and the counts
     * behave exactly as for a closure event.
     */
    EventId after(Seconds delay, EventTarget &target, std::uint32_t tag);

    /**
     * Schedule @p fn every @p period seconds, first firing at
     * now + @p period. Runs until cancelled or the simulation stops.
     * @return a handle usable with cancel() (cancels future firings).
     */
    EventId every(Seconds period, EventFn fn);

    /** Cancel a pending (or periodic) event; unknown ids are ignored. */
    void cancel(EventId id);

    /**
     * Run until the event queue is exhausted or the clock passes @p horizon.
     *
     * Horizon boundary: events scheduled exactly at the horizon still
     * fire, *including* events that a horizon-time event schedules for
     * the horizon itself (e.g. via after(0)) — the time==horizon
     * cascade runs to completion before runUntil() returns. Events
     * scheduled strictly past the horizon stay queued for a later
     * runUntil()/run(). On return the clock is at least @p horizon.
     */
    void runUntil(Seconds horizon);

    /** Run until the queue is empty. */
    void run();

    /** Stop the current runUntil()/run() after the in-flight event. */
    void stop() { stopping = true; }

    /**
     * @return number of event callbacks actually executed so far.
     * Cancelled events that are popped and skipped are excluded, by
     * both run() and runUntil().
     */
    std::uint64_t eventsExecuted() const { return executed; }

    /** @return number of live (non-cancelled) events currently pending. */
    std::size_t pendingEvents() const { return liveCount; }

  private:
    /**
     * Low bits of an EventId addressing the slab slot; the remaining
     * high bits carry the monotonic schedule sequence. 24 slot bits
     * allow ~16.7M concurrently pending events and ~1.1e12 schedules
     * per Simulation before the (fatal-checked) sequence space runs
     * out.
     */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    enum class SlotState : std::uint8_t
    {
        Free,      ///< On the free list, no event attached.
        Live,      ///< Queued (or currently re-armed periodic).
        Cancelled, ///< Cancelled; heap record not yet popped.
        Running,   ///< One-shot mid-execution; slot reclaimed after.
    };

    /**
     * Slab cell owning one event's callback and bookkeeping: either
     * @c fn, or a typed one-shot's (@c target, @c tag).
     */
    struct Slot
    {
        EventFn fn;
        EventTarget *target = nullptr; ///< Set for typed one-shots only.
        std::uint32_t tag = 0;
        Seconds period = 0.0;    ///< 0 for one-shot events.
        EventId id = 0;          ///< Current full handle; 0 when free.
        std::uint32_t nextFree = kNoSlot; ///< Free-list link.
        SlotState state = SlotState::Free;
    };

    /**
     * POD heap record: the priority queue orders by (time, id), and
     * because ids carry the schedule sequence in their high bits this
     * reproduces the documented same-timestamp scheduling order.
     */
    struct HeapEntry
    {
        Seconds time;
        EventId id;

        bool
        operator>(const HeapEntry &other) const
        {
            if (time != other.time)
                return time > other.time;
            return id > other.id;
        }
    };

    static std::uint32_t slotIndex(EventId id)
    {
        return static_cast<std::uint32_t>(id) & kSlotMask;
    }

    EventId push(Seconds t, EventFn fn, Seconds period);
    std::uint32_t claimSlot(Seconds t);
    EventId arm(std::uint32_t index, Seconds t, Seconds period);
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t index);
    void drain(bool bounded, Seconds horizon);

    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>> queue;
    std::vector<Slot> slots;
    std::uint32_t freeHead = kNoSlot;
    std::size_t liveCount = 0;
    Seconds clock = 0.0;
    std::uint64_t nextSeq = 1;
    std::uint64_t executed = 0;
    bool stopping = false;
};

} // namespace sim
} // namespace imsim

#endif // IMSIM_SIM_SIMULATION_HH
