#include "sim/simulation.hh"

#include <limits>
#include <utility>

#include "util/logging.hh"

namespace imsim {
namespace sim {

std::uint32_t
Simulation::allocSlot()
{
    if (freeHead != kNoSlot) {
        const std::uint32_t index = freeHead;
        freeHead = slots[index].nextFree;
        slots[index].nextFree = kNoSlot;
        return index;
    }
    util::fatalIf(slots.size() > kSlotMask,
                  "Simulation: pending-event slab exhausted");
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
Simulation::freeSlot(std::uint32_t index)
{
    Slot &slot = slots[index];
    slot.fn = nullptr; // Release the closure's resources now.
    slot.target = nullptr;
    slot.period = 0.0;
    slot.id = 0;
    slot.state = SlotState::Free;
    slot.nextFree = freeHead;
    freeHead = index;
}

std::uint32_t
Simulation::claimSlot(Seconds t)
{
    util::fatalIf(t < clock, "Simulation: cannot schedule in the past");
    util::fatalIf(nextSeq >
                      (std::numeric_limits<std::uint64_t>::max() >>
                       kSlotBits),
                  "Simulation: event sequence space exhausted");
    return allocSlot();
}

/** Queue the filled slot @p index for time @p t under a fresh id. */
EventId
Simulation::arm(std::uint32_t index, Seconds t, Seconds period)
{
    const EventId id = (nextSeq++ << kSlotBits) | index;
    Slot &slot = slots[index];
    slot.period = period;
    slot.id = id;
    slot.state = SlotState::Live;
    queue.push(HeapEntry{t, id});
    ++liveCount;
    return id;
}

EventId
Simulation::push(Seconds t, EventFn fn, Seconds period)
{
    const std::uint32_t index = claimSlot(t);
    slots[index].fn = std::move(fn);
    return arm(index, t, period);
}

EventId
Simulation::at(Seconds t, EventFn fn)
{
    return push(t, std::move(fn), 0.0);
}

EventId
Simulation::after(Seconds delay, EventFn fn)
{
    util::fatalIf(delay < 0.0, "Simulation::after: negative delay");
    return push(clock + delay, std::move(fn), 0.0);
}

EventId
Simulation::after(Seconds delay, EventTarget &target, std::uint32_t tag)
{
    util::fatalIf(delay < 0.0, "Simulation::after: negative delay");
    const Seconds t = clock + delay;
    const std::uint32_t index = claimSlot(t);
    slots[index].target = &target;
    slots[index].tag = tag;
    return arm(index, t, 0.0);
}

EventId
Simulation::every(Seconds period, EventFn fn)
{
    util::fatalIf(period <= 0.0, "Simulation::every: period must be > 0");
    return push(clock + period, std::move(fn), period);
}

void
Simulation::cancel(EventId id)
{
    // Only live events need work: fired one-shots, unknown or stale
    // (slot-reused) ids, and double cancels fail the id/state check
    // below and are no-ops.
    const std::uint32_t index = slotIndex(id);
    if (index >= slots.size())
        return;
    Slot &slot = slots[index];
    if (slot.id != id || slot.state != SlotState::Live)
        return;
    slot.state = SlotState::Cancelled;
    --liveCount;
}

/**
 * Shared stepping loop of run() and runUntil(): pop (time, id) records,
 * reclaim cancelled slots, re-arm periodics, and fire callbacks.
 *
 * A closure is moved out of its slab slot for the duration of the call
 * (and moved back for periodics): events it schedules may grow the slab
 * vector, which would otherwise relocate the closure mid-execution.
 * std::function moves never allocate, so the dispatch path stays
 * allocation-free. A typed one-shot copies its (target, tag) out and
 * makes one virtual call; no closure is moved or destroyed.
 */
void
Simulation::drain(bool bounded, Seconds horizon)
{
    while (!queue.empty() && !stopping) {
        const HeapEntry top = queue.top();
        if (bounded && top.time > horizon)
            break;
        queue.pop();
        const std::uint32_t index = slotIndex(top.id);
        Slot &slot = slots[index];
        if (slot.state == SlotState::Cancelled) {
            // Skipped cancellations never count as executed.
            freeSlot(index);
            continue;
        }
        clock = top.time;
        ++executed;
        if (slot.target) {
            EventTarget &target = *slot.target;
            const std::uint32_t tag = slot.tag;
            slot.state = SlotState::Running;
            --liveCount;
            target.fire(tag);
            // A Running slot ignores cancel(), so it is still ours.
            freeSlot(index);
            continue;
        }
        EventFn fn = std::move(slot.fn);
        const Seconds period = slot.period;
        if (period > 0.0) {
            // Re-arm the periodic event under the *same* id so that a
            // single cancel() kills all future firings and the event
            // keeps its tie-break rank; the slot stays Live.
            queue.push(HeapEntry{clock + period, top.id});
        } else {
            slot.state = SlotState::Running;
            --liveCount;
        }
        fn();
        // Re-index: fn() may have grown the slab.
        Slot &after_fire = slots[index];
        if (after_fire.state == SlotState::Running)
            freeSlot(index);
        else
            after_fire.fn = std::move(fn); // Periodic (live or cancelled
                                           // mid-fire): hand it back.
    }
}

void
Simulation::runUntil(Seconds horizon)
{
    stopping = false;
    drain(true, horizon);
    if (clock < horizon)
        clock = horizon;
}

void
Simulation::run()
{
    stopping = false;
    drain(false, 0.0);
}

} // namespace sim
} // namespace imsim
