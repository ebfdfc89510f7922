/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulation.hh"
#include "util/logging.hh"

namespace imsim {
namespace {

TEST(Simulation, EventsFireInTimeOrder)
{
    sim::Simulation sim;
    std::vector<int> order;
    sim.at(3.0, [&] { order.push_back(3); });
    sim.at(1.0, [&] { order.push_back(1); });
    sim.at(2.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Simulation, TiesFireInSchedulingOrder)
{
    sim::Simulation sim;
    std::vector<int> order;
    sim.at(1.0, [&] { order.push_back(1); });
    sim.at(1.0, [&] { order.push_back(2); });
    sim.at(1.0, [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ClockAdvancesToEventTime)
{
    sim::Simulation sim;
    Seconds seen = -1.0;
    sim.at(5.5, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(Simulation, AfterSchedulesRelativeToNow)
{
    sim::Simulation sim;
    Seconds inner = -1.0;
    sim.at(2.0, [&] {
        sim.after(3.0, [&] { inner = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(inner, 5.0);
}

TEST(Simulation, SchedulingInThePastIsFatal)
{
    sim::Simulation sim;
    bool threw = false;
    sim.at(2.0, [&] {
        try {
            sim.at(1.0, [] {});
        } catch (const FatalError &) {
            threw = true;
        }
    });
    sim.run();
    EXPECT_TRUE(threw);
}

TEST(Simulation, NegativeDelayIsFatal)
{
    sim::Simulation sim;
    EXPECT_THROW(sim.after(-1.0, [] {}), FatalError);
    EXPECT_THROW(sim.every(0.0, [] {}), FatalError);
}

TEST(Simulation, PeriodicEventRepeats)
{
    sim::Simulation sim;
    int fires = 0;
    sim.every(1.0, [&] { ++fires; });
    sim.runUntil(10.5);
    EXPECT_EQ(fires, 10);
    EXPECT_DOUBLE_EQ(sim.now(), 10.5);
}

TEST(Simulation, CancelStopsPeriodicEvent)
{
    sim::Simulation sim;
    int fires = 0;
    const sim::EventId id = sim.every(1.0, [&] { ++fires; });
    sim.at(3.5, [&] { sim.cancel(id); });
    sim.runUntil(10.0);
    EXPECT_EQ(fires, 3);
}

TEST(Simulation, CancelOneShotBeforeFiring)
{
    sim::Simulation sim;
    bool fired = false;
    const sim::EventId id = sim.at(5.0, [&] { fired = true; });
    sim.at(1.0, [&] { sim.cancel(id); });
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulation, CancelUnknownIdIsIgnored)
{
    sim::Simulation sim;
    EXPECT_NO_THROW(sim.cancel(9999));
    sim.run();
}

TEST(Simulation, PendingEventsExcludesCancelled)
{
    sim::Simulation sim;
    const auto id1 = sim.at(1.0, [] {});
    sim.at(2.0, [] {});
    const auto id3 = sim.at(3.0, [] {});
    EXPECT_EQ(sim.pendingEvents(), 3u);
    sim.cancel(id1);
    sim.cancel(id3);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(id3); // Double cancel changes nothing.
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
}

TEST(Simulation, CancelledPeriodicEventLeavesNoPendingResidue)
{
    sim::Simulation sim;
    const auto id = sim.every(1.0, [] {});
    sim.at(3.5, [&] { sim.cancel(id); });
    sim.run();
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulation, ManyCancellationsStayCheap)
{
    // Regression guard for the old O(n^2) lazy-cancellation scan: 20k
    // cancelled one-shots must pop in (amortised) constant time each.
    sim::Simulation sim;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 20000; ++i)
        ids.push_back(sim.at(1.0 + i * 1e-3, [] {}));
    for (const auto id : ids)
        sim.cancel(id);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulation, RunUntilLeavesFutureEventsPending)
{
    sim::Simulation sim;
    bool fired = false;
    sim.at(10.0, [&] { fired = true; });
    sim.runUntil(5.0);
    EXPECT_FALSE(fired);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    sim.runUntil(15.0);
    EXPECT_TRUE(fired);
}

TEST(Simulation, EventExactlyAtHorizonFires)
{
    sim::Simulation sim;
    bool fired = false;
    sim.at(5.0, [&] { fired = true; });
    sim.runUntil(5.0);
    EXPECT_TRUE(fired);
}

TEST(Simulation, StopHaltsExecution)
{
    sim::Simulation sim;
    int fires = 0;
    sim.every(1.0, [&] {
        ++fires;
        if (fires == 4)
            sim.stop();
    });
    sim.runUntil(100.0);
    EXPECT_EQ(fires, 4);
}

TEST(Simulation, EventsCanScheduleCascades)
{
    sim::Simulation sim;
    int depth = 0;
    std::function<void()> cascade = [&] {
        if (++depth < 50)
            sim.after(0.1, cascade);
    };
    sim.after(0.1, cascade);
    sim.run();
    EXPECT_EQ(depth, 50);
    EXPECT_NEAR(sim.now(), 5.0, 1e-9);
}

TEST(Simulation, ManyEventsAreHandled)
{
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
        sim.at(static_cast<double>(i % 100), [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 10000);
}

// The documented horizon-boundary contract: an event scheduled exactly
// at the horizon fires, including events that a horizon-time event
// itself schedules for the horizon; strictly-later events stay queued.
TEST(Simulation, HorizonTimeEventCascadesAtTheHorizon)
{
    sim::Simulation sim;
    std::vector<int> order;
    sim.at(5.0, [&] {
        order.push_back(1);
        sim.at(5.0, [&] {
            order.push_back(2);
            // Zero-delay from a horizon-time event: still at 5.0.
            sim.after(0.0, [&] { order.push_back(3); });
        });
        // Strictly past the horizon: must not fire yet.
        sim.after(0.5, [&] { order.push_back(99); });
    });
    sim.runUntil(5.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);

    sim.runUntil(6.0);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 99}));
}

// eventsExecuted() counts fired callbacks only: cancelled events the
// loop pops and skips are excluded, under run() ...
TEST(Simulation, EventsExecutedExcludesCancelledUnderRun)
{
    sim::Simulation sim;
    int fired = 0;
    const auto cancelled = sim.at(1.0, [&] { ++fired; });
    sim.at(2.0, [&] { ++fired; });
    sim.cancel(cancelled);
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
}

// ... and under runUntil(), even when the cancelled event sits exactly
// at the horizon.
TEST(Simulation, EventsExecutedExcludesCancelledUnderRunUntil)
{
    sim::Simulation sim;
    int fired = 0;
    sim.at(1.0, [&] { ++fired; });
    const auto at_horizon = sim.at(5.0, [&] { ++fired; });
    sim.cancel(at_horizon);
    sim.runUntil(5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

// ---------------------------------------------------------------------
// Slab semantics: the kernel reuses callback slots through a free list,
// which must never change the observable contract.
// ---------------------------------------------------------------------

// Cancelling a periodic event *between* firings (after it has been
// popped and re-armed at least once) kills every future firing.
TEST(Simulation, CancelReArmedPeriodicBetweenFirings)
{
    sim::Simulation sim;
    int fires = 0;
    const auto id = sim.every(1.0, [&] { ++fires; });
    sim.runUntil(2.5); // Fired at 1.0 and 2.0; re-armed for 3.0.
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(id);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.runUntil(20.0);
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(sim.eventsExecuted(), 2u);
}

// A handle to a dead event must stay dead: even when the kernel reuses
// the event's internal slot, cancelling the stale handle (repeatedly)
// never touches the slot's new occupant.
TEST(Simulation, IdReuseNeverResurrectsCancelledEvent)
{
    sim::Simulation sim;
    std::vector<sim::EventId> stale;
    for (int i = 0; i < 8; ++i)
        stale.push_back(sim.at(1.0 + 0.1 * i, [] {}));
    for (const auto id : stale)
        sim.cancel(id);
    sim.run(); // Reclaims all slots.
    EXPECT_EQ(sim.eventsExecuted(), 0u);

    // These reuse the freed slots.
    int fired = 0;
    std::vector<sim::EventId> fresh;
    for (int i = 0; i < 8; ++i)
        fresh.push_back(sim.at(2.0 + 0.1 * i, [&] { ++fired; }));
    for (const auto id : stale) {
        EXPECT_EQ(std::find(fresh.begin(), fresh.end(), id), fresh.end())
            << "a recycled slot must hand out a fresh handle";
    }
    for (const auto id : stale)
        sim.cancel(id); // Stale handles: must all be no-ops.
    EXPECT_EQ(sim.pendingEvents(), 8u);
    sim.run();
    EXPECT_EQ(fired, 8);
    EXPECT_EQ(sim.eventsExecuted(), 8u);
}

// A periodic event that cancels itself mid-firing stops after that
// firing and leaves no pending residue.
TEST(Simulation, PeriodicSelfCancelDuringFiringStopsFutureFirings)
{
    sim::Simulation sim;
    int fires = 0;
    sim::EventId self = 0;
    self = sim.every(1.0, [&] {
        ++fires;
        if (fires == 3)
            sim.cancel(self);
    });
    sim.run();
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

// Cancelling a one-shot from inside its own callback is a no-op (the
// event is no longer pending while it executes).
TEST(Simulation, OneShotSelfCancelDuringExecutionIsNoOp)
{
    sim::Simulation sim;
    sim::EventId self = 0;
    int fired = 0;
    self = sim.at(1.0, [&] {
        ++fired;
        sim.cancel(self);
    });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

// The recorded-scenario regression: a mixed workload whose
// eventsExecuted()/pendingEvents() trajectory was captured on the
// pre-slab kernel. The refactor must reproduce it exactly.
TEST(Simulation, CountsMatchRecordedScenario)
{
    sim::Simulation sim;
    int fires = 0;
    const auto heartbeat = sim.every(2.0, [&] { ++fires; });
    const auto doomed_periodic = sim.every(3.0, [&] { ++fires; });
    sim.at(1.0, [&] { ++fires; });
    const auto doomed_oneshot = sim.at(4.0, [&] { ++fires; });
    sim.cancel(doomed_oneshot);
    EXPECT_EQ(sim.pendingEvents(), 3u);

    // Recorded on the pre-refactor kernel: the one-shot at 1.0, the
    // heartbeat at 2.0 and 4.0, the doomed periodic at 3.0 = 4
    // executions by t=5.0 (the cancelled one-shot at 4.0 is skipped).
    sim.runUntil(5.0);
    EXPECT_EQ(fires, 4);
    EXPECT_EQ(sim.eventsExecuted(), 4u);
    EXPECT_EQ(sim.pendingEvents(), 2u);

    sim.cancel(doomed_periodic);
    EXPECT_EQ(sim.pendingEvents(), 1u);

    // Heartbeat alone: 6.0, 8.0, 10.0 -> 7 total executions.
    sim.runUntil(10.0);
    EXPECT_EQ(fires, 7);
    EXPECT_EQ(sim.eventsExecuted(), 7u);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(heartbeat);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

// Handles order by schedule time even across slot reuse, which is what
// keeps same-timestamp ties deterministic fleet-wide.
TEST(Simulation, ReusedSlotsPreserveTieOrder)
{
    sim::Simulation sim;
    // Churn the slab so later schedules land on recycled slots.
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 16; ++i)
            sim.at(static_cast<double>(round) + 0.5, [] {});
        sim.runUntil(static_cast<double>(round) + 0.75);
    }
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        sim.at(100.0, [&order, i] { order.push_back(i); });
    sim.run();
    std::vector<int> expect(16);
    for (int i = 0; i < 16; ++i)
        expect[i] = i;
    EXPECT_EQ(order, expect);
}

// Typed one-shot events: a target that logs each fired tag, and can
// run a hook from inside fire() to schedule or cancel more events.
class Recorder final : public sim::EventTarget
{
  public:
    std::vector<int> *log = nullptr;
    std::function<void(std::uint32_t)> onFire;

    void
    fire(std::uint32_t tag) override
    {
        log->push_back(static_cast<int>(tag));
        if (onFire)
            onFire(tag);
    }
};

// Typed and closure events at one timestamp share the tie order: they
// fire in the order they were scheduled, interleaved.
TEST(TypedEvents, TiesWithClosuresFireInSchedulingOrder)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    sim.after(1.0, target, 1);
    sim.after(1.0, [&] { order.push_back(2); });
    sim.after(1.0, target, 3);
    sim.at(1.0, [&] { order.push_back(4); });
    sim.after(1.0, target, 5);
    sim.after(0.5, target, 0);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(TypedEvents, CancelBeforeFiring)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    const sim::EventId doomed = sim.after(1.0, target, 7);
    sim.after(2.0, target, 8);
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(doomed);
    sim.cancel(doomed); // A double cancel is a no-op.
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{8}));
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(TypedEvents, NegativeDelayIsFatal)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    EXPECT_THROW(sim.after(-1.0, target, 0), FatalError);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

// A handle whose typed event fired (or was cancelled) stays dead after
// its slot is reused, by a typed or by a closure event.
TEST(TypedEvents, StaleHandleNeverCancelsSlotReuser)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    const sim::EventId fired = sim.after(1.0, target, 1);
    const sim::EventId cancelled = sim.after(1.5, target, 2);
    sim.cancel(cancelled);
    sim.run(); // Frees both slots.
    EXPECT_EQ(order, (std::vector<int>{1}));

    const sim::EventId typed = sim.after(1.0, target, 3);
    const sim::EventId closure = sim.after(1.0, [&] { order.push_back(4); });
    EXPECT_NE(typed, fired);
    EXPECT_NE(typed, cancelled);
    EXPECT_NE(closure, fired);
    EXPECT_NE(closure, cancelled);
    sim.cancel(fired);
    sim.cancel(cancelled);
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

// fire() may schedule enough events to grow (and relocate) the slab;
// the firing slot is re-found by index afterwards, and every scheduled
// event still fires in order.
TEST(TypedEvents, FireThatGrowsTheSlab)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    constexpr int kFanOut = 1000;
    target.onFire = [&](std::uint32_t tag) {
        if (tag != 0)
            return;
        for (int i = 1; i <= kFanOut; ++i) {
            if (i % 2)
                sim.after(1.0, target, static_cast<std::uint32_t>(i));
            else
                sim.after(1.0, [&order, i] { order.push_back(i); });
        }
    };
    sim.after(1.0, target, 0);
    sim.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kFanOut + 1));
    for (int i = 0; i <= kFanOut; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(sim.eventsExecuted(), static_cast<std::uint64_t>(kFanOut + 1));
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

// Cancelling a typed event from inside its own fire() is a no-op, like
// a closure one-shot's self-cancel.
TEST(TypedEvents, SelfCancelDuringFireIsNoOp)
{
    sim::Simulation sim;
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    sim::EventId self = 0;
    target.onFire = [&](std::uint32_t) { sim.cancel(self); };
    self = sim.after(1.0, target, 9);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{9}));
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(TypedEvents, CountsMatchClosureEvents)
{
    std::vector<int> order;
    Recorder target;
    target.log = &order;
    sim::Simulation typed;
    sim::Simulation closure;
    for (int i = 0; i < 6; ++i) {
        const Seconds t = 1.0 + static_cast<double>(i);
        typed.after(t, target, static_cast<std::uint32_t>(i));
        closure.after(t, [] {});
    }
    typed.cancel(typed.after(3.5, target, 99));
    closure.cancel(closure.after(3.5, [] {}));
    EXPECT_EQ(typed.pendingEvents(), 6u);
    EXPECT_EQ(closure.pendingEvents(), 6u);
    typed.runUntil(3.75);
    closure.runUntil(3.75);
    EXPECT_EQ(typed.eventsExecuted(), 3u);
    EXPECT_EQ(closure.eventsExecuted(), 3u);
    EXPECT_EQ(typed.pendingEvents(), 3u);
    EXPECT_EQ(closure.pendingEvents(), 3u);
    typed.run();
    closure.run();
    EXPECT_EQ(typed.eventsExecuted(), 6u);
    EXPECT_EQ(closure.eventsExecuted(), 6u);
    EXPECT_EQ(typed.pendingEvents(), 0u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

} // namespace
} // namespace imsim
