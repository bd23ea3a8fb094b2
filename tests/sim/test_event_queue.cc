/** @file Unit tests for the event queue core. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

using namespace salam;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, LambdaEventsFireInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    EventFunctionWrapper low([&] { order.push_back(1); }, "low",
                             Event::cpuTickPri);
    EventFunctionWrapper high([&] { order.push_back(0); }, "high",
                              Event::memoryResponsePri);
    q.schedule(&low, 5);
    q.schedule(&high, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            q.schedule(q.curTick() + 10, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(100, [&] { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "cancel-me");
    q.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired_at = 0;
    EventFunctionWrapper ev([&] { fired_at = q.curTick(); }, "move");
    q.schedule(&ev, 10);
    q.reschedule(&ev, 42);
    q.run();
    EXPECT_EQ(fired_at, 42u);
}

TEST(EventQueue, MemberEventReschedulesItself)
{
    EventQueue q;
    int ticks = 0;
    EventFunctionWrapper ev(
        [&] {
            if (++ticks < 3)
                q.schedule(&ev, q.curTick() + 7);
        },
        "self");
    q.schedule(&ev, 0);
    q.run();
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(q.curTick(), 14u);
}

TEST(EventQueue, RunLimitIsInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(50, [&] { ++fired; });
    q.schedule(51, [&] { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 50u);
}

TEST(EventQueue, RunLimitOnEmptyOrFutureQueueDoesNotAdvanceTime)
{
    EventQueue q;
    EXPECT_EQ(q.run(100), 0u);
    EXPECT_EQ(q.curTick(), 0u);
    // A pending event beyond the limit is untouched too.
    int fired = 0;
    q.schedule(500, [&] { ++fired; });
    EXPECT_EQ(q.run(100), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, ResumeAfterLimitInterleavesNewEvents)
{
    EventQueue q;
    std::vector<Tick> fired_at;
    q.schedule(10, [&] { fired_at.push_back(q.curTick()); });
    q.schedule(100, [&] { fired_at.push_back(q.curTick()); });
    q.run(50);
    EXPECT_EQ(fired_at, (std::vector<Tick>{10}));
    // Events scheduled between run() calls still sort into place.
    q.schedule(60, [&] { fired_at.push_back(q.curTick()); });
    q.run();
    EXPECT_EQ(fired_at, (std::vector<Tick>{10, 60, 100}));
}

TEST(EventQueue, DescheduleAtTheLimitBoundary)
{
    // An event left pending exactly at the stop tick can still be
    // descheduled before the queue is resumed.
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "boundary");
    q.schedule(10, [] {});
    q.schedule(&ev, 50);
    q.run(49);
    EXPECT_TRUE(ev.scheduled());
    q.deschedule(&ev);
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReentrantRunServicesNestedWindowThenContinues)
{
    // An event handler may drain the queue up to a nested limit
    // (e.g. co-simulation lockstep); the outer run picks up where
    // the nested one stopped.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(20, [&] { order.push_back(2); });
        q.run(30); // services the tick-20 event, not tick-40
        order.push_back(3);
    });
    q.schedule(40, [&] { order.push_back(4); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.curTick(), 40u);
    EXPECT_EQ(q.numServiced(), 3u);
}

TEST(EventQueue, ServicedCountTracksEvents)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.numServiced(), 10u);
}

// Queue-owned lambdas: each captures a token, so the token's use
// count shows whether the queue still holds the callback. Run under
// ASan, these also catch a double delete or a use after free.
TEST(EventQueue, OwnedLambdaFreedAfterService)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    q.schedule(5, [token] { ++*token; });
    q.schedule(7, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 3);
    q.run();
    EXPECT_EQ(*token, 2);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, OwnedLambdaFreedAfterDeschedule)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    Event *ev = q.schedule(5, [token] { ++*token; });
    q.deschedule(ev);
    // Descheduled, rescheduled and descheduled again: two stale
    // entries point at the event, and only the last one frees it.
    q.reschedule(ev, 8);
    q.deschedule(ev);
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_FALSE(q.step());
    EXPECT_EQ(*token, 0);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, OwnedLambdaFreedAfterReschedule)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    Tick fired_at = 0;
    Event *ev = q.schedule(5, [token, &q, &fired_at] {
        ++*token;
        fired_at = q.curTick();
    });
    q.reschedule(ev, 20);
    q.reschedule(ev, 12);
    q.run();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(fired_at, 12u);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, OwnedLambdaFreedByDrainAll)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        q.schedule(5, [token] { ++*token; });
        Event *ev = q.schedule(9, [token] { ++*token; });
        q.reschedule(ev, 11);
        q.schedule(30, [token] { ++*token; });
        EXPECT_TRUE(q.step());
        q.drainAll();
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(*token, 1);
        EXPECT_EQ(token.use_count(), 1);
        // Drained but not destroyed: the queue stays usable.
        q.schedule(40, [token] { ++*token; });
    }
    // ~EventQueue drains what is left.
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, MemberEventsAreNotOwned)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev([&] { ++fired; }, "member");
    q.schedule(&ev, 3);
    q.deschedule(&ev);
    q.schedule(&ev, 4);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(ev.scheduled());
}
