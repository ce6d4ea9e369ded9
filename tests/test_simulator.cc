/**
 * @file
 * Unit tests for the discrete-event engine.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace tacc {
namespace {

using namespace time_literals;
using sim::Simulator;

TEST(Simulator, StartsAtOrigin)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), TimePoint::origin());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, FiresInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule_after(20_s, "b", [&] { order.push_back(2); });
    sim.schedule_after(10_s, "a", [&] { order.push_back(1); });
    sim.schedule_after(30_s, "c", [&] { order.push_back(3); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), TimePoint::origin() + 30_s);
    EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, SameInstantFiresInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule_after(10_s, "e", [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringCallbacks)
{
    Simulator sim;
    TimePoint seen;
    sim.schedule_after(42_s, "t", [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, TimePoint::origin() + 42_s);
}

TEST(Simulator, EventsScheduleMoreEvents)
{
    Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            sim.schedule_after(1_s, "chain", chain);
    };
    sim.schedule_after(1_s, "chain", chain);
    sim.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), TimePoint::origin() + 5_s);
}

TEST(Simulator, CancelPreventsFiring)
{
    Simulator sim;
    bool fired = false;
    const auto id = sim.schedule_after(5_s, "x", [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id)); // second cancel is a no-op
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelFromInsideEarlierEvent)
{
    Simulator sim;
    bool fired = false;
    const auto victim = sim.schedule_after(10_s, "victim",
                                           [&] { fired = true; });
    sim.schedule_after(5_s, "killer", [&] { sim.cancel(victim); });
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.processed(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents)
{
    Simulator sim;
    sim.run_until(TimePoint::origin() + 100_s);
    EXPECT_EQ(sim.now(), TimePoint::origin() + 100_s);
}

TEST(Simulator, RunUntilHonorsHorizon)
{
    Simulator sim;
    int fired = 0;
    sim.schedule_after(10_s, "in", [&] { ++fired; });
    sim.schedule_after(50_s, "out", [&] { ++fired; });
    sim.run_until(TimePoint::origin() + 20_s);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), TimePoint::origin() + 20_s);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents)
{
    Simulator sim;
    bool fired = false;
    sim.schedule_after(20_s, "edge", [&] { fired = true; });
    sim.run_until(TimePoint::origin() + 20_s);
    EXPECT_TRUE(fired);
}

TEST(Simulator, NextEventTime)
{
    Simulator sim;
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
    const auto id = sim.schedule_after(7_s, "x", [] {});
    EXPECT_EQ(sim.next_event_time(), TimePoint::origin() + 7_s);
    sim.cancel(id);
    EXPECT_EQ(sim.next_event_time(), TimePoint::max());
}

TEST(PeriodicTask, FiresAtFixedInterval)
{
    Simulator sim;
    int ticks = 0;
    sim::PeriodicTask task(sim, 10_s, "tick", [&] { ++ticks; });
    task.start();
    sim.run_until(TimePoint::origin() + 35_s);
    EXPECT_EQ(ticks, 3); // at 10, 20, 30
}

TEST(PeriodicTask, StopIsIdempotentAndEffective)
{
    Simulator sim;
    int ticks = 0;
    sim::PeriodicTask task(sim, 10_s, "tick", [&] { ++ticks; });
    task.start();
    sim.run_until(TimePoint::origin() + 15_s);
    task.stop();
    task.stop();
    sim.run_until(TimePoint::origin() + 100_s);
    EXPECT_EQ(ticks, 1);
    EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromInsideCallback)
{
    Simulator sim;
    int ticks = 0;
    sim::PeriodicTask task(sim, 10_s, "tick", [&] {
        ++ticks;
        // stop() mid-callback must prevent re-arming.
    });
    task.start();
    sim.schedule_after(11_s, "stopper", [&] { task.stop(); });
    sim.run_until(TimePoint::origin() + 100_s);
    EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTask, RestartAfterStop)
{
    Simulator sim;
    int ticks = 0;
    sim::PeriodicTask task(sim, 10_s, "tick", [&] { ++ticks; });
    task.start();
    sim.run_until(TimePoint::origin() + 10_s);
    task.stop();
    task.start();
    sim.run_until(TimePoint::origin() + 25_s);
    EXPECT_EQ(ticks, 2); // 10s, then 20s (re-armed at 10s)
}

TEST(SimulatorWatch, RunsBeforeLaterEventsAndTiesByArmOrder)
{
    Simulator sim;
    std::vector<std::string> log;
    sim.schedule_at(TimePoint::origin() + 30_s, "before-arm",
                    [&] { log.push_back("a@30"); });
    sim.set_watch(30_s, [&](TimePoint t) {
        EXPECT_EQ(sim.now(), t);
        log.push_back("w@" + std::to_string(t.to_micros() / 1'000'000));
    });
    sim.schedule_at(TimePoint::origin() + 30_s, "after-arm",
                    [&] { log.push_back("b@30"); });
    sim.schedule_at(TimePoint::origin() + 100_s, "late",
                    [&] { log.push_back("c@100"); });
    while (sim.step()) {
    }
    // The watch re-armed at 30 s after b was scheduled, so nothing ties
    // with it again; the empty queue ends the run without more samples.
    EXPECT_EQ(log, (std::vector<std::string>{"a@30", "w@30", "b@30", "w@60",
                                             "w@90", "c@100"}));
    EXPECT_EQ(sim.processed(), 3u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.now(), TimePoint::origin() + 100_s);

    sim.run_until(TimePoint::origin() + 150_s); // flushes 120 s and 150 s
    EXPECT_EQ(log.back(), "w@150");
    EXPECT_EQ(log.size(), 8u);
    sim.clear_watch();
    sim.run_until(TimePoint::origin() + 300_s);
    EXPECT_EQ(log.size(), 8u);
    EXPECT_EQ(sim.processed(), 3u);
}

/**
 * The watch must reproduce a PeriodicTask exactly: the same instants,
 * interleaved with the same events in the same order and the same clock
 * after every step or run_until(). Events schedule more events, many of
 * them on watch instants, so every tie shows.
 */
TEST(SimulatorWatch, MatchesPeriodicTaskUnderRandomEvents)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        struct World {
            Simulator sim;
            Rng rng;
            std::vector<std::pair<char, int64_t>> log;
            int next_id = 0;

            explicit World(uint64_t seed) : rng(seed) {}

            void
            spawn()
            {
                const int64_t step_s = rng.uniform_int(0, 3) == 0
                                           ? 30 * rng.uniform_int(0, 3)
                                           : 5 * rng.uniform_int(0, 20);
                const int id = next_id++;
                sim.schedule_after(Duration::seconds(step_s), "ev", [this, id] {
                    log.push_back({'e', id});
                    if (next_id < 400) {
                        for (int64_t k = rng.uniform_int(1, 2); k > 0; --k)
                            spawn();
                    }
                });
            }
        };
        World task(seed);
        World watch(seed);
        for (World *w : {&task, &watch}) {
            for (int i = 0; i < 5; ++i)
                w->spawn();
        }
        sim::PeriodicTask tick(task.sim, 30_s, "tick", [&task] {
            task.log.push_back({'w', task.sim.now().to_micros()});
        });
        tick.start();
        watch.sim.set_watch(30_s, [&watch](TimePoint t) {
            watch.log.push_back({'w', t.to_micros()});
        });
        for (World *w : {&task, &watch}) {
            for (int i = 0; i < 5; ++i)
                w->spawn();
        }

        Rng driver(seed * 7919);
        TimePoint horizon = TimePoint::origin();
        while (watch.sim.pending() > 0) {
            if (driver.uniform_int(0, 1) == 0) {
                // A watch instant is a step of its own, like a tick.
                ASSERT_TRUE(task.sim.step());
                ASSERT_TRUE(watch.sim.step());
            } else {
                horizon = std::max(horizon, watch.sim.now()) +
                          Duration::seconds(
                              driver.uniform_int(0, 4) == 0
                                  ? 30 * driver.uniform_int(0, 3)
                                  : driver.uniform_int(0, 100));
                task.sim.run_until(horizon);
                watch.sim.run_until(horizon);
            }
            ASSERT_EQ(task.log, watch.log);
            ASSERT_EQ(task.sim.now(), watch.sim.now());
        }
        EXPECT_EQ(task.sim.pending(), 1u); // only the tick is left
        EXPECT_GT(watch.log.size(), 400u);
    }
}

} // namespace
} // namespace tacc
