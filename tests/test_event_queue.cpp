/**
 * @file
 * Unit tests of the cancellable event queue.
 *
 * The contract suite asserts every ordering, cancellation, and
 * liveness guarantee of sim::EventQueue, including stale handles whose
 * slot has been reused. The randomized oracle drives 100k+ mixed
 * operations (schedule/pop/cancel, heavy time ties, far-future
 * outliers, and cancels of already-fired ids) against a
 * std::multimap ordered by (time, insertion seq) — the exact order
 * the queue promises.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using namespace imc::sim;

// Typed over the one queue so every registered test name carries the
// queue type, e.g. EventQueueContract.TiesBreakFifo<imc::sim::EventQueue>.
template <typename Q>
class EventQueueContract : public ::testing::Test {
  protected:
    Q queue_;
};

using QueueTypes = ::testing::Types<EventQueue>;
TYPED_TEST_SUITE(EventQueueContract, QueueTypes);

TYPED_TEST(EventQueueContract, RunsInTimeOrder)
{
    auto& q = this->queue_;
    std::vector<int> order;
    q.schedule_at(2.0, [&] { order.push_back(2); });
    q.schedule_at(1.0, [&] { order.push_back(1); });
    q.schedule_at(3.0, [&] { order.push_back(3); });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TYPED_TEST(EventQueueContract, TiesBreakFifo)
{
    auto& q = this->queue_;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule_at(1.0, [&order, i] { order.push_back(i); });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TYPED_TEST(EventQueueContract, CancelPreventsExecution)
{
    auto& q = this->queue_;
    bool ran = false;
    const EventId id = q.schedule_at(1.0, [&] { ran = true; });
    q.cancel(id);
    while (q.pop_and_run()) {
    }
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TYPED_TEST(EventQueueContract, CancelIsIdempotent)
{
    auto& q = this->queue_;
    const EventId id = q.schedule_at(1.0, [] {});
    q.cancel(id);
    q.cancel(id); // no-op
    EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueContract, CancelOfAbsentIdIsHarmless)
{
    auto& q = this->queue_;
    q.cancel(12345); // never scheduled
    int fired = 0;
    const EventId id = q.schedule_at(1.0, [&] { ++fired; });
    q.cancel(id + 1000); // also never scheduled
    ASSERT_TRUE(q.pop_and_run());
    q.cancel(id); // already fired
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueContract, StaleHandleAfterSlotReuseIsNoOp)
{
    // A fired (a) and a cancelled (c) event each free a slot that the
    // next schedule reuses; their stale handles must not touch the
    // new occupants.
    auto& q = this->queue_;
    const EventId a = q.schedule_at(1.0, [] {});
    ASSERT_TRUE(q.pop_and_run());
    int fired_b = 0;
    const EventId b = q.schedule_at(2.0, [&] { ++fired_b; });
    EXPECT_EQ(static_cast<std::uint32_t>(b),
              static_cast<std::uint32_t>(a)); // same slot
    EXPECT_NE(b, a);
    const EventId c = q.schedule_at(3.0, [] {});
    q.cancel(c);
    int fired_d = 0;
    const EventId d = q.schedule_at(4.0, [&] { ++fired_d; });
    EXPECT_EQ(static_cast<std::uint32_t>(d),
              static_cast<std::uint32_t>(c));
    EXPECT_NE(d, c);

    q.cancel(a);
    q.cancel(c);
    q.cancel(0); // never issued
    EXPECT_EQ(q.size(), 2u);
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(fired_b, 1);
    EXPECT_EQ(fired_d, 1);
    EXPECT_EQ(q.executed(), 3u);
}

TYPED_TEST(EventQueueContract, SizeTracksLiveEvents)
{
    auto& q = this->queue_;
    const EventId a = q.schedule_at(1.0, [] {});
    q.schedule_at(2.0, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.pop_and_run();
    EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueContract, EventsMayScheduleMoreEvents)
{
    auto& q = this->queue_;
    int fired = 0;
    q.schedule_at(1.0, [&] {
        ++fired;
        q.schedule_at(2.0, [&] { ++fired; });
    });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TYPED_TEST(EventQueueContract, SchedulingIntoThePastThrows)
{
    auto& q = this->queue_;
    q.schedule_at(5.0, [] {});
    q.pop_and_run();
    EXPECT_THROW(q.schedule_at(4.0, [] {}), imc::ConfigError);
}

TYPED_TEST(EventQueueContract, NullCallbackRejected)
{
    EXPECT_THROW(this->queue_.schedule_at(1.0, Callback{}),
                 imc::ConfigError);
}

TYPED_TEST(EventQueueContract, PopOnEmptyReturnsFalse)
{
    EXPECT_FALSE(this->queue_.pop_and_run());
}

TYPED_TEST(EventQueueContract, ExecutedCountsOnlyRealRuns)
{
    auto& q = this->queue_;
    q.schedule_at(1.0, [] {});
    const EventId id = q.schedule_at(2.0, [] {});
    q.cancel(id);
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(q.executed(), 1u);
}

TYPED_TEST(EventQueueContract, FifoSurvivesInternalReorganization)
{
    // 512 tied events interleaved with 2048 spread events: the heap
    // grows and reshuffles many times while the tied cohort is live,
    // and cancels refill holes mid-heap, so this pins FIFO order
    // across every sift direction.
    auto& q = this->queue_;
    std::vector<int> tied_order;
    std::vector<EventId> spread;
    for (int i = 0; i < 512; ++i) {
        q.schedule_at(100.0,
                      [&tied_order, i] { tied_order.push_back(i); });
        for (int j = 0; j < 4; ++j) {
            const double when =
                static_cast<double>(i) * 0.15 +
                static_cast<double>(j) * 7.3 + 0.01; // all < 100
            spread.push_back(q.schedule_at(when, [] {}));
        }
    }
    // Cancel half the spread events to mix erasure into the same
    // window, then drain.
    for (std::size_t i = 0; i < spread.size(); i += 2)
        q.cancel(spread[i]);
    while (q.pop_and_run()) {
    }
    ASSERT_EQ(tied_order.size(), 512u);
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(tied_order[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

TYPED_TEST(EventQueueContract, FarFutureEventsFireInOrder)
{
    // A cluster near t=0 plus stragglers many orders of magnitude
    // out: pops must honor (time, seq) order across the whole span.
    auto& q = this->queue_;
    std::vector<int> order;
    q.schedule_at(1.0e12, [&] { order.push_back(3); });
    q.schedule_at(0.5, [&] { order.push_back(0); });
    q.schedule_at(1.0e6, [&] { order.push_back(2); });
    q.schedule_at(0.75, [&] { order.push_back(1); });
    q.schedule_at(1.0e12, [&] { order.push_back(4); }); // ties FIFO
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

namespace {

/**
 * Drive @p ops randomized operations against a (time, seq)-ordered
 * multimap oracle. Three phases stress different heap shapes:
 * schedule-heavy (growth), balanced with heavy ties, and pop-heavy
 * (drain, with freed slots reused). Time offsets mix a small tie-heavy grid, a
 * medium uniform spread, and rare far-future outliers.
 */
void
randomized_oracle(EventQueue& q, int ops, std::uint64_t seed)
{
    struct Pending {
        EventId id;
        std::uint64_t token;
    };
    using Key = std::pair<double, std::uint64_t>;
    std::multimap<Key, Pending> oracle;
    std::map<EventId, Key> by_id; // cancel lookup, O(log n)
    std::vector<std::uint64_t> fired;
    std::vector<EventId> cancellable;
    imc::Rng rng(seed);
    std::uint64_t seq = 0;
    std::uint64_t expected_executed = 0;

    for (int op = 0; op < ops; ++op) {
        // Phase-dependent op weights out of 10: grow 7/2/1,
        // steady 5/3/2, drain 2/6/2.
        std::uint64_t w_schedule = 5;
        std::uint64_t w_pop = 3;
        if (op < ops / 4) {
            w_schedule = 7;
            w_pop = 2;
        } else if (op > (3 * ops) / 4) {
            w_schedule = 2;
            w_pop = 6;
        }
        const auto kind = rng.uniform_index(10);
        if (kind < w_schedule) {
            double when = q.now();
            const auto scale = rng.uniform_index(100);
            if (scale < 70) {
                when += static_cast<double>(
                    rng.uniform_index(4)); // tie-heavy grid
            } else if (scale < 95) {
                when += rng.uniform(0.0, 50.0);
            } else {
                when += rng.uniform(1.0e5, 1.0e9); // far future
            }
            const std::uint64_t token = seq;
            const EventId id = q.schedule_at(
                when, [&fired, token] { fired.push_back(token); });
            oracle.emplace(Key{when, seq}, Pending{id, token});
            by_id.emplace(id, Key{when, seq});
            ++seq;
            cancellable.push_back(id);
        } else if (kind < w_schedule + w_pop) {
            ASSERT_EQ(q.size(), oracle.size());
            if (oracle.empty()) {
                EXPECT_FALSE(q.pop_and_run());
                continue;
            }
            const auto next = oracle.begin();
            const double when = next->first.first;
            const std::uint64_t expect_token = next->second.token;
            by_id.erase(next->second.id);
            oracle.erase(next);
            const std::size_t before = fired.size();
            ASSERT_TRUE(q.pop_and_run());
            ++expected_executed;
            ASSERT_EQ(fired.size(), before + 1);
            ASSERT_EQ(fired.back(), expect_token);
            ASSERT_DOUBLE_EQ(q.now(), when);
        } else {
            if (cancellable.empty())
                continue;
            const auto pick = rng.uniform_index(cancellable.size());
            const EventId id = cancellable[pick];
            cancellable[pick] = cancellable.back();
            cancellable.pop_back();
            q.cancel(id); // may already have fired: harmless no-op
            const auto it = by_id.find(id);
            if (it != by_id.end()) {
                auto range = oracle.equal_range(it->second);
                for (auto oit = range.first; oit != range.second;
                     ++oit) {
                    if (oit->second.id == id) {
                        oracle.erase(oit);
                        break;
                    }
                }
                by_id.erase(it);
            }
        }
        ASSERT_EQ(q.size(), oracle.size());
        ASSERT_EQ(q.empty(), oracle.empty());
        ASSERT_EQ(q.executed(), expected_executed);
    }

    // Drain: the remaining events must come out in oracle order.
    while (!oracle.empty()) {
        const auto next = oracle.begin();
        const std::uint64_t expect_token = next->second.token;
        oracle.erase(next);
        ASSERT_TRUE(q.pop_and_run());
        ASSERT_EQ(fired.back(), expect_token);
    }
    EXPECT_FALSE(q.pop_and_run());
    EXPECT_TRUE(q.empty());
}

} // namespace

TYPED_TEST(EventQueueContract,
           RandomizedInterleavingMatchesOrderedOracle)
{
    randomized_oracle(this->queue_, 100000, 20260805);
}

TYPED_TEST(EventQueueContract, RandomizedOracleSecondSeed)
{
    // A second stream reshuffles which phase hits which heap shape.
    randomized_oracle(this->queue_, 30000, 42);
}
