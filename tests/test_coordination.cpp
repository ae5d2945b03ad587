/**
 * @file
 * Unit tests of the synchronization primitives (barrier, neighbor
 * sync, task pool).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/coordination.hpp"

using namespace imc::sim;

namespace {

Simulation
make_sim()
{
    ClusterSpec spec = ClusterSpec::private8();
    spec.num_nodes = 1;
    return Simulation(spec);
}

} // namespace

TEST(Barrier, ReleasesOnlyWhenAllArrive)
{
    auto sim = make_sim();
    Barrier barrier(sim, 3, 0.0);
    int released = 0;
    barrier.arrive([&] { ++released; });
    barrier.arrive([&] { ++released; });
    sim.run();
    EXPECT_EQ(released, 0); // still one participant missing
    barrier.arrive([&] { ++released; });
    sim.run();
    EXPECT_EQ(released, 3);
    EXPECT_EQ(barrier.cycles(), 1);
}

TEST(Barrier, CollectiveCostDelaysRelease)
{
    auto sim = make_sim();
    Barrier barrier(sim, 2, 0.5);
    double released_at = -1.0;
    sim.schedule(1.0, [&] {
        barrier.arrive([&] { released_at = sim.now(); });
        barrier.arrive([] {});
    });
    sim.run();
    EXPECT_DOUBLE_EQ(released_at, 1.5);
}

TEST(Barrier, ReusableAcrossCycles)
{
    auto sim = make_sim();
    Barrier barrier(sim, 2, 0.0);
    int releases = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
        barrier.arrive([&] { ++releases; });
        barrier.arrive([&] { ++releases; });
        sim.run();
    }
    EXPECT_EQ(releases, 6);
    EXPECT_EQ(barrier.cycles(), 3);
}

TEST(Barrier, SingleParticipantPassesThrough)
{
    auto sim = make_sim();
    Barrier barrier(sim, 1, 0.0);
    bool released = false;
    barrier.arrive([&] { released = true; });
    sim.run();
    EXPECT_TRUE(released);
}

TEST(Barrier, RejectsBadConfig)
{
    auto sim = make_sim();
    EXPECT_THROW(Barrier(sim, 0, 0.0), imc::ConfigError);
    EXPECT_THROW(Barrier(sim, 2, -1.0), imc::ConfigError);
}

TEST(TaskPool, DrainsAllTasksExactlyOnce)
{
    auto sim = make_sim();
    TaskPool pool(sim, {{1.0, 2.0, 3.0}}, 0.0);
    double total = 0.0;
    int grants = 0;
    std::function<void()> worker = [&] {
        pool.request([&](TaskPool::Grant g) {
            if (g.finished)
                return;
            ++grants;
            total += g.work;
            pool.complete_task();
            worker();
        });
    };
    worker();
    sim.run();
    EXPECT_EQ(grants, 3);
    EXPECT_DOUBLE_EQ(total, 6.0);
    EXPECT_TRUE(pool.finished());
}

TEST(TaskPool, StageAdvancesOnlyWhenDrained)
{
    auto sim = make_sim();
    TaskPool pool(sim, {{1.0, 1.0}, {2.0}}, 0.0);
    EXPECT_EQ(pool.current_stage(), 0u);
    std::vector<double> seen;
    std::function<void()> worker = [&] {
        pool.request([&](TaskPool::Grant g) {
            if (g.finished)
                return;
            seen.push_back(g.work);
            pool.complete_task();
            worker();
        });
    };
    worker();
    sim.run();
    EXPECT_EQ(seen, (std::vector<double>{1.0, 1.0, 2.0}));
    EXPECT_TRUE(pool.finished());
}

TEST(TaskPool, ShuffleCostSeparatesStages)
{
    auto sim = make_sim();
    TaskPool pool(sim, {{1.0}, {1.0}}, 2.5);
    double second_granted_at = -1.0;
    std::function<void()> worker = [&] {
        pool.request([&](TaskPool::Grant g) {
            if (g.finished)
                return;
            if (pool.current_stage() == 1)
                second_granted_at = sim.now();
            pool.complete_task();
            worker();
        });
    };
    worker();
    sim.run();
    EXPECT_DOUBLE_EQ(second_granted_at, 2.5);
}

TEST(TaskPool, ParkedWorkersWakeAtNextStage)
{
    auto sim = make_sim();
    TaskPool pool(sim, {{1.0}, {1.0, 1.0}}, 0.0);
    int finished_workers = 0;
    int tasks_done = 0;
    // Two workers race for one first-stage task; the loser parks and
    // must wake when stage 2 opens.
    std::function<void()> worker = [&] {
        pool.request([&](TaskPool::Grant g) {
            if (g.finished) {
                ++finished_workers;
                return;
            }
            ++tasks_done;
            pool.complete_task();
            worker();
        });
    };
    worker();
    worker();
    sim.run();
    EXPECT_EQ(tasks_done, 3);
    EXPECT_EQ(finished_workers, 2);
}

TEST(TaskPool, EmptyStageListIsImmediatelyFinished)
{
    auto sim = make_sim();
    TaskPool pool(sim, {}, 0.0);
    EXPECT_TRUE(pool.finished());
    bool got_finished = false;
    pool.request([&](TaskPool::Grant g) { got_finished = g.finished; });
    sim.run();
    EXPECT_TRUE(got_finished);
}

TEST(TaskPool, RejectsBadConfig)
{
    auto sim = make_sim();
    EXPECT_THROW(TaskPool(sim, {{}}, 0.0), imc::ConfigError);
    EXPECT_THROW(TaskPool(sim, {{-1.0}}, 0.0), imc::ConfigError);
    EXPECT_THROW(TaskPool(sim, {{1.0}}, -0.5), imc::ConfigError);
}

TEST(TaskPool, CompletionWithoutGrantThrows)
{
    auto sim = make_sim();
    TaskPool pool(sim, {{1.0}}, 0.0);
    EXPECT_THROW(pool.complete_task(), imc::LogicBug);
}

TEST(Barrier, LastArriverReleasesInArrivalOrder)
{
    // Ties in simulated time break by schedule order, so the release
    // callbacks must run in arrival order — the delay-wave timeline
    // depends on this being stable.
    auto sim = make_sim();
    Barrier barrier(sim, 3, 0.0);
    std::vector<int> released;
    for (int who : {2, 0, 1})
        barrier.arrive([&released, who] { released.push_back(who); });
    sim.run();
    EXPECT_EQ(released, (std::vector<int>{2, 0, 1}));
}

TEST(NeighborSync, ReleasesNeighborhoodNotWholeChain)
{
    // 5-rank open chain, halo 1: once ranks 0..3 have arrived, ranks
    // 0..2 see their full neighborhoods and go; rank 3 still waits on
    // rank 4.
    auto sim = make_sim();
    NeighborSync sync(sim, 5, 1, 0.0);
    std::vector<int> released;
    for (int r = 0; r < 4; ++r)
        sync.arrive(r, [&released, r] { released.push_back(r); });
    sim.run();
    EXPECT_EQ(released, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(sync.waiting(3));
    sync.arrive(4, [&released] { released.push_back(4); });
    sim.run();
    EXPECT_EQ(released, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(NeighborSync, EdgeRanksClampTheirNeighborhood)
{
    // The chain is open: rank 0's neighborhood is {0, 1} only, so it
    // releases without ever hearing from rank 2.
    auto sim = make_sim();
    NeighborSync sync(sim, 3, 1, 0.0);
    bool edge_released = false;
    sync.arrive(0, [&] { edge_released = true; });
    sync.arrive(1, [] {});
    sim.run();
    EXPECT_TRUE(edge_released);
    EXPECT_TRUE(sync.waiting(1)); // still needs rank 2
}

TEST(NeighborSync, HaloCoveringChainActsAsBarrier)
{
    auto sim = make_sim();
    NeighborSync sync(sim, 4, 3, 0.0);
    int released = 0;
    for (int r = 0; r < 3; ++r)
        sync.arrive(r, [&] { ++released; });
    sim.run();
    EXPECT_EQ(released, 0); // every neighborhood spans the chain
    sync.arrive(3, [&] { ++released; });
    sim.run();
    EXPECT_EQ(released, 4);
}

TEST(NeighborSync, CostDelaysRelease)
{
    auto sim = make_sim();
    NeighborSync sync(sim, 2, 1, 0.5);
    double released_at = -1.0;
    sim.schedule(1.0, [&] {
        sync.arrive(0, [&] { released_at = sim.now(); });
        sync.arrive(1, [] {});
    });
    sim.run();
    EXPECT_DOUBLE_EQ(released_at, 1.5);
}

TEST(NeighborSync, StragglerDelaysOnlyItsNeighborhood)
{
    // Staggered arrivals: each rank releases when the slowest member
    // of its own clamped neighborhood has arrived. The straggler in
    // the middle is also the victim of nobody — it releases the
    // moment it shows up, while both neighbors were held by it.
    auto sim = make_sim();
    NeighborSync sync(sim, 5, 1, 0.0);
    std::vector<double> released_at(5, -1.0);
    const double arrive_at[5] = {1.0, 1.0, 5.0, 1.0, 1.0};
    for (int r = 0; r < 5; ++r) {
        sim.schedule(arrive_at[r], [&sync, &released_at, r, &sim] {
            sync.arrive(r, [&released_at, r, &sim] {
                released_at[static_cast<std::size_t>(r)] = sim.now();
            });
        });
    }
    sim.run();
    // Rank 0 only needs rank 1; ranks 1..3 wait on the straggler.
    EXPECT_DOUBLE_EQ(released_at[0], 1.0);
    EXPECT_DOUBLE_EQ(released_at[1], 5.0);
    EXPECT_DOUBLE_EQ(released_at[2], 5.0);
    EXPECT_DOUBLE_EQ(released_at[3], 5.0);
    EXPECT_DOUBLE_EQ(released_at[4], 1.0);
}

TEST(NeighborSync, SecondArrivalBeforeReleaseThrows)
{
    auto sim = make_sim();
    NeighborSync sync(sim, 3, 1, 0.0);
    sync.arrive(1, [] {});
    EXPECT_THROW(sync.arrive(1, [] {}), imc::LogicBug);
}

TEST(NeighborSync, RejectsBadConfig)
{
    auto sim = make_sim();
    EXPECT_THROW(NeighborSync(sim, 0, 1, 0.0), imc::ConfigError);
    EXPECT_THROW(NeighborSync(sim, 2, 0, 0.0), imc::ConfigError);
    EXPECT_THROW(NeighborSync(sim, 2, 1, -1.0), imc::ConfigError);
    EXPECT_THROW(NeighborSync(sim, 2, 1, 0.0).arrive(2, [] {}),
                 imc::ConfigError);
}
