/**
 * @file
 * Cross-module property tests: randomized invariants over the
 * contention model, the placement representation, the profiling
 * algorithms, and the engine counters. These complement the
 * per-module unit tests by sweeping configuration space instead of
 * pinning single cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bubble/bubble.hpp"
#include "common/rng.hpp"
#include "core/profilers.hpp"
#include "placement/placement.hpp"
#include "sim/contention.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"

using namespace imc;

namespace {

sim::TenantDemand
random_demand(Rng& rng)
{
    sim::TenantDemand d;
    d.gen_mb = rng.uniform(0.5, 30.0);
    d.need_mb = rng.uniform(0.5, 20.0);
    d.bw_gbps = rng.uniform(0.5, 25.0);
    d.mem_intensity = rng.uniform(0.0, 1.0);
    d.cache_gamma = rng.uniform(0.3, 2.0);
    d.knee_sharpness = rng.uniform(1.0, 10.0);
    return d;
}

} // namespace

// ----- Contention model ----------------------------------------------

class ContentionProperties : public ::testing::TestWithParam<int> {};

TEST_P(ContentionProperties, SlowdownsFiniteAndAtLeastCpuFloor)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const sim::NodeResources node{20.0, 30.0, 0.75};
    for (int trial = 0; trial < 200; ++trial) {
        const int k = static_cast<int>(rng.uniform_int(1, 5));
        std::vector<sim::TenantDemand> tenants;
        for (int i = 0; i < k; ++i)
            tenants.push_back(random_demand(rng));
        const auto results = sim::solve_contention(node, tenants);
        ASSERT_EQ(results.size(), tenants.size());
        double share_sum = 0.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(std::isfinite(results[i].slowdown));
            // A tenant can never run faster than its CPU-bound floor.
            ASSERT_GE(results[i].slowdown,
                      1.0 - tenants[i].mem_intensity - 1e-9);
            ASSERT_GE(results[i].miss_inflation, 1.0 - 1e-9);
            share_sum += results[i].cache_share_mb;
        }
        // Cache shares partition the LLC exactly.
        ASSERT_NEAR(share_sum, node.llc_mb, 1e-6);
    }
}

TEST_P(ContentionProperties, AddingATenantNeverHelpsAnyone)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
    const sim::NodeResources node{20.0, 30.0, 0.75};
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<sim::TenantDemand> tenants{random_demand(rng),
                                               random_demand(rng)};
        const auto before = sim::solve_contention(node, tenants);
        tenants.push_back(random_demand(rng));
        const auto after = sim::solve_contention(node, tenants);
        for (std::size_t i = 0; i < before.size(); ++i)
            ASSERT_GE(after[i].slowdown, before[i].slowdown - 1e-9);
    }
}

TEST_P(ContentionProperties, ResultOrderIndependentOfTenantOrder)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
    const sim::NodeResources node{20.0, 30.0, 0.75};
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<sim::TenantDemand> tenants{
            random_demand(rng), random_demand(rng),
            random_demand(rng)};
        const auto forward = sim::solve_contention(node, tenants);
        std::vector<sim::TenantDemand> reversed(tenants.rbegin(),
                                                tenants.rend());
        const auto backward = sim::solve_contention(node, reversed);
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            ASSERT_NEAR(forward[i].slowdown,
                        backward[tenants.size() - 1 - i].slowdown,
                        1e-12);
        }
    }
}

TEST_P(ContentionProperties, ReusedSolverMatchesFreshSolveBitForBit)
{
    // The engine keeps one ContentionSolver for life and refills it
    // after clear() on every re-solve. A reused solver must answer
    // exactly as the one-shot solve_contention does; batches of 0 to
    // 12 tenants grow and shrink, so a slot left over from an earlier,
    // larger batch would show.
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
    const sim::NodeResources node{20.0, 30.0, 0.75};
    sim::ContentionSolver solver;
    for (int trial = 0; trial < 200; ++trial) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(0, 12));
        std::vector<sim::TenantDemand> tenants;
        for (std::size_t i = 0; i < k; ++i)
            tenants.push_back(random_demand(rng));
        solver.clear();
        for (const auto& t : tenants)
            solver.push(t);
        solver.solve(node);
        const auto fresh = sim::solve_contention(node, tenants);
        ASSERT_EQ(solver.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
            ASSERT_EQ(solver.slowdown(i), fresh[i].slowdown)
                << "trial " << trial << " tenant " << i;
            ASSERT_EQ(solver.cache_share_mb(i), fresh[i].cache_share_mb)
                << "trial " << trial << " tenant " << i;
            ASSERT_EQ(solver.miss_inflation(i), fresh[i].miss_inflation)
                << "trial " << trial << " tenant " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContentionProperties,
                         ::testing::Range(1, 4));

// ----- Bubble scale ---------------------------------------------------

TEST(BubbleProperties, CombineIsCommutativeAndMonotone)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const double a = rng.uniform(0.1, 8.0);
        const double b = rng.uniform(0.1, 8.0);
        const double ab = bubble::combine_pressures({a, b});
        const double ba = bubble::combine_pressures({b, a});
        ASSERT_NEAR(ab, ba, 1e-9);
        ASSERT_GE(ab, std::max(a, b) - 1e-9);
        // Adding a third tenant never lowers the combined pressure.
        const double c = rng.uniform(0.1, 8.0);
        ASSERT_GE(bubble::combine_pressures({a, b, c}), ab - 1e-9);
    }
}

// ----- Placement representation ---------------------------------------

class PlacementFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PlacementFuzz, RandomValidSwapSequencesPreserveInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
    const auto cluster = sim::ClusterSpec::private8();
    std::vector<placement::Instance> instances{
        {workload::find_app("M.milc"), 4},
        {workload::find_app("M.Gems"), 4},
        {workload::find_app("H.KM"), 4},
        {workload::find_app("C.libq"), 4},
    };
    auto p = placement::Placement::random(instances, cluster, rng);
    const std::vector<double> scores{4.3, 2.4, 0.2, 6.6};
    for (int step = 0; step < 300; ++step) {
        const int ia = static_cast<int>(rng.uniform_index(4));
        const int ib = static_cast<int>(rng.uniform_index(4));
        const int ua = static_cast<int>(rng.uniform_index(4));
        const int ub = static_cast<int>(rng.uniform_index(4));
        if (!p.swap_is_valid(ia, ua, ib, ub))
            continue;
        p.swap_units(ia, ua, ib, ub);
        ASSERT_TRUE(p.valid());
        // Pressure lists stay consistent: per instance, one entry per
        // unit, all non-negative, and zero exactly when the instance
        // is alone on that node.
        const auto lists = p.pressure_lists(scores);
        for (int i = 0; i < 4; ++i) {
            const auto nodes = p.nodes_of(i);
            ASSERT_EQ(lists[static_cast<std::size_t>(i)].size(),
                      nodes.size());
            for (std::size_t k = 0; k < nodes.size(); ++k) {
                const bool alone =
                    p.co_tenants(i, nodes[k]).empty();
                const double pressure =
                    lists[static_cast<std::size_t>(i)][k];
                ASSERT_GE(pressure, 0.0);
                ASSERT_EQ(pressure == 0.0, alone);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementFuzz, ::testing::Range(1, 5));

// ----- Profiling algorithms -------------------------------------------

class ProfilerEpsilonSweep : public ::testing::TestWithParam<double> {
};

TEST_P(ProfilerEpsilonSweep, TighterEpsilonNeverCostsLess)
{
    const double epsilon = GetParam();
    const core::MeasureFn surface = [](int p, int j) {
        if (j == 0)
            return 1.0;
        return 1.0 + 0.1 * p * (0.7 + 0.3 * j / 8.0);
    };
    core::ProfileOptions loose;
    loose.grid = {1, 2, 3, 4, 5, 6, 7, 8};
    loose.epsilon = epsilon;
    core::ProfileOptions tight = loose;
    tight.epsilon = epsilon / 4.0;

    core::CountingMeasure m_loose{surface};
    const auto r_loose = core::profile_binary_brute(m_loose, loose);
    core::CountingMeasure m_tight{surface};
    const auto r_tight = core::profile_binary_brute(m_tight, tight);
    EXPECT_GE(r_tight.measured, r_loose.measured);

    // And accuracy is monotone the other way (not strictly, but the
    // tight run must not be meaningfully worse).
    core::CountingMeasure m_truth{surface};
    const auto truth = core::profile_exhaustive(m_truth, loose);
    EXPECT_LE(core::matrix_error_pct(r_tight.matrix, truth.matrix),
              core::matrix_error_pct(r_loose.matrix, truth.matrix) +
                  0.1);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ProfilerEpsilonSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2));

// ----- Engine counters --------------------------------------------------

TEST(EngineStats, CountersTrackActivity)
{
    sim::Simulation sim(sim::ClusterSpec::private8());
    EXPECT_EQ(sim.stats().contention_solves, 0u);

    const auto t1 = sim.add_tenant(0, bubble::bubble_demand(3.0));
    EXPECT_EQ(sim.stats().contention_solves, 1u);
    const auto p1 = sim.add_proc(t1);
    sim.compute(p1, 10.0, [] {});
    EXPECT_EQ(sim.stats().computes, 1u);

    // A tenant arriving mid-compute must reschedule the busy proc.
    sim.schedule(2.0, [&] {
        sim.add_tenant(0, bubble::bubble_demand(8.0));
    });
    sim.run();
    EXPECT_EQ(sim.stats().contention_solves, 2u);
    EXPECT_EQ(sim.stats().proc_reschedules, 1u);
}

TEST(EngineStats, NoReschedulesWithoutCoLocation)
{
    sim::Simulation sim(sim::ClusterSpec::private8());
    const auto t1 = sim.add_tenant(0, bubble::bubble_demand(3.0));
    const auto p1 = sim.add_proc(t1);
    sim.compute(p1, 5.0, [] {});
    // Tenant on a DIFFERENT node: no reschedule of p1.
    sim.schedule(1.0, [&] {
        sim.add_tenant(1, bubble::bubble_demand(8.0));
    });
    sim.run();
    EXPECT_EQ(sim.stats().proc_reschedules, 0u);
}
