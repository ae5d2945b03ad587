/**
 * @file
 * The scale suite locking the engine's architecture (DESIGN.md §7):
 *
 *  - golden traces: the per-event trace — time, solve and reschedule
 *    counters at every step, printed as hexfloat — of paper-shaped
 *    scenarios (fig03: an app under bubble tenants; fig08: a co-run
 *    against a restarting co-runner; a mid-run node crash) must equal
 *    its file in tests/golden/ byte for byte. The files were recorded
 *    from the original re-solve (a scan over every proc in the
 *    cluster, a fresh solver per solve), so they pin the node-local,
 *    struct-of-arrays re-solve to that re-solve's answers;
 *  - dirty-set property: after any incremental history, a full
 *    refresh_all_nodes() re-solve changes no tenant's slowdown;
 *  - batching property: a mutation burst inside a resolve batch ends
 *    in exactly the state eager per-mutation re-solves produce, with
 *    fewer solves;
 *  - 1k-node smoke: a seeded 1000-node churn run completes with no
 *    lost work units and conserved per-node pressure totals, and its
 *    final fingerprint (events, time, solves, reschedules, slowdown
 *    sum) equals tests/golden/scale_churn.fingerprint.
 *
 * Re-recording after a deliberate change: run test_scale; every
 * mismatch writes the actual output to <name>.got in the working
 * directory and prints the diff command. Review the diff, then copy
 * the .got file over tests/golden/<name>.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "workload/app.hpp"
#include "workload/catalog.hpp"
#include "workload/runner.hpp"

using namespace imc;
using namespace imc::sim;
using namespace imc::workload;

namespace {

/**
 * Step a simulation to completion, appending one line per event:
 * index, now() as hexfloat (exact bits), and the engine's solve /
 * reschedule / compute counters. Equal traces mean the same events
 * ran at the same times with the same amount of contention work.
 */
std::string
trace_to_completion(Simulation& sim)
{
    std::ostringstream os;
    os << std::hexfloat;
    std::uint64_t i = 0;
    while (sim.step()) {
        const SimStats& s = sim.stats();
        os << i++ << ' ' << sim.now() << ' ' << s.contention_solves
           << ' ' << s.proc_reschedules << ' ' << s.computes << '\n';
    }
    return os.str();
}

/**
 * Compare @p actual against the recorded golden file @p name in
 * IMC_SCALE_GOLDEN_DIR. On a mismatch the actual output is written
 * next to the test's working directory and its path printed, so a
 * deliberate change can be reviewed with diff and copied over the
 * recorded file.
 */
void
expect_matches_golden(const std::string& name,
                      const std::string& actual)
{
    const std::string golden_path =
        std::string(IMC_SCALE_GOLDEN_DIR) + "/" + name;
    std::ifstream in(golden_path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (in && want.str() == actual)
        return;
    const auto dump = std::filesystem::absolute(name + ".got");
    std::ofstream(dump, std::ios::binary) << actual;
    ADD_FAILURE() << "output differs from recorded " << golden_path
                  << "\nactual output written to " << dump.string()
                  << "\ndiff " << golden_path << ' ' << dump.string();
}

TenantDemand
jittered_demand(Rng& rng)
{
    TenantDemand d;
    d.gen_mb = rng.uniform(0.5, 12.0);
    d.need_mb = rng.uniform(0.5, 16.0);
    d.bw_gbps = rng.uniform(0.2, 6.0);
    d.mem_intensity = rng.uniform(0.1, 0.9);
    d.cache_gamma = rng.uniform(0.3, 1.2);
    return d;
}

/** fig03 shape: one app on 4 nodes under fixed bubble pressure. */
std::string
trace_fig03_shape()
{
    Simulation sim(ClusterSpec::private8());
    // Bubbles on half the app's nodes, as a fig03 sensitivity point.
    const std::vector<double> pressures{0.8, 0.0, 1.6, 0.0};
    for (const ExtraTenant& b : bubble_tenants(pressures))
        sim.add_tenant(b.node, b.demand);

    LaunchOptions opts;
    opts.nodes = {0, 1, 2, 3};
    opts.procs_per_node = 4;
    opts.rng = Rng(909);
    const auto app = launch(sim, find_app("M.milc"), opts);
    std::string trace = trace_to_completion(sim);
    EXPECT_TRUE(app->done());
    return trace;
}

/** fig08 shape: a target co-running with a restarting co-runner. */
std::string
trace_fig08_shape()
{
    Simulation sim(ClusterSpec::private8());

    LaunchOptions co_opts;
    co_opts.nodes = {0, 1, 2, 3};
    co_opts.procs_per_node = 4;
    co_opts.rng = Rng(707);
    RestartingApp corunner(sim, find_app("C.libq"), co_opts);

    LaunchOptions opts;
    opts.nodes = {0, 1, 2, 3};
    opts.procs_per_node = 4;
    opts.rng = Rng(808);
    opts.on_complete = [&corunner] { corunner.stop(); };
    const auto target = launch(sim, find_app("M.Gems"), opts);

    std::string trace = trace_to_completion(sim);
    EXPECT_TRUE(target->done());
    EXPECT_GE(corunner.completions(), 0);
    return trace;
}

} // namespace

TEST(ScaleEquivalence, Fig03ShapeTraceIsByteIdentical)
{
    expect_matches_golden("scale_fig03.trace", trace_fig03_shape());
}

TEST(ScaleEquivalence, Fig08ShapeTraceIsByteIdentical)
{
    expect_matches_golden("scale_fig08.trace", trace_fig08_shape());
}

TEST(ScaleEquivalence, CrashRecoveryTraceIsByteIdentical)
{
    // A mid-run crash exercises crash_node's settle/cancel path;
    // survivors must then finish exactly as recorded.
    Simulation sim(ClusterSpec::private8());
    LaunchOptions opts;
    opts.nodes = {0, 1, 2, 3, 4, 5};
    opts.procs_per_node = 2;
    opts.rng = Rng(1234);
    const auto app = launch(sim, find_app("S.PR"), opts);
    sim.schedule(0.4, [&sim] { sim.crash_node(2); });
    const std::string trace = trace_to_completion(sim);
    EXPECT_TRUE(sim.node_crashed(2));
    EXPECT_EQ(sim.stats().node_crashes, 1u);
    expect_matches_golden("scale_crash.trace", trace);
}

TEST(ScaleProperty, FullRefreshIsNoOpAfterIncrementalHistory)
{
    // Random add/remove/set_demand history, incrementally re-solved;
    // a from-scratch re-solve of every node must then change nothing
    // (the dirty-set invariant: incremental == full).
    Simulation sim(ClusterSpec::scaled(32));
    Rng rng(20260807);
    std::vector<TenantId> live;
    for (int step = 0; step < 600; ++step) {
        const auto kind = rng.uniform_index(10);
        if (kind < 5 || live.size() < 8) {
            const auto node = static_cast<NodeId>(
                rng.uniform_index(32));
            live.push_back(
                sim.add_tenant(node, jittered_demand(rng)));
        } else if (kind < 8) {
            const auto pick = rng.uniform_index(live.size());
            sim.set_demand(live[pick], jittered_demand(rng));
        } else {
            const auto pick = rng.uniform_index(live.size());
            sim.remove_tenant(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        }
    }

    std::vector<double> before;
    for (const TenantId t : live)
        before.push_back(sim.tenant_slowdown(t));

    sim.refresh_all_nodes();

    for (std::size_t i = 0; i < live.size(); ++i)
        EXPECT_EQ(sim.tenant_slowdown(live[i]), before[i])
            << "tenant " << live[i]
            << " drifted under a full re-solve";
}

TEST(ScaleProperty, BatchedResolveMatchesEagerExactly)
{
    // The same mutation burst applied to two simulations — one with
    // eager per-mutation re-solves, one inside a resolve batch — must
    // end in the identical per-tenant state with fewer solves.
    constexpr int kNodes = 16;
    constexpr int kMutations = 400;
    Simulation eager(ClusterSpec::scaled(kNodes));
    Simulation batched(ClusterSpec::scaled(kNodes));

    auto mutate = [](Simulation& sim) {
        Rng rng(555);
        std::vector<TenantId> live;
        for (int step = 0; step < kMutations; ++step) {
            const auto kind = rng.uniform_index(10);
            if (kind < 6 || live.size() < 4) {
                const auto node = static_cast<NodeId>(
                    rng.uniform_index(kNodes));
                live.push_back(
                    sim.add_tenant(node, jittered_demand(rng)));
            } else {
                const auto pick = rng.uniform_index(live.size());
                sim.set_demand(live[pick], jittered_demand(rng));
            }
        }
        return live;
    };

    const auto eager_live = mutate(eager);
    std::vector<TenantId> batched_live;
    {
        ResolveBatch batch(batched);
        batched_live = mutate(batched);
        // Inside the batch nothing has been re-solved yet.
        EXPECT_EQ(batched.stats().contention_solves, 0u);
    }

    ASSERT_EQ(eager_live.size(), batched_live.size());
    for (std::size_t i = 0; i < eager_live.size(); ++i)
        EXPECT_EQ(batched.tenant_slowdown(batched_live[i]),
                  eager.tenant_slowdown(eager_live[i]))
            << "tenant " << i << " diverged under batching";

    // The batch coalesced the burst into at most one solve per node.
    EXPECT_GT(batched.stats().batched_resolves, 0u);
    EXPECT_LE(batched.stats().contention_solves,
              static_cast<std::uint64_t>(kNodes));
    EXPECT_GT(eager.stats().contention_solves,
              batched.stats().contention_solves);
}

TEST(ScaleProperty, ResolveBatchesNest)
{
    Simulation sim(ClusterSpec::scaled(4));
    sim.begin_resolve_batch();
    Rng rng(99);
    const TenantId a = sim.add_tenant(0, jittered_demand(rng));
    sim.begin_resolve_batch();
    const TenantId b = sim.add_tenant(0, jittered_demand(rng));
    sim.end_resolve_batch();
    // Inner close must not re-solve: the outer batch is still open.
    EXPECT_EQ(sim.stats().contention_solves, 0u);
    sim.end_resolve_batch();
    EXPECT_EQ(sim.stats().contention_solves, 1u);

    // Both tenants were solved together.
    Simulation oracle(ClusterSpec::scaled(4));
    Rng rng2(99);
    const TenantId oa = oracle.add_tenant(0, jittered_demand(rng2));
    const TenantId ob = oracle.add_tenant(0, jittered_demand(rng2));
    EXPECT_EQ(sim.tenant_slowdown(a), oracle.tenant_slowdown(oa));
    EXPECT_EQ(sim.tenant_slowdown(b), oracle.tenant_slowdown(ob));
}

TEST(ScaleSmoke, ThousandNodeChurnRunConservesWorkAndPressure)
{
    // A seeded 1000-node churn run, tier-1 sized (~35k events): every
    // tenant runs 5 compute segments with 30% demand churn. At the
    // end no work unit may be lost, every node's pressure total (sum
    // of live tenant demands) must match the driver's books, and the
    // run's final fingerprint must equal the recorded one — this is
    // the golden that covers set_demand-driven re-solves.
    constexpr int kNodes = 1000;
    constexpr int kTenantsPerNode = 7;
    constexpr int kSegments = 5;
    Simulation sim(ClusterSpec::scaled(kNodes));

    struct Tenant {
        TenantId id;
        ProcId proc;
        int left;
        Rng rng;
        double gen_mb; // the pressure we believe this tenant exerts
    };
    std::vector<Tenant> tenants;
    int completed_chains = 0;

    {
        // Registration is a mutation burst per node: batch it.
        ResolveBatch batch(sim);
        for (int node = 0; node < kNodes; ++node) {
            for (int k = 0; k < kTenantsPerNode; ++k) {
                Tenant t;
                t.rng = Rng(0xABCDEF ^
                            (tenants.size() * 2654435761u));
                const TenantDemand d = jittered_demand(t.rng);
                t.id = sim.add_tenant(node, d);
                t.proc = sim.add_proc(t.id);
                t.left = kSegments;
                t.gen_mb = d.gen_mb;
                tenants.push_back(std::move(t));
            }
        }
    }

    std::function<void(std::size_t)> start_segment =
        [&](std::size_t i) {
            Tenant& t = tenants[i];
            sim.compute(t.proc, t.rng.uniform(0.5, 1.5), [&, i] {
                Tenant& self = tenants[i];
                if (--self.left <= 0) {
                    ++completed_chains;
                    return;
                }
                if (self.rng.uniform() < 0.3) {
                    const TenantDemand d = jittered_demand(self.rng);
                    sim.set_demand(self.id, d);
                    self.gen_mb = d.gen_mb;
                }
                start_segment(i);
            });
        };
    for (std::size_t i = 0; i < tenants.size(); ++i)
        start_segment(i);

    sim.run();

    // No lost units: every chain ran all its segments.
    EXPECT_EQ(completed_chains, kNodes * kTenantsPerNode);
    EXPECT_EQ(sim.stats().computes,
              static_cast<std::uint64_t>(kNodes * kTenantsPerNode *
                                         kSegments));

    // Conserved pressure totals: per node, the engine's live demand
    // sum equals the driver's books; slowdowns are sane (>= 1).
    std::vector<double> expected(kNodes, 0.0);
    for (const Tenant& t : tenants)
        expected[static_cast<std::size_t>(sim.node_of(t.id))] +=
            t.gen_mb;
    std::vector<double> actual(kNodes, 0.0);
    for (const Tenant& t : tenants) {
        actual[static_cast<std::size_t>(sim.node_of(t.id))] +=
            sim.tenant_demand(t.id).gen_mb;
        EXPECT_FALSE(sim.proc_busy(t.proc));
        EXPECT_GE(sim.tenant_slowdown(t.id), 1.0);
    }
    for (int node = 0; node < kNodes; ++node)
        EXPECT_EQ(actual[static_cast<std::size_t>(node)],
                  expected[static_cast<std::size_t>(node)])
            << "node " << node << " pressure books diverged";
    EXPECT_EQ(sim.tenants_on(0), kTenantsPerNode);

    double slowdown_sum = 0.0;
    for (const Tenant& t : tenants)
        slowdown_sum += sim.tenant_slowdown(t.id);
    std::ostringstream os;
    os << std::hexfloat << sim.events_executed() << ' ' << sim.now()
       << ' ' << sim.stats().contention_solves << ' '
       << sim.stats().proc_reschedules << ' ' << slowdown_sum << '\n';
    expect_matches_golden("scale_churn.fingerprint", os.str());
}
