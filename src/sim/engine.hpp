#ifndef IMC_SIM_ENGINE_HPP
#define IMC_SIM_ENGINE_HPP

/**
 * @file
 * The discrete-event cluster simulation engine.
 *
 * A Simulation hosts a cluster of nodes. Workloads register *tenants*
 * (one per application per node, carrying that application's
 * shared-resource demand) and *procs* (simulated VMs executing work).
 * Whenever a node's tenant set changes, the contention model is
 * re-solved and every in-flight computation on that node is settled at
 * its old rate and rescheduled at its new rate, so co-location changes
 * take effect mid-computation — exactly the time-varying interference
 * a consolidated cluster exhibits.
 *
 * Work is measured in *work units*: one unit takes one simulated
 * second at slowdown 1.0.
 *
 * Scale architecture (see DESIGN.md §7): the engine's hot path is
 * node-local. Tenant and proc state live in struct-of-arrays so a
 * re-solve streams over contiguous memory; per-node tenant and proc
 * index lists make each re-solve O(node population) instead of
 * O(cluster); the indexed event queue makes schedule, cancel and pop
 * O(log n) with no hashing; and a resolve *batch* (ResolveBatch)
 * coalesces many mutations into one re-solve per dirtied node.
 * tests/golden/ pins the engine's per-event answers: hexfloat traces
 * recorded from the original full-scan, allocating re-solve, which
 * tests/test_scale.cpp compares byte for byte.
 */

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/contention.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace imc::sim {

/** Cheap counters the engine maintains for diagnostics and tests. */
struct SimStats {
    /** Contention re-solves (tenant arrivals/departures/changes). */
    std::uint64_t contention_solves = 0;
    /** In-flight computations settled+rescheduled by those solves. */
    std::uint64_t proc_reschedules = 0;
    /** compute() calls issued. */
    std::uint64_t computes = 0;
    /** crash_node() events applied. */
    std::uint64_t node_crashes = 0;
    /** Mutations whose re-solve a batch coalesced away. */
    std::uint64_t batched_resolves = 0;
};

/**
 * The engine has one mode. This enum and SimOptions remain only
 * because the benchmark harness (perfbench/src/sim_churn.cpp) names
 * them and is kept unchanged across engine changes, so its runs
 * compare commit to commit; the Simulation constructor ignores them
 * and nothing else in the tree names them.
 */
enum class EngineMode {
    kScaled,
};

/** Accepted and ignored by Simulation (see EngineMode). */
struct SimOptions {
    EngineMode mode = EngineMode::kScaled;
};

/**
 * A discrete-event simulation of one cluster.
 *
 * Not copyable; all workload state references into it.
 */
class Simulation {
  public:
    /** Build an idle cluster from a spec (SimOptions is ignored). */
    explicit Simulation(ClusterSpec spec, SimOptions = {});

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** The cluster configuration this simulation runs. */
    const ClusterSpec& spec() const { return spec_; }

    /** Current simulation time in seconds. */
    double now() const { return queue_.now(); }

    /**
     * Schedule a callback after a relative delay.
     *
     * @param dt delay in seconds, >= 0
     */
    EventId schedule(double dt, Callback cb);

    /** Cancel a pending event (no-op if already fired). */
    void cancel(EventId id);

    // --- Tenants -------------------------------------------------------

    /**
     * Register a tenant on a node and re-solve that node's contention.
     *
     * @param node   node index in [0, spec().num_nodes)
     * @param demand the tenant's shared-resource demand
     */
    TenantId add_tenant(NodeId node, const TenantDemand& demand);

    /** Remove a tenant; its procs must already be idle or done. */
    void remove_tenant(TenantId t);

    /** Replace a tenant's demand in place (phase change). */
    void set_demand(TenantId t, const TenantDemand& demand);

    /** Current execution-time multiplier of a tenant. */
    double tenant_slowdown(TenantId t) const;

    /** The demand a tenant currently exerts (live or not). */
    const TenantDemand& tenant_demand(TenantId t) const;

    /** Node a tenant lives on. */
    NodeId node_of(TenantId t) const;

    /** Number of live tenants on a node. */
    int tenants_on(NodeId node) const;

    // --- Procs ---------------------------------------------------------

    /**
     * Add a simulated process bound to a tenant. Its compute rate
     * follows the tenant's slowdown.
     */
    ProcId add_proc(TenantId t);

    /**
     * Run @p work units of computation on a proc, then invoke @p done.
     *
     * The proc must be idle. Zero work completes after a zero-delay
     * event (still asynchronous, preserving event ordering).
     */
    void compute(ProcId p, double work, Callback done);

    /** True while the proc has an unfinished compute in flight. */
    bool proc_busy(ProcId p) const;

    /**
     * Abandon a proc's in-flight computation, if any: the work is
     * settled, the completion event cancelled, and the done callback
     * dropped — the per-proc half of crash_node, exposed so a
     * scheduler can detach a running app mid-simulation without
     * killing its nodes. Idle procs are a no-op.
     */
    void abort_proc(ProcId p);

    /** True while a tenant is registered and its node is up. */
    bool tenant_live(TenantId t) const;

    // --- Batched re-solves ---------------------------------------------

    /**
     * Open a resolve batch: until the matching end_resolve_batch(),
     * tenant mutations only mark their node dirty, and the dirty set
     * is re-solved once — in ascending node order — when the
     * outermost batch closes. An event that touches many tenants of
     * the same node then costs one re-solve instead of one per
     * mutation. Batches nest.
     *
     * While a batch is open, tenant_slowdown() of a dirtied node is
     * stale (the pre-mutation value); compute() reads the rate at
     * call time, so computes issued inside a batch on a dirtied node
     * should follow end_resolve_batch(). Final post-batch state is
     * identical to eager per-mutation re-solves (tests/test_scale.cpp
     * property-checks this).
     */
    void begin_resolve_batch();

    /** Close a batch; the outermost close re-solves all dirty nodes. */
    void end_resolve_batch();

    /**
     * Re-solve every node from scratch (full re-solve). A debug/test
     * hook: after any sequence of incremental re-solves this must not
     * change any tenant's slowdown — the dirty-set invariant
     * tests/test_scale.cpp locks in.
     */
    void refresh_all_nodes();

    // --- Faults --------------------------------------------------------

    /**
     * Crash a node mid-run: every busy proc bound to a tenant on the
     * node is settled and its completion event cancelled (its done
     * callback is dropped — the in-flight work is lost), every tenant
     * on the node is removed, and the node refuses new tenants from
     * then on. Survivors on other nodes are untouched; re-placing the
     * lost units is the scheduler layer's job
     * (sched::recover_after_crash). Crashing a node twice is a
     * no-op; this may be called from inside a scheduled event (a
     * mid-run crash) or between runs.
     */
    void crash_node(NodeId node);

    /** True once @p node has crashed. */
    bool node_crashed(NodeId node) const;

    // --- Execution -----------------------------------------------------

    /**
     * Run until no events remain.
     *
     * @param max_events safety valve; LogicBug beyond it (runaway)
     */
    void run(std::uint64_t max_events = 50'000'000);

    /** Execute a single event. @return false when the queue is empty */
    bool step();

    /** Total events executed so far. */
    std::uint64_t events_executed() const { return queue_.executed(); }

    /** Engine activity counters. */
    const SimStats& stats() const { return stats_; }

    /**
     * Approximate heap bytes of engine state (queue, tenant/proc
     * arrays, node indices, solver scratch). Reported per node by
     * bench/micro_scale as the bytes/node scale metric.
     */
    std::size_t approx_bytes() const;

  private:
    /** Re-solve a node now, or mark it dirty inside a batch. */
    void refresh_node(NodeId node);

    /** Re-solve a node's contention and re-rate its busy procs. */
    void resolve_node(NodeId node);

    /** Settle a busy proc's remaining work up to now(). */
    void settle(std::size_t pid);

    /** Settle + re-rate + reschedule one busy proc of a node. */
    void reschedule_proc(std::size_t pid, double slowdown);

    /** (Re)schedule a busy proc's completion event. */
    void schedule_completion(ProcId pid);

    /** Fire a proc's completion. */
    void complete(ProcId pid);

    ClusterSpec spec_;
    EventQueue queue_;
    SimStats stats_;
    ContentionSolver solver_; // reusable SoA scratch

    // Per-node state.
    std::vector<char> crashed_; // per-node crash flag
    std::vector<std::vector<TenantId>> node_tenants_;
    /**
     * Procs whose tenant lives on the node, in ascending ProcId order
     * (procs never change node: a tenant's node is fixed for life).
     * Makes a re-solve touch only the node's procs — the O(cluster) →
     * O(node) change that unlocks 10k-node runs.
     */
    std::vector<std::vector<ProcId>> node_procs_;

    // Tenant state, struct-of-arrays (indexed by TenantId).
    std::vector<NodeId> tenant_node_;
    std::vector<char> tenant_live_;
    std::vector<double> tenant_slowdown_;
    std::vector<TenantDemand> tenant_demand_;

    // Proc state, struct-of-arrays (indexed by ProcId). The done
    // callbacks sit in their own (cold) array so the settle/reschedule
    // loops never pull std::function payloads through the cache.
    std::vector<TenantId> proc_tenant_;
    std::vector<char> proc_busy_;
    std::vector<double> proc_remaining_;   // work units left
    std::vector<double> proc_rate_;        // work units per second
    std::vector<double> proc_last_update_; // last settle time
    std::vector<EventId> proc_event_;      // pending completion event
    std::vector<Callback> proc_done_;

    // Dirty-set batching.
    int batch_depth_ = 0;
    std::vector<char> node_dirty_;
    std::vector<NodeId> dirty_nodes_;
};

/**
 * RAII resolve batch: begin_resolve_batch() on construction,
 * end_resolve_batch() on destruction.
 */
class ResolveBatch {
  public:
    explicit ResolveBatch(Simulation& sim) : sim_(sim)
    {
        sim_.begin_resolve_batch();
    }
    ~ResolveBatch() { sim_.end_resolve_batch(); }
    ResolveBatch(const ResolveBatch&) = delete;
    ResolveBatch& operator=(const ResolveBatch&) = delete;

  private:
    Simulation& sim_;
};

} // namespace imc::sim

#endif // IMC_SIM_ENGINE_HPP
