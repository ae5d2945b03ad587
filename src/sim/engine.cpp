#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/obs.hpp"

namespace imc::sim {

Simulation::Simulation(ClusterSpec spec, SimOptions)
    : spec_(std::move(spec))
{
    require(spec_.num_nodes > 0, "Simulation: cluster needs >= 1 node");
    const auto n = static_cast<std::size_t>(spec_.num_nodes);
    crashed_.assign(n, 0);
    node_tenants_.resize(n);
    node_procs_.resize(n);
    node_dirty_.assign(n, 0);
}

EventId
Simulation::schedule(double dt, Callback cb)
{
    require(dt >= 0.0, "Simulation::schedule: negative delay");
    return queue_.schedule_at(now() + dt, std::move(cb));
}

void
Simulation::cancel(EventId id)
{
    queue_.cancel(id);
}

TenantId
Simulation::add_tenant(NodeId node, const TenantDemand& demand)
{
    require(node >= 0 && node < spec_.num_nodes,
            "add_tenant: node index out of range");
    require(!crashed_[static_cast<std::size_t>(node)],
            "add_tenant: node has crashed");
    const auto id = static_cast<TenantId>(tenant_node_.size());
    tenant_node_.push_back(node);
    tenant_live_.push_back(1);
    tenant_slowdown_.push_back(1.0);
    tenant_demand_.push_back(demand);
    node_tenants_[static_cast<std::size_t>(node)].push_back(id);
    refresh_node(node);
    return id;
}

void
Simulation::remove_tenant(TenantId t)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "remove_tenant: no such tenant");
    invariant(tenant_live_[ti], "remove_tenant: tenant already removed");
    const NodeId node = tenant_node_[ti];
    for (const ProcId pid : node_procs_[static_cast<std::size_t>(node)]) {
        const auto pi = static_cast<std::size_t>(pid);
        invariant(proc_tenant_[pi] != t || !proc_busy_[pi],
                  "remove_tenant: tenant still has a busy proc");
    }
    auto& list = node_tenants_[static_cast<std::size_t>(node)];
    list.erase(std::find(list.begin(), list.end(), t));
    tenant_live_[ti] = 0;
    refresh_node(node);
}

void
Simulation::set_demand(TenantId t, const TenantDemand& demand)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "set_demand: no such tenant");
    invariant(tenant_live_[ti], "set_demand: tenant removed");
    tenant_demand_[ti] = demand;
    refresh_node(tenant_node_[ti]);
}

double
Simulation::tenant_slowdown(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "tenant_slowdown: no such tenant");
    invariant(tenant_live_[ti], "tenant_slowdown: tenant removed");
    return tenant_slowdown_[ti];
}

const TenantDemand&
Simulation::tenant_demand(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "tenant_demand: no such tenant");
    return tenant_demand_[ti];
}

NodeId
Simulation::node_of(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "node_of: no such tenant");
    return tenant_node_[ti];
}

int
Simulation::tenants_on(NodeId node) const
{
    return static_cast<int>(
        node_tenants_.at(static_cast<std::size_t>(node)).size());
}

ProcId
Simulation::add_proc(TenantId t)
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_node_.size(), "add_proc: no such tenant");
    invariant(tenant_live_[ti], "add_proc: tenant removed");
    const auto id = static_cast<ProcId>(proc_tenant_.size());
    proc_tenant_.push_back(t);
    proc_busy_.push_back(0);
    proc_remaining_.push_back(0.0);
    proc_rate_.push_back(1.0 / tenant_slowdown_[ti]);
    proc_last_update_.push_back(0.0);
    proc_event_.push_back(0);
    proc_done_.emplace_back();
    // Appended in ascending ProcId order, so a re-solve reschedules
    // a node's procs in pid order — the order the tests/golden/
    // traces were recorded in.
    node_procs_[static_cast<std::size_t>(tenant_node_[ti])].push_back(id);
    return id;
}

void
Simulation::compute(ProcId pid, double work, Callback done)
{
    require(work >= 0.0, "compute: negative work");
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < proc_tenant_.size(), "compute: no such proc");
    invariant(!proc_busy_[pi], "compute: proc already busy");
    const auto ti = static_cast<std::size_t>(proc_tenant_[pi]);
    invariant(tenant_live_[ti],
              "compute: proc's tenant was removed or crashed");
    proc_busy_[pi] = 1;
    proc_remaining_[pi] = work;
    proc_rate_[pi] = 1.0 / tenant_slowdown_[ti];
    proc_last_update_[pi] = now();
    proc_done_[pi] = std::move(done);
    ++stats_.computes;
    schedule_completion(pid);
}

bool
Simulation::proc_busy(ProcId pid) const
{
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < proc_tenant_.size(), "proc_busy: no such proc");
    return proc_busy_[pi] != 0;
}

void
Simulation::abort_proc(ProcId pid)
{
    const auto pi = static_cast<std::size_t>(pid);
    require(pi < proc_tenant_.size(), "abort_proc: no such proc");
    if (!proc_busy_[pi])
        return;
    // Same per-proc discipline as crash_node: settle for consistent
    // accounting, cancel the completion, drop the callback — the
    // in-flight work is abandoned, not finished.
    settle(pi);
    queue_.cancel(proc_event_[pi]);
    proc_busy_[pi] = 0;
    proc_remaining_[pi] = 0.0;
    proc_done_[pi] = nullptr;
}

bool
Simulation::tenant_live(TenantId t) const
{
    const auto ti = static_cast<std::size_t>(t);
    require(ti < tenant_live_.size(), "tenant_live: no such tenant");
    return tenant_live_[ti] != 0;
}

void
Simulation::begin_resolve_batch()
{
    ++batch_depth_;
}

void
Simulation::end_resolve_batch()
{
    invariant(batch_depth_ > 0,
              "end_resolve_batch: no batch is open");
    if (--batch_depth_ > 0)
        return;
    // Ascending node order: deterministic regardless of the mutation
    // order that dirtied the set.
    std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
    for (const NodeId node : dirty_nodes_) {
        node_dirty_[static_cast<std::size_t>(node)] = 0;
        resolve_node(node);
    }
    dirty_nodes_.clear();
}

void
Simulation::refresh_all_nodes()
{
    for (NodeId node = 0; node < spec_.num_nodes; ++node)
        resolve_node(node);
}

void
Simulation::crash_node(NodeId node)
{
    require(node >= 0 && node < spec_.num_nodes,
            "crash_node: node index out of range");
    const auto ni = static_cast<std::size_t>(node);
    if (crashed_[ni])
        return;
    crashed_[ni] = 1;
    ++stats_.node_crashes;
    IMC_OBS_COUNT("sim.node_crashes");

    // Kill in-flight work first: settle (for consistent accounting),
    // cancel the completion, and drop the done callback — the work is
    // lost with the node.
    for (const ProcId pid : node_procs_[ni]) {
        const auto pi = static_cast<std::size_t>(pid);
        if (!proc_busy_[pi])
            continue;
        settle(pi);
        queue_.cancel(proc_event_[pi]);
        proc_busy_[pi] = 0;
        proc_remaining_[pi] = 0.0;
        proc_done_[pi] = nullptr;
    }

    // Then drop the tenants and re-solve the (now empty) node.
    auto& list = node_tenants_[ni];
    for (const TenantId t : list)
        tenant_live_[static_cast<std::size_t>(t)] = 0;
    list.clear();
    refresh_node(node);
}

bool
Simulation::node_crashed(NodeId node) const
{
    require(node >= 0 && node < spec_.num_nodes,
            "node_crashed: node index out of range");
    return crashed_[static_cast<std::size_t>(node)] != 0;
}

void
Simulation::run(std::uint64_t max_events)
{
    const std::uint64_t start = queue_.executed();
    const SimStats stats_before = stats_;
    (void)stats_before; // consumed only by the obs block below
    while (queue_.pop_and_run()) {
        invariant(queue_.executed() - start <= max_events,
                  "Simulation::run: event budget exceeded (runaway?)");
    }
    // Aggregate deltas once per run() — the per-event loop above stays
    // untouched so the hot path costs nothing when obs is off.
    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("sim.runs");
        IMC_OBS_COUNT("sim.events", queue_.executed() - start);
        IMC_OBS_COUNT("sim.contention_solves",
                   static_cast<std::uint64_t>(
                       stats_.contention_solves -
                       stats_before.contention_solves));
        IMC_OBS_COUNT("sim.proc_reschedules",
                   static_cast<std::uint64_t>(
                       stats_.proc_reschedules -
                       stats_before.proc_reschedules));
        IMC_OBS_COUNT("sim.computes",
                   static_cast<std::uint64_t>(stats_.computes -
                                              stats_before.computes));
    }
}

bool
Simulation::step()
{
    return queue_.pop_and_run();
}

void
Simulation::refresh_node(NodeId node)
{
    if (batch_depth_ > 0) {
        const auto ni = static_cast<std::size_t>(node);
        if (!node_dirty_[ni]) {
            node_dirty_[ni] = 1;
            dirty_nodes_.push_back(node);
        } else {
            ++stats_.batched_resolves; // a coalesced re-solve
        }
        return;
    }
    resolve_node(node);
}

void
Simulation::resolve_node(NodeId node)
{
    const auto ni = static_cast<std::size_t>(node);
    const auto& ids = node_tenants_[ni];

    solver_.clear();
    for (const TenantId t : ids)
        solver_.push(tenant_demand_[static_cast<std::size_t>(t)]);

    ++stats_.contention_solves;
    solver_.solve(spec_.node);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        tenant_slowdown_[static_cast<std::size_t>(ids[i])] =
            solver_.slowdown(i);
    }

    // Settle and reschedule the node's busy procs — and only the
    // node's: the per-node index list keeps a re-solve O(node), not
    // O(cluster).
    for (const ProcId pid : node_procs_[ni]) {
        const auto pi = static_cast<std::size_t>(pid);
        if (!proc_busy_[pi])
            continue;
        reschedule_proc(
            pi,
            tenant_slowdown_[static_cast<std::size_t>(proc_tenant_[pi])]);
    }
}

void
Simulation::settle(std::size_t pid)
{
    const double elapsed = now() - proc_last_update_[pid];
    proc_remaining_[pid] = std::max(
        0.0, proc_remaining_[pid] - elapsed * proc_rate_[pid]);
    proc_last_update_[pid] = now();
}

void
Simulation::reschedule_proc(std::size_t pid, double slowdown)
{
    settle(pid);
    proc_rate_[pid] = 1.0 / slowdown;
    queue_.cancel(proc_event_[pid]);
    ++stats_.proc_reschedules;
    schedule_completion(static_cast<ProcId>(pid));
}

void
Simulation::schedule_completion(ProcId pid)
{
    const auto pi = static_cast<std::size_t>(pid);
    invariant(proc_rate_[pi] > 0.0,
              "schedule_completion: nonpositive rate");
    const double dt = proc_remaining_[pi] / proc_rate_[pi];
    proc_event_[pi] = schedule(dt, [this, pid] { complete(pid); });
}

void
Simulation::complete(ProcId pid)
{
    const auto pi = static_cast<std::size_t>(pid);
    invariant(proc_busy_[pi], "complete: proc not busy");
    settle(pi);
    invariant(proc_remaining_[pi] <= 1e-9,
              "complete: fired with work remaining");
    proc_busy_[pi] = 0;
    proc_remaining_[pi] = 0.0;
    Callback done = std::move(proc_done_[pi]);
    proc_done_[pi] = nullptr;
    if (done)
        done();
}

std::size_t
Simulation::approx_bytes() const
{
    std::size_t bytes = queue_.approx_bytes() + solver_.approx_bytes();
    bytes += crashed_.capacity() * sizeof(char);
    bytes += node_dirty_.capacity() * sizeof(char);
    bytes += dirty_nodes_.capacity() * sizeof(NodeId);
    bytes += node_tenants_.capacity() * sizeof(node_tenants_[0]);
    for (const auto& v : node_tenants_)
        bytes += v.capacity() * sizeof(TenantId);
    bytes += node_procs_.capacity() * sizeof(node_procs_[0]);
    for (const auto& v : node_procs_)
        bytes += v.capacity() * sizeof(ProcId);
    bytes += tenant_node_.capacity() * sizeof(NodeId);
    bytes += tenant_live_.capacity() * sizeof(char);
    bytes += tenant_slowdown_.capacity() * sizeof(double);
    bytes += tenant_demand_.capacity() * sizeof(TenantDemand);
    bytes += proc_tenant_.capacity() * sizeof(TenantId);
    bytes += proc_busy_.capacity() * sizeof(char);
    bytes += proc_remaining_.capacity() * sizeof(double);
    bytes += proc_rate_.capacity() * sizeof(double);
    bytes += proc_last_update_.capacity() * sizeof(double);
    bytes += proc_event_.capacity() * sizeof(EventId);
    bytes += proc_done_.capacity() * sizeof(Callback);
    return bytes;
}

} // namespace imc::sim
