/**
 * @file
 * recover_after_crash as a thin client of SchedulerCore (adoption
 * mode): the batch recovery entry point and the event-driven
 * scheduler's crash handling share one repair implementation, and
 * the locked behavior (move order, tie breaks, error messages,
 * determinism) is pinned by tests/test_fault.cpp.
 */

#include "sched/recovery.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "sched/scheduler.hpp"

namespace imc::sched {

RecoveryResult
recover_after_crash(const placement::Placement& placement,
                    const std::vector<sim::NodeId>& dead,
                    const placement::Evaluator& evaluator,
                    placement::Goal goal,
                    std::optional<placement::QosConstraint> qos,
                    const placement::AnnealOptions& opts)
{
    IMC_OBS_SPAN(span, "placement.recover");
    const int num_nodes = placement.num_nodes();
    for (const sim::NodeId node : dead)
        require(node >= 0 && node < num_nodes,
                "recover_after_crash: dead node out of range");
    const auto& instances = placement.instances();
    for (int i = 0; i < placement.num_instances(); ++i)
        for (int u = 0; u < instances[static_cast<std::size_t>(i)].units;
             ++u)
            require(placement.node_of(i, u) >= 0,
                    "recover_after_crash: placement not fully assigned");

    // Adoption-mode core: no admission, no eviction, no polish — mark
    // every dead node first, then one global greedy repair pass (the
    // (instance, unit)-ordered, least-loaded-survivor move sequence).
    SchedOptions sopts;
    sopts.allow_eviction = false;
    sopts.polish_proposals = 0;
    SchedulerCore core(evaluator, placement, sopts);
    for (const sim::NodeId node : dead)
        core.mark_dead(node);
    const int moved = core.repair_displaced();
    placement::Placement repaired = core.placement();
    invariant(repaired.valid(),
              "recover_after_crash: greedy repair left an invalid "
              "placement");
    IMC_OBS_COUNT("placement.recovered_units",
                  static_cast<std::uint64_t>(moved));

    // iterations = 0: the pure greedy repair, evaluated (the annealer
    // itself requires at least one proposal).
    if (opts.iterations == 0) {
        const double total = evaluator.total_time(repaired);
        bool qos_met = true;
        if (qos) {
            const auto times = evaluator.predict(repaired);
            qos_met = times[static_cast<std::size_t>(qos->instance)] <=
                      qos->max_norm_time;
        }
        return RecoveryResult{std::move(repaired), total, qos_met,
                              moved};
    }

    // Annealer polish (swap-only proposals never resurrect a dead
    // node: no unit sits on one).
    const placement::AnnealResult annealed =
        placement::anneal(std::move(repaired), evaluator, goal, qos,
                          opts);
    return RecoveryResult{annealed.placement, annealed.total_time,
                          annealed.qos_met, moved};
}

std::vector<sim::NodeId>
scheduled_crashes(const std::string& scenario, int num_nodes)
{
    std::vector<sim::NodeId> doomed;
    if (!IMC_FAULT_ARMED())
        return doomed;
    for (sim::NodeId node = 0; node < num_nodes; ++node) {
        const std::string key =
            scenario + "#" + std::to_string(node);
        if (IMC_FAULT_PROBE("sim.crash", key, 0).crash)
            doomed.push_back(node);
    }
    return doomed;
}

} // namespace imc::sched
