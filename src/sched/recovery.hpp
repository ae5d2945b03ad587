#ifndef IMC_SCHED_RECOVERY_HPP
#define IMC_SCHED_RECOVERY_HPP

/**
 * @file
 * Placement recovery after node loss.
 *
 * When nodes crash mid-campaign (sim::Simulation::crash_node, driven
 * by an armed fault schedule), the units they hosted must be
 * re-placed on the survivors. recover_after_crash does this in two
 * deterministic steps:
 *
 *  1. *Greedy repair.* Displaced units are moved, in (instance, unit)
 *     order, to the least-loaded surviving node with a free slot that
 *     the instance does not already occupy (ties break to the lowest
 *     node id) — a valid placement again, independent of any model.
 *  2. *Annealer polish.* The repaired placement seeds the standard
 *     simulated-annealing search (the same Goal/QoS machinery as the
 *     paper's Section 5 search). The annealer only ever swaps the
 *     node assignments of existing units, so dead nodes — which host
 *     no unit after the repair — can never re-enter the placement.
 *     Pass AnnealOptions::iterations = 0 for the pure greedy repair.
 *
 * The crash *schedule* comes from the fault engine:
 * scheduled_crashes() derives the doomed node set for a scenario key
 * from the armed --fault-seed/--fault-spec, so a chaos run is fully
 * reproducible.
 *
 * The greedy repair runs through SchedulerCore (adoption mode), so
 * the batch recovery path and the event-driven scheduler's crash
 * handling share one repair implementation (src/sched/recovery.cpp).
 */

#include <optional>
#include <string>
#include <vector>

#include "placement/annealer.hpp"
#include "placement/placement.hpp"
#include "sim/types.hpp"

namespace imc::sched {

/** Outcome of a post-crash re-placement. */
struct RecoveryResult {
    /** The recovered placement (valid; avoids every dead node). */
    placement::Placement placement;
    /** Objective of `placement` (VM-weighted total normalized time). */
    double total_time = 0.0;
    /** Whether the QoS constraint holds in `placement`. */
    bool qos_met = true;
    /** Units the greedy repair moved off dead nodes. */
    int moved_units = 0;
};

/**
 * Re-place the units of @p placement that sit on @p dead nodes onto
 * the survivors (greedy repair, then annealer polish as configured by
 * @p opts). Deterministic in its arguments.
 *
 * @throws ConfigError when the surviving capacity cannot hold every
 *         displaced unit, or a dead node id is out of range
 */
RecoveryResult
recover_after_crash(const placement::Placement& placement,
                    const std::vector<sim::NodeId>& dead,
                    const placement::Evaluator& evaluator,
                    placement::Goal goal,
                    std::optional<placement::QosConstraint> qos,
                    const placement::AnnealOptions& opts);

/**
 * The node set an armed fault schedule dooms for @p scenario: probes
 * injection site "sim.crash" once per node with key
 * "<scenario>#<node>". Empty when no schedule is armed (or none of
 * its clauses fire) — and always identical for identical
 * (--fault-seed, --fault-spec, scenario) regardless of threads.
 */
std::vector<sim::NodeId> scheduled_crashes(const std::string& scenario,
                                           int num_nodes);

} // namespace imc::sched

#endif // IMC_SCHED_RECOVERY_HPP
