#ifndef IMC_SCHED_REPLAY_HPP
#define IMC_SCHED_REPLAY_HPP

/**
 * @file
 * Trace replay: drive a SchedulerCore from an imc-trace event stream.
 *
 * replay() is the one entry point behind `imctl serve`, the
 * micro_sched bench, and the scheduler tests: it feeds every trace
 * event to the core in order, tracks decision statistics, optionally
 * compares the incrementally maintained placement against a periodic
 * batch re-anneal oracle over the surviving apps, and optionally
 * *executes* the maintained placement on the scaled sim engine
 * (attach on admit, detach on depart/evict, re-attach on migration).
 *
 * Everything in ReplayResult except `latencies_ms`, `exec_sim_time`
 * and `exec_events` is a pure function of (trace, evaluator, options)
 * — wall-clock latencies are collected but never feed back into a
 * decision, so replays stay byte-identical across machines and
 * `--threads` settings.
 */

#include <cstdint>
#include <vector>

#include "placement/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "sched/trace.hpp"

namespace imc::sched {

/** Replay knobs. */
struct ReplayOptions {
    /** Core scheduler knobs. */
    SchedOptions sched;
    /**
     * Run the batch-anneal oracle every N events (0 = only once,
     * after the last event). The oracle is pure observation: it never
     * feeds back into a decision.
     */
    int oracle_every = 0;
    /** Anneal iterations per oracle solve; <= 0 disables the oracle. */
    int oracle_iterations = 2000;
    /** Parallel anneal chains per oracle solve (fixed => replayable). */
    int oracle_chains = 1;
    /** Seed of the oracle anneals. */
    std::uint64_t oracle_seed = 99;
    /**
     * Also execute the maintained placement on a sim::Simulation:
     * admitted apps launch (restarting) on their assigned nodes,
     * departures and evictions detach mid-flight, crashes kill the
     * sim node, and apps whose node set changed are re-attached at
     * the new placement. Requires a trace without join events (sim
     * nodes cannot rejoin).
     */
    bool execute = false;
    /** Seed of execute-mode launch randomness. */
    std::uint64_t exec_seed = 7;
};

/** One oracle comparison point. */
struct OracleSample {
    /** Events processed when the sample was taken. */
    std::uint64_t event = 0;
    /** Apps alive at the sample. */
    int apps = 0;
    /** The scheduler's VM-weighted total normalized time. */
    double sched_total = 0.0;
    /** The batch re-anneal's total on the same surviving set. */
    double oracle_total = 0.0;
    /** Relative gap; <= 0 means the scheduler matched or beat it. */
    double gap() const
    {
        return oracle_total > 0.0
                   ? (sched_total - oracle_total) / oracle_total
                   : 0.0;
    }
};

/** Replay outcome. */
struct ReplayResult {
    std::uint64_t events = 0;
    int arrivals = 0;
    int admitted = 0;
    /** Capacity rejections (no room even after permitted evictions). */
    int rejected = 0;
    /** Rejections injected through the "sched.admit" fault site. */
    int fault_rejected = 0;
    int departures = 0;
    int crashes = 0;
    int joins = 0;
    /** Best-effort apps evicted (admission makeway + crash repair). */
    int evictions = 0;
    /** Units moved off dead nodes by crash repair. */
    int moved_units = 0;
    /** Apps still placed after the last event. */
    int final_apps = 0;
    double final_total_time = 0.0;
    double final_objective = 0.0;
    /** Oracle comparison points (periodic plus final). */
    std::vector<OracleSample> oracle;
    /** Wall-clock decision latency per event — NOT deterministic. */
    std::vector<double> latencies_ms;
    /** Execute mode: final simulated time (0 when off). */
    double exec_sim_time = 0.0;
    /** Execute mode: simulation events executed (0 when off). */
    std::uint64_t exec_events = 0;
};

/**
 * Replay @p trace through a fresh SchedulerCore.
 *
 * @param trace     parsed event stream
 * @param evaluator dynamic-capable evaluator tracking NO instances
 *                  yet (the core grows it); outlives the call
 * @param opts      replay knobs
 */
ReplayResult replay(const Trace& trace,
                    placement::Evaluator& evaluator,
                    const ReplayOptions& opts);

} // namespace imc::sched

#endif // IMC_SCHED_REPLAY_HPP
