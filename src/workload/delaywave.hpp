#ifndef IMC_WORKLOAD_DELAYWAVE_HPP
#define IMC_WORKLOAD_DELAYWAVE_HPP

/**
 * @file
 * Delay-wave capture harness (DESIGN.md §11): run a BSP application
 * on an otherwise-quiet cluster with per-iteration timeline capture,
 * so the wave-analysis library (sim/wave.hpp) can compare injected
 * and baseline runs.
 *
 * A Scenario pins everything a capture reads — geometry, coupling,
 * noise, seed — and capture() is a pure function of it plus
 * the armed fault schedule: the injected delay magnitude comes from
 * an armed "bsp.inject" slow clause (the PR-5 injector, exactly the
 * methodology of the Afzal–Hager–Wellein experiments), and an armed
 * "sim.crash" clause may deterministically crash nodes mid-run, whose
 * ranks are then marked absent rather than failing the capture.
 * Because captures share no mutable state, capture_sweep() fans a
 * batch over a worker pool with bit-identical results at any thread
 * count — the RunService discipline, locked down by
 * tests/test_determinism.cpp.
 */

#include <cstdint>
#include <vector>

#include "sim/timeline.hpp"
#include "sim/wave.hpp"
#include "workload/app_spec.hpp"

namespace imc::workload::delaywave {

/** Full static description of one delay-wave capture. */
struct Scenario {
    /** Cluster nodes; ranks = nodes * procs_per_node. */
    int nodes = 8;
    int procs_per_node = 4;
    /** BSP iterations per rank. */
    int iterations = 48;
    /** Mean compute seconds per iteration (noise-free). */
    double work = 0.1;
    /** Sync release latency, seconds. */
    double sync_cost = 0.002;
    /** Iterations per sync (collective period). */
    int period = 1;
    /** Neighbor-sync halo; 0 = global barrier. */
    int halo = 1;
    /** Lognormal sigma of per-iteration execution noise. */
    double noise_sigma = 0.0;
    std::uint64_t seed = 42;
    /** One-off delay targets ("bsp.inject" probes); empty = baseline. */
    std::vector<BspInjection> injections;
};

/** Global ranks of a scenario. */
int ranks(const Scenario& s);

/** The AppSpec a scenario runs (quiet demand, pure iid noise). */
AppSpec scenario_spec(const Scenario& s);

/** What one capture produced. */
struct Capture {
    sim::Timeline timeline;
    /** True when every rank completed (no crash starved a sync). */
    bool finished = false;
    /** Ranks lost to injected node crashes (marked absent). */
    int crashed_ranks = 0;
};

/** Run one scenario to completion (or crash-starvation) and return
 *  its timeline. */
Capture capture(const Scenario& s);

/**
 * Capture a batch, in order, on @p threads workers (<= 1 = inline on
 * the calling thread). Results are bit-identical at any thread count.
 */
std::vector<Capture> capture_sweep(const std::vector<Scenario>& batch,
                                   int threads);

/** The analytic-model view of a scenario carrying @p delay seconds. */
sim::wave::Model analytic_model(const Scenario& s, double delay);

} // namespace imc::workload::delaywave

#endif // IMC_WORKLOAD_DELAYWAVE_HPP
