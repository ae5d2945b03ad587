#ifndef IMC_WORKLOAD_RUNNER_HPP
#define IMC_WORKLOAD_RUNNER_HPP

/**
 * @file
 * High-level experiment runner: the "run this and time it" layer every
 * profiling and validation experiment is built on.
 *
 * Each run constructs a fresh Simulation, deploys the application(s)
 * and any interference sources (bubbles, background EC2 tenants,
 * restarting co-runners), executes to completion, and reports times.
 * Runs are averaged over cfg.reps repetitions with independent derived
 * seeds.
 */

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "workload/app.hpp"
#include "workload/app_spec.hpp"

namespace imc::workload {

/** Shared configuration of one experiment campaign. */
struct RunConfig {
    /** Cluster profile to run on. */
    sim::ClusterSpec cluster = sim::ClusterSpec::private8();
    /** Master seed; every run derives from it deterministically. */
    std::uint64_t seed = 42;
    /** Repetitions averaged per measurement. */
    int reps = 3;
    /**
     * Per-measurement salt mixed into derived seeds so distinct
     * interference settings see independent run-to-run noise (as
     * distinct profiling runs on a real cluster would).
     */
    std::uint64_t salt = 0;
};

/** A static interference source present for a whole run. */
struct ExtraTenant {
    sim::NodeId node = 0;
    sim::TenantDemand demand;
};

/** An application and the nodes it occupies. */
struct Deployment {
    AppSpec app;
    std::vector<sim::NodeId> nodes;
};

/** Node list [0, n) — the standard full-cluster deployment. */
std::vector<sim::NodeId> all_nodes(const sim::ClusterSpec& cluster);

/**
 * Build the per-node extra tenants for a bubble pressure vector.
 *
 * @param pressures per-node bubble pressure; 0 entries place no bubble
 */
std::vector<ExtraTenant>
bubble_tenants(const std::vector<double>& pressures);

/**
 * Mean completion time of @p app deployed on @p nodes with the given
 * static interference sources present throughout.
 *
 * On clusters with background interference (EC2), random background
 * tenants are added per repetition; they affect solo baselines too,
 * as on the real service.
 */
double run_app_time(const AppSpec& app,
                    const std::vector<sim::NodeId>& nodes,
                    const std::vector<ExtraTenant>& extra,
                    const RunConfig& cfg);

/** Mean completion time with no explicit interference. */
double run_solo_time(const AppSpec& app,
                     const std::vector<sim::NodeId>& nodes,
                     const RunConfig& cfg);

/**
 * Normalized execution time under a per-node bubble pressure vector:
 * time(pressures) / time(no bubbles), each averaged over cfg.reps.
 */
double run_with_bubbles_norm(const AppSpec& app,
                             const std::vector<sim::NodeId>& nodes,
                             const std::vector<double>& pressures,
                             const RunConfig& cfg);

/**
 * Measure @p target co-running with other applications.
 *
 * The target runs once; every co-runner restarts continuously until
 * the target finishes (the standard co-run measurement methodology,
 * keeping contention stationary). The Dom0 effect is applied when a
 * dom0-sensitive application meets a fluctuating-CPU application
 * (Section 4.3).
 *
 * @return the target's mean completion time over cfg.reps
 */
double run_corun_time(const AppSpec& target,
                      const std::vector<sim::NodeId>& target_nodes,
                      const std::vector<Deployment>& corunners,
                      const RunConfig& cfg);

/**
 * Keeps relaunching an application until stopped — used for co-runner
 * and placement measurements where interference must stay stationary.
 */
class RestartingApp {
  public:
    /**
     * Launch immediately and relaunch on every completion.
     *
     * @param first_completion optional hook invoked at the *first*
     *        completion only (used by placement runs to time each app)
     */
    RestartingApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts,
                  sim::Callback first_completion = nullptr);

    /** Stop relaunching (the current run, if any, completes). */
    void stop() { stopped_ = true; }

    /**
     * Stop relaunching AND withdraw the current run mid-flight
     * (RunningApp::detach): tenants leave, in-flight work is
     * abandoned. Used by the scheduler to execute departures and
     * evictions.
     */
    void detach()
    {
        stopped_ = true;
        if (current_)
            current_->detach();
    }

    /** First run's metric (completion time, or p99 latency for
     *  service apps), or -1 before any run finishes. */
    double first_finish_time() const { return first_finish_; }

    /** Number of completed runs so far. */
    int completions() const { return completions_; }

  private:
    void relaunch();

    sim::Simulation& sim_;
    AppSpec spec_;
    LaunchOptions opts_;
    sim::Callback first_completion_;
    std::unique_ptr<RunningApp> current_;
    int epoch_ = 0;
    int completions_ = 0;
    double first_finish_ = -1.0;
    double epoch_start_ = 0.0;
    bool stopped_ = false;
};

/**
 * Compose Dom0-effect adjustments for a set of co-located
 * applications: for every Dom0-sensitive application the fraction of
 * its nodes shared with fluctuating-CPU applications determines an
 * extra noise sigma, a random generated-demand wobble, and a mean
 * compute slowdown (Dom0 CPU starvation; Section 4.3).
 */
struct CorunAdjust {
    double extra_noise_sigma = 0.0;
    double demand_scale = 1.0;
};

/**
 * @param apps     the co-located applications
 * @param overlaps for each app, the fraction of its nodes hosting a
 *                 fluctuating-CPU co-tenant, in [0, 1]
 * @param rng      stream for the per-run demand wobble
 */
std::vector<CorunAdjust>
corun_adjustments(const std::vector<AppSpec>& apps,
                  const std::vector<double>& overlaps, Rng& rng);

/**
 * Node-sharing overlap fractions for a set of deployments: entry i is
 * the fraction of deployment i's nodes also occupied by at least one
 * fluctuating-CPU deployment j != i.
 */
std::vector<double>
fluctuating_overlaps(const std::vector<Deployment>& deployments);

} // namespace imc::workload

#endif // IMC_WORKLOAD_RUNNER_HPP
