#include "workload/runner.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bubble/bubble.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace imc::workload {

namespace {

/** Extra run-to-run noise a Dom0-sensitive app gains per Section 4.3. */
constexpr double kDom0NoiseSigma = 0.08;
/** Lognormal sigma of the Dom0-driven generated-demand fluctuation. */
constexpr double kDom0DemandSigma = 0.15;

/** Event budget per run; far above any legitimate experiment. */
constexpr std::uint64_t kMaxEventsPerRun = 20'000'000;

/** Scale a demand's generated interference by a factor. */
sim::TenantDemand
scale_generated(sim::TenantDemand d, double factor)
{
    d.gen_mb *= factor;
    d.bw_gbps *= factor;
    return d;
}

/** Add per-node background tenants for clusters that have them. */
void
add_background(sim::Simulation& sim, Rng& rng)
{
    const double sigma = sim.spec().background_sigma;
    if (sigma <= 0.0)
        return;
    for (int n = 0; n < sim.spec().num_nodes; ++n) {
        const double pressure = std::fabs(rng.normal(0.0, sigma));
        if (pressure < 0.05)
            continue;
        sim.add_tenant(n, bubble::bubble_demand(pressure));
    }
}

} // namespace

std::vector<sim::NodeId>
all_nodes(const sim::ClusterSpec& cluster)
{
    std::vector<sim::NodeId> nodes(
        static_cast<std::size_t>(cluster.num_nodes));
    for (int i = 0; i < cluster.num_nodes; ++i)
        nodes[static_cast<std::size_t>(i)] = i;
    return nodes;
}

std::vector<ExtraTenant>
bubble_tenants(const std::vector<double>& pressures)
{
    std::vector<ExtraTenant> out;
    for (std::size_t n = 0; n < pressures.size(); ++n) {
        require(pressures[n] >= 0.0,
                "bubble_tenants: negative pressure");
        if (pressures[n] > 0.0) {
            out.push_back(ExtraTenant{static_cast<sim::NodeId>(n),
                                      bubble::bubble_demand(pressures[n])});
        }
    }
    return out;
}

double
run_app_time(const AppSpec& app, const std::vector<sim::NodeId>& nodes,
             const std::vector<ExtraTenant>& extra, const RunConfig& cfg)
{
    require(cfg.reps >= 1, "run_app_time: reps must be >= 1");
    OnlineStats times;
    const Rng master(cfg.seed);
    for (int rep = 0; rep < cfg.reps; ++rep) {
        Rng rep_rng = master.fork("run_app_time:" + app.abbrev)
                          .fork(cfg.salt)
                          .fork(rep);
        sim::Simulation sim(cfg.cluster);
        Rng bg_rng = rep_rng.fork("background");
        add_background(sim, bg_rng);
        for (const auto& t : extra)
            sim.add_tenant(t.node, t.demand);

        LaunchOptions opts;
        opts.nodes = nodes;
        opts.procs_per_node = cfg.cluster.procs_per_unit;
        opts.rng = rep_rng.fork("app");
        auto running = launch(sim, app, std::move(opts));
        sim.run(kMaxEventsPerRun);
        invariant(running->done(), "run_app_time: app never finished");
        // Latency-serving apps are measured by tail latency, not
        // completion time; every other template reports -1 here.
        const double qos = running->qos_metric();
        times.add(qos >= 0.0 ? qos : running->finish_time());
    }
    return times.mean();
}

double
run_solo_time(const AppSpec& app, const std::vector<sim::NodeId>& nodes,
              const RunConfig& cfg)
{
    return run_app_time(app, nodes, {}, cfg);
}

double
run_with_bubbles_norm(const AppSpec& app,
                      const std::vector<sim::NodeId>& nodes,
                      const std::vector<double>& pressures,
                      const RunConfig& cfg)
{
    const double solo = run_solo_time(app, nodes, cfg);
    invariant(solo > 0.0, "run_with_bubbles_norm: nonpositive solo time");
    const double loaded =
        run_app_time(app, nodes, bubble_tenants(pressures), cfg);
    return loaded / solo;
}

RestartingApp::RestartingApp(sim::Simulation& sim, AppSpec spec,
                             LaunchOptions opts,
                             sim::Callback first_completion)
    : sim_(sim), spec_(std::move(spec)), opts_(std::move(opts)),
      first_completion_(std::move(first_completion))
{
    relaunch();
}

void
RestartingApp::relaunch()
{
    epoch_start_ = sim_.now();
    LaunchOptions opts = opts_;
    opts.rng = opts_.rng.fork(static_cast<std::uint64_t>(epoch_));
    opts.on_complete = [this] {
        ++completions_;
        if (first_finish_ < 0.0) {
            // Service apps report tail latency as their first-finish
            // metric (current_ is valid here: completion can only
            // fire from a sim event, after launch() returned).
            const double qos = current_->qos_metric();
            first_finish_ =
                qos >= 0.0 ? qos : sim_.now() - epoch_start_;
            if (first_completion_)
                first_completion_();
        }
        if (!stopped_) {
            // Relaunch via a zero-delay event: the current app object
            // is still finalizing when this callback runs.
            sim_.schedule(0.0, [this] {
                if (!stopped_)
                    relaunch();
            });
        }
    };
    ++epoch_;
    current_ = launch(sim_, spec_, std::move(opts));
}

std::vector<CorunAdjust>
corun_adjustments(const std::vector<AppSpec>& apps,
                  const std::vector<double>& overlaps, Rng& rng)
{
    require(apps.size() == overlaps.size(),
            "corun_adjustments: overlap count mismatch");
    std::vector<CorunAdjust> out(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        require(overlaps[i] >= 0.0 && overlaps[i] <= 1.0,
                "corun_adjustments: overlap out of range");
        if (!apps[i].dom0_sensitive || overlaps[i] <= 0.0)
            continue;
        // Co-located fluctuating CPU load starves Dom0: the sensitive
        // app slows down on average and both its runtime and its
        // generated pressure wobble run to run.
        out[i].extra_noise_sigma = kDom0NoiseSigma * overlaps[i];
        out[i].demand_scale =
            rng.lognormal_factor(kDom0DemandSigma * overlaps[i]);
    }
    return out;
}

std::vector<double>
fluctuating_overlaps(const std::vector<Deployment>& deployments)
{
    std::vector<double> out(deployments.size(), 0.0);
    for (std::size_t i = 0; i < deployments.size(); ++i) {
        const auto& mine = deployments[i].nodes;
        if (mine.empty())
            continue;
        int shared = 0;
        for (sim::NodeId node : mine) {
            bool hit = false;
            for (std::size_t j = 0; j < deployments.size() && !hit;
                 ++j) {
                if (j == i || !deployments[j].app.fluctuating_cpu)
                    continue;
                const auto& theirs = deployments[j].nodes;
                hit = std::find(theirs.begin(), theirs.end(), node) !=
                      theirs.end();
            }
            shared += hit;
        }
        out[i] = static_cast<double>(shared) /
                 static_cast<double>(mine.size());
    }
    return out;
}

double
run_corun_time(const AppSpec& target,
               const std::vector<sim::NodeId>& target_nodes,
               const std::vector<Deployment>& corunners,
               const RunConfig& cfg)
{
    require(cfg.reps >= 1, "run_corun_time: reps must be >= 1");
    OnlineStats times;
    const Rng master(cfg.seed);
    for (int rep = 0; rep < cfg.reps; ++rep) {
        Rng rep_rng = master.fork("run_corun_time:" + target.abbrev)
                          .fork(cfg.salt)
                          .fork(rep);
        sim::Simulation sim(cfg.cluster);
        Rng bg_rng = rep_rng.fork("background");
        add_background(sim, bg_rng);

        // Dom0 adjustments follow actual node sharing.
        std::vector<Deployment> all_deployments{
            Deployment{target, target_nodes}};
        for (const auto& d : corunners)
            all_deployments.push_back(d);
        std::vector<AppSpec> all_apps;
        for (const auto& d : all_deployments)
            all_apps.push_back(d.app);
        Rng adjust_rng = rep_rng.fork("dom0");
        const auto adjust = corun_adjustments(
            all_apps, fluctuating_overlaps(all_deployments),
            adjust_rng);

        bool target_done = false;

        AppSpec target_spec = target;
        target_spec.demand =
            scale_generated(target_spec.demand, adjust[0].demand_scale);
        LaunchOptions topts;
        topts.nodes = target_nodes;
        topts.procs_per_node = cfg.cluster.procs_per_unit;
        topts.rng = rep_rng.fork("target");
        topts.extra_noise_sigma = adjust[0].extra_noise_sigma;
        topts.on_complete = [&target_done] { target_done = true; };
        auto running = launch(sim, target_spec, std::move(topts));

        std::vector<std::unique_ptr<RestartingApp>> others;
        for (std::size_t i = 0; i < corunners.size(); ++i) {
            AppSpec spec = corunners[i].app;
            spec.demand = scale_generated(spec.demand,
                                          adjust[i + 1].demand_scale);
            LaunchOptions opts;
            opts.nodes = corunners[i].nodes;
            opts.procs_per_node = cfg.cluster.procs_per_unit;
            opts.rng = rep_rng.fork("corunner").fork(i);
            opts.extra_noise_sigma = adjust[i + 1].extra_noise_sigma;
            others.push_back(std::make_unique<RestartingApp>(
                sim, std::move(spec), std::move(opts)));
        }

        std::uint64_t steps = 0;
        while (!target_done && sim.step()) {
            invariant(++steps <= kMaxEventsPerRun,
                      "run_corun_time: event budget exceeded");
        }
        invariant(target_done, "run_corun_time: target never finished");
        for (auto& other : others)
            other->stop();
        const double qos = running->qos_metric();
        times.add(qos >= 0.0 ? qos : running->finish_time());
    }
    return times.mean();
}

} // namespace imc::workload
