/**
 * @file
 * Physics suite of the delay-wave validation study (DESIGN.md §11):
 * injected one-off delays must propagate through the neighbor-coupled
 * BSP simulation exactly as the Afzal–Hager–Wellein model predicts.
 *
 * Silent-system laws are asserted exactly (the simulation is
 * deterministic and the model closed-form); noisy-system fits use the
 * pooled multi-seed estimator and the documented tolerances of
 * DESIGN.md §11 (speed within 10 % of the analytic pace, decay length
 * within a factor 2 of the mean-field prediction).
 *
 * Own binary: the injector is driven through the process-global fault
 * engine (armed "bsp.inject" slow clauses), and the CI chaos and TSan
 * jobs pick the suite up via the Delaywave. prefix.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "sim/wave.hpp"
#include "workload/delaywave.hpp"

using namespace imc;
using namespace imc::workload;
using namespace imc::sim;

namespace {

/** RAII arm/disarm of the process-global fault schedule. */
struct ArmGuard {
    ArmGuard(std::uint64_t seed, const std::string& spec)
    {
        fault::arm(seed, spec);
    }
    ~ArmGuard() { fault::disarm(); }
};

/** Spec string arming a certain one-off delay of @p delay seconds. */
std::string
inject_spec(double delay)
{
    return "bsp.inject:slow:1:" +
           std::to_string(static_cast<int>(delay * 1000.0));
}

/** Capture the scenario twice — without and with its injections —
 *  and extract the wave. The baseline shares the seed, so both runs
 *  draw bit-identical noise. */
wave::Observed
observe(const delaywave::Scenario& s, double delay)
{
    delaywave::Scenario base = s;
    base.injections.clear();
    const auto baseline = delaywave::capture(base);
    const ArmGuard guard(1, inject_spec(delay));
    const auto injected = delaywave::capture(s);
    return wave::extract_fronts(injected.timeline, baseline.timeline,
                                s.injections.front().rank,
                                s.injections.front().iter,
                                0.5 * delay);
}

/** Pooled wave fit over @p seeds reruns of the same scenario. */
wave::Fit
pooled_fit(const delaywave::Scenario& proto, double delay, int seeds)
{
    std::vector<wave::Observed> runs;
    for (int i = 0; i < seeds; ++i) {
        delaywave::Scenario s = proto;
        s.seed = proto.seed + static_cast<std::uint64_t>(i);
        runs.push_back(observe(s, delay));
    }
    return wave::fit_waves(runs);
}

/** A silent 16-rank chain with a mid-chain injection at iteration 4. */
delaywave::Scenario
silent_chain()
{
    delaywave::Scenario s;
    s.nodes = 4;
    s.procs_per_node = 4;
    s.iterations = 32;
    s.work = 0.1;
    s.sync_cost = 0.002;
    s.period = 1;
    s.halo = 1;
    s.noise_sigma = 0.0;
    s.injections = {BspInjection{8, 4}};
    return s;
}

/** A noisy 96-rank chain, long enough to resolve decay lengths. */
delaywave::Scenario
noisy_chain(double sigma)
{
    delaywave::Scenario s;
    s.nodes = 24;
    s.procs_per_node = 4;
    s.iterations = 120;
    s.work = 0.1;
    s.sync_cost = 0.002;
    s.period = 1;
    s.halo = 1;
    s.noise_sigma = sigma;
    s.seed = 100;
    s.injections = {BspInjection{48, 4}};
    return s;
}

} // namespace

TEST(Delaywave, SilentFrontAdvancesOneHopPerIteration)
{
    // The exact law: rank r's release of iteration k waits on its
    // neighbors' *arrival* at the same sync, so the wave reaches
    // distance d at iteration inject_iter + d - 1 — one process-hop
    // per iteration, starting at the injection iteration itself.
    const auto s = silent_chain();
    const double delay = 0.3;
    const auto obs = observe(s, delay);
    int reached = 0;
    for (const auto& f : obs.fronts) {
        if (f.dist < 1)
            continue;
        ASSERT_TRUE(f.reached) << "rank " << f.rank;
        ++reached;
        EXPECT_EQ(f.iter, s.injections.front().iter + f.dist - 1)
            << "rank " << f.rank;
    }
    EXPECT_EQ(reached, delaywave::ranks(s) - 1);

    const auto fit = wave::fit_wave(obs);
    ASSERT_TRUE(fit.converged);
    EXPECT_DOUBLE_EQ(fit.ranks_per_iter, 1.0);
}

TEST(Delaywave, SilentSystemIsUndamped)
{
    // Zero noise means zero slack anywhere: every rank, however far,
    // eventually idles for exactly the injected delay.
    const auto s = silent_chain();
    const double delay = 0.3;
    const auto obs = observe(s, delay);
    for (const auto& f : obs.fronts) {
        if (f.dist < 1)
            continue;
        EXPECT_NEAR(f.amplitude, delay, 1e-9) << "rank " << f.rank;
    }
    const auto fit = wave::fit_wave(obs);
    ASSERT_TRUE(fit.converged);
    EXPECT_NEAR(fit.amplitude0, delay, 1e-9);
    EXPECT_TRUE(std::isinf(fit.decay_length));

    const auto pred =
        wave::analytic(delaywave::analytic_model(s, delay));
    EXPECT_TRUE(std::isinf(pred.decay_length));
}

TEST(Delaywave, SilentSpeedMatchesAnalyticExactly)
{
    const auto s = silent_chain();
    const double delay = 0.3;
    const auto fit = wave::fit_wave(observe(s, delay));
    ASSERT_TRUE(fit.converged);
    const auto pred =
        wave::analytic(delaywave::analytic_model(s, delay));
    // Silent period = period * work + sync_cost with no stochastic
    // term on either side; the fitted slope must land on the model to
    // rounding error.
    EXPECT_DOUBLE_EQ(pred.ranks_per_period, 1.0);
    EXPECT_NEAR(pred.period_seconds, 0.102, 1e-12);
    EXPECT_NEAR(fit.ranks_per_sec, pred.ranks_per_sec,
                1e-9 * pred.ranks_per_sec);
}

TEST(Delaywave, CollectivePeriodSlowsIterationSpeed)
{
    // With a sync only every 3 iterations the wave still moves halo
    // ranks per *sync*, i.e. 1/3 rank per iteration; off-boundary
    // iterations release at compute end without waiting.
    auto s = silent_chain();
    s.period = 3;
    s.iterations = 60;
    const double delay = 0.3;

    delaywave::Scenario base = s;
    base.injections.clear();
    const auto baseline = delaywave::capture(base);
    {
        const ArmGuard guard(1, inject_spec(delay));
        const auto injected = delaywave::capture(s);
        const auto obs = wave::extract_fronts(
            injected.timeline, baseline.timeline, 8, 4, 0.5 * delay);
        const auto fit = wave::fit_wave(obs);
        ASSERT_TRUE(fit.converged);
        EXPECT_NEAR(fit.ranks_per_iter, 1.0 / 3.0, 1e-9);
        const auto pred =
            wave::analytic(delaywave::analytic_model(s, delay));
        EXPECT_NEAR(pred.period_seconds, 0.302, 1e-12);
        EXPECT_NEAR(fit.ranks_per_sec, pred.ranks_per_sec,
                    1e-9 * pred.ranks_per_sec);
    }
    // Off-boundary iterations must not have waited: release ==
    // compute_end wherever (iter + 1) % period != 0.
    const auto& tl = baseline.timeline;
    for (int r = 0; r < tl.ranks(); ++r)
        for (int k = 0; k < tl.stamped_iters(r); ++k) {
            if ((k + 1) % s.period != 0) {
                EXPECT_DOUBLE_EQ(tl.cell(r, k).release,
                                 tl.cell(r, k).compute_end)
                    << "rank " << r << " iter " << k;
            }
        }
}

TEST(Delaywave, FullBarrierPropagatesInstantly)
{
    // halo = 0 couples every rank through one global barrier: the
    // whole cluster idles at the injection iteration's sync, so the
    // "wave" reaches every distance in the same iteration.
    auto s = silent_chain();
    s.halo = 0;
    const double delay = 0.3;
    const auto obs = observe(s, delay);
    for (const auto& f : obs.fronts) {
        if (f.dist < 1)
            continue;
        ASSERT_TRUE(f.reached) << "rank " << f.rank;
        EXPECT_EQ(f.iter, s.injections.front().iter)
            << "rank " << f.rank;
        EXPECT_NEAR(f.amplitude, delay, 1e-9) << "rank " << f.rank;
    }
}

TEST(Delaywave, CounterWavesCombineByMaxNotSum)
{
    // Two simultaneous injections launch waves toward each other.
    // Idle time does not add: where the waves cross, a rank waits for
    // the later of its two late neighbors, so the amplitude and the
    // final lateness both equal the *max* of the two delays.
    delaywave::Scenario s;
    s.nodes = 8;
    s.procs_per_node = 4;
    s.iterations = 64;
    s.work = 0.1;
    s.sync_cost = 0.002;
    s.noise_sigma = 0.0;
    s.injections = {BspInjection{8, 4}, BspInjection{24, 4}};
    const double delay = 0.3;

    delaywave::Scenario base = s;
    base.injections.clear();
    const auto baseline = delaywave::capture(base);
    const ArmGuard guard(1, inject_spec(delay));
    const auto injected = delaywave::capture(s);

    const auto waits =
        wave::extra_wait_field(injected.timeline, baseline.timeline);
    const auto late =
        wave::lateness_field(injected.timeline, baseline.timeline);
    const int iters = injected.timeline.iters();
    for (int r = 0; r < injected.timeline.ranks(); ++r) {
        double peak = 0.0;
        for (int k = 0; k < iters; ++k)
            peak = std::max(
                peak, waits[static_cast<std::size_t>(r * iters + k)]);
        EXPECT_LE(peak, delay + 1e-9) << "rank " << r;
        EXPECT_NEAR(
            late[static_cast<std::size_t>(r * iters + iters - 1)],
            delay, 1e-9)
            << "rank " << r;
    }
}

TEST(Delaywave, NoiseDampsWaveMonotonically)
{
    // Execution noise gives every sync slack that absorbs part of the
    // passing delay: the decay length must be finite and shrink as
    // sigma grows, and stay within the documented factor 2 of the
    // mean-field prediction.
    const double delay = 0.4;
    const auto weak = pooled_fit(noisy_chain(0.1), delay, 3);
    const auto strong = pooled_fit(noisy_chain(0.3), delay, 3);
    ASSERT_TRUE(weak.converged);
    ASSERT_TRUE(strong.converged);
    ASSERT_TRUE(std::isfinite(weak.decay_length));
    ASSERT_TRUE(std::isfinite(strong.decay_length));
    EXPECT_GT(weak.decay_length, strong.decay_length);

    for (const double sigma : {0.1, 0.3}) {
        const auto& fit = sigma == 0.1 ? weak : strong;
        const auto pred = wave::analytic(
            delaywave::analytic_model(noisy_chain(sigma), delay));
        ASSERT_TRUE(std::isfinite(pred.decay_length));
        EXPECT_GE(fit.decay_length, 0.5 * pred.decay_length)
            << "sigma " << sigma;
        EXPECT_LE(fit.decay_length, 2.0 * pred.decay_length)
            << "sigma " << sigma;
    }
}

TEST(Delaywave, NoisySpeedMatchesAnalyticPace)
{
    // The noisy wave still hops one rank per sync; the pace slows to
    // E[max of the neighborhood's period sums] + sync_cost.
    const double delay = 0.4;
    const auto fit = pooled_fit(noisy_chain(0.1), delay, 3);
    ASSERT_TRUE(fit.converged);
    EXPECT_NEAR(fit.ranks_per_iter, 1.0, 0.03);
    const auto pred = wave::analytic(
        delaywave::analytic_model(noisy_chain(0.1), delay));
    EXPECT_NEAR(fit.ranks_per_sec, pred.ranks_per_sec,
                0.10 * pred.ranks_per_sec);
}

TEST(Delaywave, TimelineBytesIdenticalAcrossSweepThreads)
{
    std::vector<delaywave::Scenario> batch;
    for (int i = 0; i < 6; ++i) {
        auto s = silent_chain();
        s.noise_sigma = 0.05 * i;
        s.seed = 40 + static_cast<std::uint64_t>(i);
        batch.push_back(s);
    }
    const ArmGuard guard(1, inject_spec(0.3));
    const auto serial = delaywave::capture_sweep(batch, 1);
    for (const int threads : {4, 8}) {
        const auto parallel = delaywave::capture_sweep(batch, threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i].timeline.canonical_bytes(),
                      serial[i].timeline.canonical_bytes())
                << "threads " << threads << " scenario " << i;
    }
}

TEST(Delaywave, ArmedButEmptyScheduleLeavesTimelineUntouched)
{
    // Arming a schedule whose clauses match nothing must not perturb
    // the capture: the sim.crash probes roll against content keys,
    // not a shared stream, so the run is bit-identical to unarmed.
    auto s = silent_chain();
    s.noise_sigma = 0.15;
    s.injections.clear();
    const auto unarmed = delaywave::capture(s);
    {
        const ArmGuard guard(9, "");
        const auto armed = delaywave::capture(s);
        EXPECT_EQ(armed.timeline.canonical_bytes(),
                  unarmed.timeline.canonical_bytes());
        EXPECT_EQ(armed.crashed_ranks, 0);
    }
    {
        // Clauses on sites this capture never probes are inert too.
        const ArmGuard guard(9, "sched.admit:slow:1:50");
        const auto armed = delaywave::capture(s);
        EXPECT_EQ(armed.timeline.canonical_bytes(),
                  unarmed.timeline.canonical_bytes());
    }
}

TEST(Delaywave, RejectsBadScenario)
{
    auto s = silent_chain();
    s.nodes = 0;
    EXPECT_THROW(delaywave::capture(s), ConfigError);
    s = silent_chain();
    s.work = 0.0;
    EXPECT_THROW(delaywave::capture(s), ConfigError);
    s = silent_chain();
    s.period = 0;
    EXPECT_THROW(delaywave::capture(s), ConfigError);
}
