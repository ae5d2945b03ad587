/**
 * @file
 * Workload `sim_churn`: the scaled simulation engine at 10k nodes,
 * driven through Simulation's public API (bench/micro_scale's largest
 * row). Every node hosts 10 single-proc tenants; every proc runs 10
 * jittered compute segments, and after each segment the tenant
 * re-rolls its demand with 30% probability, which re-solves its node
 * and reschedules the neighbours' completions. The event load is a
 * pure function of the seed: every tenant draws from its own stream.
 *
 * One operation is one simulated event; its latency is sampled as the
 * mean host time per event over windows of kWindow callbacks. The
 * answer figure is the number of completions the engine scheduled per
 * executed event, in percent: at least 100, and lower means less
 * cancelled work. The tenants' mean slowdown is physics, not a cost:
 * it is printed and kept in the fingerprint, so it cannot change
 * within a run.
 */

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace imc;
using namespace imc::sim;

constexpr int kNodes = 10000;
constexpr int kTenantsPerNode = 10;
constexpr int kSegments = 10;
constexpr double kChurn = 0.3;
// About 15 windows a repetition, each long enough (~0.2 s) that one
// 10 ms preemption of the benchmark's CPU moves its figure by a few
// percent rather than setting the 99th percentile.
constexpr std::uint64_t kWindow = 65536;

TenantDemand
roll_demand(Rng& rng)
{
    TenantDemand d;
    d.gen_mb = rng.uniform(0.5, 12.0);
    d.need_mb = rng.uniform(0.5, 16.0);
    d.bw_gbps = rng.uniform(0.2, 6.0);
    d.mem_intensity = rng.uniform(0.1, 0.9);
    d.cache_gamma = rng.uniform(0.3, 1.2);
    return d;
}

/**
 * Call count, summed host time, and the start of the first and the
 * end of the last call of one kind of traced call.
 */
struct CallTotals {
    std::uint64_t count = 0;
    std::int64_t ns = 0;
    std::int64_t first_ns = 0;
    std::int64_t last_end_ns = 0;

    void add(std::int64_t t0, std::int64_t t1)
    {
        if (count++ == 0)
            first_ns = t0;
        ns += t1 - t0;
        last_end_ns = t1;
    }
};

/**
 * The tenants' application logic: a chain of compute segments per
 * proc with demand churn between segments. Owns the per-tenant state
 * the callbacks close over.
 */
class Churn {
  public:
    Churn(Simulation& sim, std::uint64_t seed) : sim_(sim)
    {
        tenants_.reserve(static_cast<std::size_t>(kNodes) *
                         kTenantsPerNode);
        for (int node = 0; node < kNodes; ++node) {
            for (int k = 0; k < kTenantsPerNode; ++k) {
                Tenant t;
                t.rng = Rng(seed ^ (0x9E3779B97F4A7C15ULL *
                                    (tenants_.size() + 1)));
                t.tenant = sim_.add_tenant(node, roll_demand(t.rng));
                t.proc = sim_.add_proc(t.tenant);
                t.left = kSegments;
                tenants_.push_back(std::move(t));
            }
        }
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            start_segment(i);
    }

    /** Turn per-call timing on (traced repetitions). */
    void trace_calls() { traced_ = true; }

    /** Start the latency windows at the beginning of run(). */
    void start_windows()
    {
        window_start_ns_ = now_ns();
        window_start_events_ = sim_.events_executed();
    }

    std::size_t tenants() const { return tenants_.size(); }

    double slowdown_sum() const
    {
        double sum = 0.0;
        for (const auto& t : tenants_)
            sum += sim_.tenant_slowdown(t.tenant);
        return sum;
    }

    /** Host ms per event, one sample per window. */
    const std::vector<double>& window_ms() const { return window_ms_; }

    const CallTotals& callbacks() const { return callbacks_; }
    const CallTotals& set_demands() const { return set_demands_; }
    const CallTotals& computes() const { return computes_; }

  private:
    struct Tenant {
        TenantId tenant = 0;
        ProcId proc = 0;
        int left = 0;
        Rng rng;
    };

    void start_segment(std::size_t i)
    {
        auto& t = tenants_[i];
        const double work = t.rng.uniform(0.5, 1.5);
        if (!traced_) {
            sim_.compute(t.proc, work, [this, i] { finish_segment(i); });
            return;
        }
        const std::int64_t t0 = now_ns();
        sim_.compute(t.proc, work, [this, i] { finish_segment(i); });
        computes_.add(t0, now_ns());
    }

    void finish_segment(std::size_t i)
    {
        const std::int64_t t0 = traced_ ? now_ns() : 0;
        segment_done(i);
        if (traced_)
            callbacks_.add(t0, now_ns());
        if (++calls_ % kWindow == 0)
            close_window();
    }

    void segment_done(std::size_t i)
    {
        auto& t = tenants_[i];
        if (--t.left <= 0)
            return;
        if (t.rng.uniform() < kChurn) {
            const TenantDemand d = roll_demand(t.rng);
            if (traced_) {
                const std::int64_t t0 = now_ns();
                sim_.set_demand(t.tenant, d);
                set_demands_.add(t0, now_ns());
            } else {
                sim_.set_demand(t.tenant, d);
            }
        }
        start_segment(i);
    }

    void close_window()
    {
        const std::int64_t t = now_ns();
        const std::uint64_t events = sim_.events_executed();
        if (events > window_start_events_)
            window_ms_.push_back(
                static_cast<double>(t - window_start_ns_) * 1e-6 /
                static_cast<double>(events - window_start_events_));
        window_start_ns_ = t;
        window_start_events_ = events;
    }

    Simulation& sim_;
    std::vector<Tenant> tenants_;
    bool traced_ = false;
    std::uint64_t calls_ = 0;
    std::int64_t window_start_ns_ = 0;
    std::uint64_t window_start_events_ = 0;
    std::vector<double> window_ms_;
    CallTotals callbacks_;
    CallTotals set_demands_;
    CallTotals computes_;
};

class SimChurn final : public Workload {
  public:
    explicit SimChurn(std::uint64_t seed) : seed_(seed) {}

    std::string describe() const override
    {
        std::ostringstream os;
        os << "sim_churn: kScaled engine, " << kNodes << " nodes x "
           << kTenantsPerNode << " single-proc tenants x " << kSegments
           << " segments, " << kChurn * 100 << "% demand churn, seed "
           << seed_;
        return os.str();
    }

    bool single_threaded() const override { return true; }

    void setup() override
    {
        churn_.reset();
        sim_.reset();
        sim_ = std::make_unique<Simulation>(ClusterSpec::scaled(kNodes),
                                            SimOptions{EngineMode::kScaled});
        churn_ = std::make_unique<Churn>(*sim_, seed_);
    }

    RepResult run(Tracer* tracer) override
    {
        Simulation& sim = *sim_;
        Churn& churn = *churn_;
        if (tracer)
            churn.trace_calls();
        Tracer::Id root = Tracer::kNone;
        Tracer::Id run_span = Tracer::kNone;
        std::size_t mark = 0;
        if (tracer) {
            mark = tracer->size();
            root = tracer->open("sim_churn.rep", Tracer::kResidual);
            run_span = tracer->open("Simulation::run", "sim", root);
        }
        churn.start_windows();
        const std::int64_t t0 = now_ns();
        sim.run(/*max_events=*/500'000'000);
        const std::int64_t t1 = now_ns();

        RepResult r;
        r.work_s = seconds_between(t0, t1);
        r.ops = sim.events_executed();
        r.op_ms = churn.window_ms();
        const double tenants = static_cast<double>(churn.tenants());
        const double sum = churn.slowdown_sum();
        // Completions the engine scheduled per executed event: every
        // compute() schedules one, and every re-solve reschedules the
        // in-flight ones on its node. The rest was cancelled.
        const SimStats& st = sim.stats();
        r.answer_pct =
            static_cast<double>(st.computes + st.proc_reschedules) /
            static_cast<double>(r.ops) * 100.0;
        r.named["mean_slowdown_pct"] = (sum / tenants - 1.0) * 100.0;
        std::ostringstream digest;
        digest << "events=" << r.ops << " t=" << std::hex
               << bits_of(sim.now()) << " sum=" << bits_of(sum);
        r.digest = digest.str();
        const std::uint64_t expected =
            static_cast<std::uint64_t>(churn.tenants()) * kSegments;
        r.check(r.ops == expected,
                "sim_churn: " + std::to_string(r.ops) +
                    " events, expected tenants x segments = " +
                    std::to_string(expected));
        r.check(std::isfinite(sum) && sum >= tenants,
                "sim_churn: slowdown sum below the tenant count");

        if (tracer) {
            tracer->close(run_span);
            const CallTotals& cb = churn.callbacks();
            const CallTotals& sd = churn.set_demands();
            const CallTotals& cp = churn.computes();
            const Tracer::Id cb_span = tracer->add_aggregate(
                "app.segment_done", "app", run_span, cb.first_ns,
                cb.last_end_ns, cb.ns, cb.count);
            tracer->add_aggregate("Simulation::set_demand", "sim", cb_span,
                                  sd.first_ns, sd.last_end_ns, sd.ns,
                                  sd.count);
            tracer->add_aggregate("Simulation::compute", "sim", cb_span,
                                  cp.first_ns, cp.last_end_ns, cp.ns,
                                  cp.count);
            tracer->close(root);
            fill_layers(r, *tracer, mark, run_span);
        }
        churn_.reset();
        sim_.reset();
        return r;
    }

  private:
    void fill_layers(RepResult& r, const Tracer& tracer,
                     std::size_t mark, Tracer::Id run_span)
    {
        const Simulation& sim = *sim_;
        const Churn& churn = *churn_;
        const SimStats& st = sim.stats();
        const double events = static_cast<double>(r.ops);
        auto& L = r.layers;
        L["sim.events"] = events;
        L["sim.computes"] = static_cast<double>(st.computes);
        L["sim.proc_reschedules"] =
            static_cast<double>(st.proc_reschedules);
        L["sim.contention_solves"] =
            static_cast<double>(st.contention_solves);
        L["sim.batched_resolves"] =
            static_cast<double>(st.batched_resolves);
        L["sim.useful_event_ratio"] =
            events / static_cast<double>(st.computes + st.proc_reschedules);
        L["sim.runs"] = 1.0;
        L["sim.events_per_run"] = events;
        L["sim.bytes_per_node"] =
            static_cast<double>(sim.approx_bytes()) / kNodes;

        const auto mean_us = [](const CallTotals& c) {
            return c.count ? static_cast<double>(c.ns) * 1e-3 /
                                 static_cast<double>(c.count)
                           : 0.0;
        };
        L["sim.set_demand_us"] = mean_us(churn.set_demands());
        L["sim.compute_us"] = mean_us(churn.computes());
        L["sim.app_callback_us"] = mean_us(churn.callbacks());
        const std::int64_t run_ns = tracer.spans()[run_span].dur_ns;
        L["sim.dispatch_us"] =
            static_cast<double>(run_ns - churn.callbacks().ns) * 1e-3;

        const auto self = tracer.layer_self_ns_since(mark);
        const auto sim_self = self.count("sim") ? self.at("sim") : 0;
        L["sim.ns_per_event"] = static_cast<double>(sim_self) / events;
    }

    std::uint64_t seed_;
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<Churn> churn_;
};

} // namespace

std::unique_ptr<Workload>
make_sim_churn(std::uint64_t seed)
{
    return std::make_unique<SimChurn>(seed);
}

} // namespace perfbench
