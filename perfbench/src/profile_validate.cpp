/**
 * @file
 * Workload `profile_validate`: the onboarding path. A fresh
 * ModelRegistry and RunService (bench_threads() workers, private8
 * cluster) build the model of every distributed catalog app with one
 * ModelRegistry::model() call per app, then run the Figure 8 pairwise
 * validation of each of them against all 18 co-runners. One operation
 * is the onboarding of one app: the host time of its model() call plus
 * that of its validate_pairwise() call. (The two calls differ in cost
 * by an order of magnitude, so the median of single calls would sit in
 * the gap between them.) Set-up starts the service, creates
 * the registry (which calibrates the bubble scorer) and builds the
 * models of the six batch apps, which the validation needs only as
 * co-runners.
 *
 * The seed draws the order in which the apps are onboarded, which
 * shapes the RunService's batching and cache reuse. The measurement
 * seed is the fixed cluster configuration of the recorded Figure 8
 * (seed 42, 3 reps), and every result is independent of the order,
 * so the validation errors must come out bit-identical for any seed.
 */

#include <cmath>
#include <sstream>

#include "bench_util.hpp"
#include "common/obs.hpp"
#include "common/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace imc;

constexpr std::uint64_t kMeasureSeed = 42;
constexpr int kReps = 3;

/** Fisher-Yates permutation of [0, n) from @p seed. */
std::vector<std::size_t>
shuffled(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform_index(i)]);
    return order;
}

/** obs counters and histograms a traced repetition reads as deltas. */
struct ObsSnapshot {
    std::map<std::string, double> values;

    static ObsSnapshot take()
    {
        static const char* const kCounters[] = {
            "registry.builds",
            "scorer.probe_runs",
            "sim.runs",
            "sim.events",
            "sim.computes",
            "sim.proc_reschedules",
            "sim.contention_solves",
            "profiler.exhaustive.measured",
            "profiler.binary-brute.measured",
            "profiler.binary-optimized.measured",
            "profiler.random.measured",
            "profiler.exhaustive.interpolated",
            "profiler.binary-brute.interpolated",
            "profiler.binary-optimized.interpolated",
            "profiler.random.interpolated",
        };
        ObsSnapshot s;
        for (const char* name : kCounters)
            s.values[name] =
                static_cast<double>(obs::counter_value(name));
        const auto batch = obs::histogram_snapshot("runservice.batch_size");
        s.values["batch.count"] = static_cast<double>(batch.count);
        s.values["batch.sum"] = batch.sum;
        s.values["execute.us"] =
            obs::histogram_snapshot("runservice.execute.us").sum;
        return s;
    }

    double delta(const ObsSnapshot& before, const std::string& name) const
    {
        return values.at(name) - before.values.at(name);
    }

    double profiler_delta(const ObsSnapshot& before,
                          const std::string& what) const
    {
        double sum = 0.0;
        for (const char* algo : {"exhaustive", "binary-brute",
                                 "binary-optimized", "random"})
            sum += delta(before, std::string("profiler.") + algo + "." +
                                     what);
        return sum;
    }
};

class ProfileValidate final : public Workload {
  public:
    explicit ProfileValidate(std::uint64_t seed)
        : seed_(seed), apps_(workload::catalog()),
          targets_(workload::distributed_apps()),
          profile_order_(shuffled(targets_.size(), seed)),
          validate_order_(shuffled(targets_.size(), seed ^ 0x5EEDULL))
    {
    }

    std::string describe() const override
    {
        std::ostringstream os;
        os << "profile_validate: private8, " << bench_threads()
           << " RunService workers, " << targets_.size()
           << " model() calls then " << targets_.size() << " x "
           << apps_.size()
           << " pairwise validations, onboarding order from seed "
           << seed_;
        return os.str();
    }

    bool single_threaded() const override { return false; }

    void setup() override
    {
        registry_.reset();
        service_.reset();
        service_ = std::make_unique<workload::RunService>(bench_threads());
        workload::RunConfig cfg;
        cfg.cluster = sim::ClusterSpec::private8();
        cfg.seed = kMeasureSeed;
        cfg.reps = kReps;
        // The registry's bubble scorer calibrates on construction.
        const auto calibration_before =
            obs::counter_value("scorer.calibration_runs");
        registry_ = std::make_unique<core::ModelRegistry>(
            cfg, core::ModelBuildOptions{}, service_.get());
        setup_layers_["bubble.calibration_runs"] = static_cast<double>(
            obs::counter_value("scorer.calibration_runs") -
            calibration_before);
        const int m = cfg.cluster.num_nodes;
        for (const auto& app : apps_)
            if (!app.distributed())
                (void)registry_->model(app, m);
    }

    std::map<std::string, double> setup_layers() const override
    {
        return setup_layers_;
    }

    RepResult run(Tracer* tracer) override
    {
        core::ModelRegistry& registry = *registry_;
        const Tracer::Id root =
            tracer ? tracer->open("profile_validate.rep",
                                  Tracer::kResidual)
                   : Tracer::kNone;
        const ObsSnapshot before =
            tracer ? ObsSnapshot::take() : ObsSnapshot{};
        const workload::RunService::Stats stats_before = service_->stats();
        RepResult r;
        double profile_s = 0.0;
        double validate_s = 0.0;
        // Host ms spent on each target app, over both of its calls.
        std::vector<double> app_ms(targets_.size(), 0.0);
        const auto timed_call = [&](const std::string& name,
                                    const char* layer, std::size_t app,
                                    double& total, const auto& call) {
            const std::int64_t t0 = now_ns();
            call();
            const std::int64_t t1 = now_ns();
            app_ms[app] += static_cast<double>(t1 - t0) * 1e-6;
            total += seconds_between(t0, t1);
            if (tracer)
                tracer->add(name, layer, root, t0, t1 - t0);
        };

        const int m = registry.config().cluster.num_nodes;
        for (const std::size_t i : profile_order_)
            timed_call("ModelRegistry::model:" + targets_[i].abbrev,
                       "core", i, profile_s,
                       [&] { (void)registry.model(targets_[i], m); });
        std::vector<std::vector<benchutil::ValidationSample>> samples(
            targets_.size());
        for (const std::size_t i : validate_order_)
            timed_call("validate_pairwise:" + targets_[i].abbrev,
                       "workload", i, validate_s, [&] {
                           samples[i] = benchutil::validate_pairwise(
                               registry, targets_[i], apps_);
                       });

        // Canonical (catalog) order, so the mean and the digest do
        // not depend on the onboarding order.
        double err_sum = 0.0;
        std::size_t err_n = 0;
        std::ostringstream digest;
        digest << std::hex;
        for (std::size_t t = 0; t < targets_.size(); ++t) {
            r.check(samples[t].size() == apps_.size(),
                    "profile_validate: " + targets_[t].abbrev + " got " +
                        std::to_string(samples[t].size()) +
                        " validation samples");
            for (const auto& s : samples[t]) {
                err_sum += s.error_pct;
                ++err_n;
                digest << bits_of(s.error_pct) << ' ';
                r.check(std::isfinite(s.error_pct),
                        "profile_validate: non-finite error for " +
                            s.target + "/" + s.corunner);
            }
        }
        r.digest = digest.str();
        r.answer_pct = err_n ? err_sum / static_cast<double>(err_n) : 0.0;
        r.work_s = profile_s + validate_s;
        r.op_ms = std::move(app_ms);
        r.ops = r.op_ms.size();
        r.named["profile_s"] = profile_s;
        r.named["validate_s"] = validate_s;

        if (tracer) {
            tracer->close(root);
            const ObsSnapshot after = ObsSnapshot::take();
            const auto stats_after = service_->stats();
            const auto submitted = static_cast<double>(
                stats_after.submitted - stats_before.submitted);
            const auto cache_hits = static_cast<double>(
                stats_after.cache_hits - stats_before.cache_hits);
            auto& L = r.layers;
            const double wall_s =
                static_cast<double>(tracer->spans()[root].dur_ns) * 1e-9;
            L["workload.submitted"] = submitted;
            L["workload.executed"] = static_cast<double>(
                stats_after.executed - stats_before.executed);
            L["workload.cache_hit_ratio"] =
                submitted ? cache_hits / submitted : 0.0;
            L["workload.pool_util"] =
                after.delta(before, "execute.us") * 1e-6 /
                (wall_s * service_->threads());
            const double batches = after.delta(before, "batch.count");
            L["workload.batch_width"] =
                batches ? after.delta(before, "batch.sum") / batches : 0.0;
            L["core.profiler_measured"] =
                after.profiler_delta(before, "measured");
            L["core.profiler_interpolated"] =
                after.profiler_delta(before, "interpolated");
            L["core.model_builds"] = after.delta(before, "registry.builds");
            L["bubble.probe_runs"] = after.delta(before, "scorer.probe_runs");
            const double runs = after.delta(before, "sim.runs");
            const double events = after.delta(before, "sim.events");
            L["sim.runs"] = runs;
            L["sim.events"] = events;
            L["sim.events_per_run"] = runs ? events / runs : 0.0;
            L["sim.computes"] = after.delta(before, "sim.computes");
            L["sim.proc_reschedules"] =
                after.delta(before, "sim.proc_reschedules");
            L["sim.contention_solves"] =
                after.delta(before, "sim.contention_solves");
        }
        registry_.reset();
        service_.reset();
        return r;
    }

  private:
    std::uint64_t seed_;
    std::vector<workload::AppSpec> apps_;
    std::vector<workload::AppSpec> targets_;
    std::vector<std::size_t> profile_order_;
    std::vector<std::size_t> validate_order_;
    std::unique_ptr<workload::RunService> service_;
    std::unique_ptr<core::ModelRegistry> registry_;
    std::map<std::string, double> setup_layers_;
};

} // namespace

std::unique_ptr<Workload>
make_profile_validate(std::uint64_t seed)
{
    return std::make_unique<ProfileValidate>(seed);
}

} // namespace perfbench
