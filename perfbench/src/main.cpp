/**
 * @file
 * perfbench: the repository benchmark's entry point.
 *
 *   perfbench --workload sched_replay|sim_churn|profile_validate
 *             --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Sets the workload up kSetups times, runs one warm-up repetition,
 * then repetitions for S seconds, setting the workload up again before
 * each (setup_s is the median of every set-up in the run). Single-
 * threaded repetitions run pinned to one CPU. With --trace 0 it prints
 * the end-to-end metrics of all untraced repetitions: latency
 * percentiles and rates are medians of the repetitions' own figures.
 * With --trace 1 it splits the S seconds between untraced and traced
 * repetitions and prints the per-layer metrics of the traced ones; obs
 * collection is on during set-up and the traced repetitions, and the
 * recorded spans and obs counters are written to DIR at exit. The wall
 * time of a traced repetition is measured here, around Workload::run();
 * its residual is that wall time minus the self times of the layer
 * spans, and the spans must nest inside it (Tracer::check_since()).
 *
 * Every repetition's output fingerprint must match the first one's,
 * traced or not, and every workload checks its own outputs; a failed
 * check makes the result incorrect and the exit code 1. The last line
 * of stdout is one JSON object: correct, attempted, failed, metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <thread>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/stats.hpp"
#include "workload.hpp"

namespace perfbench {

int
bench_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::uint64_t
bits_of(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

namespace {

constexpr int kSetups = 5;

struct MetricDef {
    const char* name;
    const char* unit;
};

/** End-to-end metrics: every workload reports each of them. */
constexpr MetricDef kEndToEnd[] = {
    {"op_p50_ms", "ms"},   {"op_p99_ms", "ms"},
    {"ops_per_s", "1/s"},  {"answer_pct", "%"},
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics of the traced run. A layer a workload does not
 * exercise reports 0.
 */
constexpr MetricDef kPerLayer[] = {
    {"sched.arrive_us", "us"},
    {"sched.depart_us", "us"},
    {"sched.arrive_p99_us", "us"},
    {"sched.crash_us", "us"},
    {"sched.residual_us", "us"},
    {"sched.admitted", "count"},
    {"sched.rejected", "count"},
    {"sched.evictions", "count"},
    {"sched.moved_units", "count"},
    {"sched.oracle_gap_pct", "%"},
    {"placement.predict_calls_per_event", "count"},
    {"placement.predict_us_per_event", "us"},
    {"sim.events", "count"},
    {"sim.computes", "count"},
    {"sim.proc_reschedules", "count"},
    {"sim.contention_solves", "count"},
    {"sim.batched_resolves", "count"},
    {"sim.useful_event_ratio", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"sim.set_demand_us", "us"},
    {"sim.compute_us", "us"},
    {"sim.app_callback_us", "us"},
    {"sim.dispatch_us", "us"},
    {"sim.bytes_per_node", "B"},
    {"sim.runs", "count"},
    {"sim.events_per_run", "count"},
    {"workload.submitted", "count"},
    {"workload.executed", "count"},
    {"workload.cache_hit_ratio", "ratio"},
    {"workload.pool_util", "ratio"},
    {"workload.batch_width", "count"},
    {"core.profiler_measured", "count"},
    {"core.profiler_interpolated", "count"},
    {"core.model_builds", "count"},
    {"core.registry_build_s", "s"},
    {"bubble.calibration_runs", "count"},
    {"bubble.probe_runs", "count"},
    {"obs.overhead_pct", "%"},
    {"self.sched_ms", "ms"},
    {"self.placement_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.app_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.workload_ms", "ms"},
    {"self.residual_ms", "ms"},
    {"trace.wall_ms", "ms"},
};

/** The workload's own names for the generic end-to-end metrics. */
std::map<std::string, std::string>
aliases(const std::string& workload)
{
    if (workload == "sched_replay")
        return {{"op_p50_ms", "decision_p50_ms"},
                {"op_p99_ms", "decision_p99_ms"},
                {"ops_per_s", "decisions_per_s"},
                {"answer_pct", "avoidable_interference_pct"}};
    if (workload == "sim_churn")
        return {{"op_p50_ms", "event_p50_ms"},
                {"op_p99_ms", "event_p99_ms"},
                {"ops_per_s", "sim_events_per_s"},
                {"answer_pct", "mean_slowdown_pct"}};
    return {{"op_p50_ms", "onboard_p50_ms"},
            {"op_p99_ms", "onboard_p99_ms"},
            {"ops_per_s", "apps_onboarded_per_s"},
            {"answer_pct", "model_err_pct"}};
}

/**
 * Pin the calling thread to the last CPU it may run on: a
 * single-threaded repetition then keeps its caches and never
 * migrates. Threads started earlier keep their own affinity.
 */
void
pin_to_one_cpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            return;
        }
    }
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

double
median_of(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : imc::median(std::move(xs));
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

int
run(const Options& o)
{
    std::unique_ptr<Workload> w;
    if (o.workload == "sched_replay")
        w = make_sched_replay(o.seed);
    else if (o.workload == "sim_churn")
        w = make_sim_churn(o.seed);
    else if (o.workload == "profile_validate")
        w = make_profile_validate(o.seed);
    else
        throw imc::ConfigError("unknown workload '" + o.workload + "'");

    const std::string stem =
        o.out + "/" + o.workload + "-seed" + std::to_string(o.seed);
    std::optional<imc::obs::Session> session;
    if (o.trace) {
        const std::string metrics_out = stem + "-obs.json";
        const char* argv[] = {"perfbench", "--metrics-out",
                              metrics_out.c_str()};
        session.emplace(imc::Cli(3, argv)); // turns collection on
    }

    std::vector<double> setup_s;
    const auto timed_setup = [&] {
        const std::int64_t t0 = now_ns();
        w->setup();
        setup_s.push_back(seconds_between(t0, now_ns()));
    };
    for (int i = 0; i < kSetups; ++i)
        timed_setup();
    const auto setup_layers = w->setup_layers();
    std::cout << "perfbench " << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << " threads=" << bench_threads() << '\n'
              << w->describe() << '\n';

    // Repetitions: untraced for the whole budget (--trace 0) or the
    // first half (--trace 1), then traced for the second half. A
    // traced repetition's wall time is measured around run(), apart
    // from the spans it records.
    std::vector<RepResult> plain, traced;
    std::vector<double> traced_wall_ms;
    Tracer tracer;
    if (w->single_threaded())
        pin_to_one_cpu();
    bool first_rep = true;
    const auto run_phase = [&](const char* phase,
                               std::vector<RepResult>& reps, Tracer* t,
                               double budget_s, std::size_t min_reps) {
        const std::int64_t start = now_ns();
        while (reps.size() < min_reps ||
               seconds_between(start, now_ns()) < budget_s) {
            if (!first_rep)
                timed_setup();
            first_rep = false;
            const std::size_t mark = t ? t->size() : 0;
            const std::int64_t t0 = now_ns();
            reps.push_back(w->run(t));
            const std::int64_t t1 = now_ns();
            RepResult& r = reps.back();
            if (t) {
                const auto bad = t->check_since(mark, t0, t1);
                r.check(bad.empty(),
                        bad.empty() ? std::string()
                                    : "traced spans: " + bad.front() +
                                          " (" + std::to_string(bad.size()) +
                                          " violations)");
                double layers_ms = 0.0;
                for (const auto& [layer, ns] : t->layer_self_ns_since(mark)) {
                    r.layers["self." + layer + "_ms"] =
                        static_cast<double>(ns) * 1e-6;
                    layers_ms += static_cast<double>(ns) * 1e-6;
                }
                const double wall_ms = static_cast<double>(t1 - t0) * 1e-6;
                r.layers["self.residual_ms"] = wall_ms - layers_ms;
                traced_wall_ms.push_back(wall_ms);
            }
            std::cerr << phase << " repetition "
                      << reps.size() << ": " << r.ops << " ops in "
                      << r.work_s << " s\n";
        }
    };
    // One warm-up repetition: caches fill and lazy set-up finishes
    // before timing. Its outputs are still checked.
    std::vector<RepResult> warmup;
    run_phase("warm-up", warmup, nullptr, 0.0, 1);
    if (o.trace) {
        imc::obs::set_enabled(false);
        run_phase("untraced", plain, nullptr, o.seconds / 2, 1);
        imc::obs::set_enabled(true);
        run_phase("traced", traced, &tracer, o.seconds / 2, 1);
    } else {
        run_phase("untraced", plain, nullptr, o.seconds, 2);
    }

    // Checks: each repetition's own, plus fingerprint identity.
    std::uint64_t attempted = 0, checks = 0;
    std::vector<std::string> failures;
    const std::string& digest = warmup.front().digest;
    for (const auto* reps : {&warmup, &plain, &traced}) {
        for (const auto& r : *reps) {
            attempted += r.ops;
            checks += r.checks + 1;
            failures.insert(failures.end(), r.check_failures.begin(),
                            r.check_failures.end());
            if (r.digest != digest)
                failures.push_back("output fingerprint differs between "
                                   "repetitions: '" +
                                   r.digest + "' vs '" + digest + "'");
        }
    }

    std::map<std::string, double> metrics;
    if (!o.trace) {
        // Latency percentiles are taken within each repetition and
        // reported as their median over the repetitions, so a burst of
        // host load that slows one repetition does not set them.
        std::vector<double> p50s, p99s, rates;
        std::size_t op_samples = 0;
        for (const RepResult& r : plain) {
            p50s.push_back(imc::percentile(r.op_ms, 50.0));
            p99s.push_back(imc::percentile(r.op_ms, 99.0));
            op_samples += r.op_ms.size();
            rates.push_back(static_cast<double>(r.ops) / r.work_s);
        }
        metrics["op_p50_ms"] = median_of(p50s);
        metrics["op_p99_ms"] = median_of(p99s);
        metrics["ops_per_s"] = median_of(rates);
        metrics["answer_pct"] = plain.front().answer_pct;
        metrics["setup_s"] = median_of(setup_s);
        metrics["peak_rss_mb"] = peak_rss_mb();
        const auto alias = aliases(o.workload);
        std::cout << "repetitions=" << plain.size()
                  << " setups=" << setup_s.size()
                  << " op_samples=" << op_samples << '\n';
        for (const auto& [name, unit] : kEndToEnd) {
            std::cout << std::left << std::setw(20) << name << ' '
                      << std::setw(14) << json_number(metrics[name])
                      << ' ' << unit;
            if (alias.count(name))
                std::cout << "  (" << alias.at(name) << ")";
            std::cout << '\n';
        }
        std::map<std::string, std::vector<double>> named;
        for (const auto& r : plain)
            for (const auto& [k, v] : r.named)
                named[k].push_back(v);
        for (const auto& [k, vs] : named)
            std::cout << std::left << std::setw(20) << k << ' '
                      << json_number(median_of(vs))
                      << "  (median of repetitions)\n";
    } else {
        std::map<std::string, double> sums;
        for (const auto& r : traced)
            for (const auto& [k, v] : r.layers)
                sums[k] += v;
        for (const auto& [k, v] : sums)
            metrics[k] = v / static_cast<double>(traced.size());
        for (const auto& [k, v] : setup_layers)
            metrics[k] = v;
        std::vector<double> plain_s, traced_s;
        for (const auto& r : traced)
            traced_s.push_back(r.work_s);
        for (const auto& r : plain)
            plain_s.push_back(r.work_s);
        metrics["trace.wall_ms"] = imc::mean(traced_wall_ms);
        metrics["obs.overhead_pct"] =
            (median_of(traced_s) / median_of(plain_s) - 1.0) * 100.0;
        std::cout << "repetitions=" << plain.size()
                  << " traced=" << traced.size() << '\n';
        for (const auto& [name, unit] : kPerLayer)
            std::cout << std::left << std::setw(36) << name << ' '
                      << json_number(metrics[name]) << ' ' << unit
                      << '\n';
        if (!tracer.write_json(stem + "-spans.json"))
            std::cerr << "perfbench: cannot write " << stem
                      << "-spans.json\n";
    }
    session.reset(); // writes the obs dump
    attempted += checks;
    const std::uint64_t failed = failures.size();
    for (const auto& f : failures)
        std::cout << "CHECK FAILED: " << f << '\n';
    std::cout << "failed_frac " << json_number(static_cast<double>(failed) /
                                               static_cast<double>(attempted))
              << "  (failed operations and checks / attempted)\n";

    std::ostringstream json;
    json << "{\"correct\": " << (failures.empty() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& m) {
        json << (first ? "" : ", ") << '"' << m.name
             << "\": {\"value\": " << json_number(metrics[m.name])
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    };
    if (o.trace)
        for (const auto& m : kPerLayer)
            emit(m);
    else
        for (const auto& m : kEndToEnd)
            emit(m);
    json << "}}";
    std::cout << json.str() << std::endl;
    return failures.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        const imc::Cli cli(argc, argv);
        perfbench::Options o;
        o.workload = cli.get("workload", "");
        o.seed = cli.get_u64("seed", 1);
        o.seconds = cli.get_double("seconds", 10.0);
        const int trace = cli.get_int("trace", 0);
        o.out = cli.get("out", ".");
        if (o.workload.empty() || o.seconds <= 0.0 ||
            (trace != 0 && trace != 1)) {
            std::cerr << "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out DIR]\n";
            return 2;
        }
        o.trace = trace == 1;
        return perfbench::run(o);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
