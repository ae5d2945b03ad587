#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

/**
 * @file
 * The interface every benchmark workload implements, and what one
 * repetition of a workload reports back to main.cpp.
 *
 * A workload generates all of its inputs from the workload seed in
 * setup(), which runs again before every repetition. run() executes
 * one repetition of the measured work; with a Tracer it records spans
 * around its calls into the program (one root span of layer
 * Tracer::kResidual per repetition) and fills RepResult::layers with
 * the per-layer metrics of that repetition.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct RepResult {
    /** Host time of the measured operations, seconds. */
    double work_s = 0.0;
    /** Operations performed (ops_per_s = ops / work_s). */
    std::uint64_t ops = 0;
    /** Host latency samples of single operations, ms. */
    std::vector<double> op_ms;
    /** The workload's deterministic answer figure, percent. */
    double answer_pct = 0.0;
    /**
     * Deterministic fingerprint of the outputs; must be identical in
     * every repetition, traced or not.
     */
    std::string digest;
    /** Output checks run in this repetition, and those that failed. */
    std::uint64_t checks = 0;
    std::vector<std::string> check_failures;
    /** Workload-specific named figures (printed, not in the JSON). */
    std::map<std::string, double> named;
    /** Traced repetitions: per-layer metrics of this repetition. */
    std::map<std::string, double> layers;

    void check(bool ok, const std::string& what)
    {
        ++checks;
        if (!ok)
            check_failures.push_back(what);
    }
};

class Workload {
  public:
    virtual ~Workload() = default;

    /** Build the inputs and system state of the next repetition. */
    virtual void setup() = 0;

    /**
     * True when a repetition runs on the calling thread alone; the
     * benchmark then pins that thread to one CPU for the repetitions.
     */
    virtual bool single_threaded() const = 0;

    /** Per-layer metrics recorded during setup() (traced runs). */
    virtual std::map<std::string, double> setup_layers() const
    {
        return {};
    }

    /**
     * Run one repetition; @p tracer is null in untraced repetitions.
     */
    virtual RepResult run(Tracer* tracer) = 0;

    /** One line describing the inputs. */
    virtual std::string describe() const = 0;
};

/** Worker threads the workloads use: min(nproc, 4), at least 1. */
int bench_threads();

std::unique_ptr<Workload> make_sched_replay(std::uint64_t seed);
std::unique_ptr<Workload> make_sim_churn(std::uint64_t seed);
std::unique_ptr<Workload> make_profile_validate(std::uint64_t seed);

/** Seconds between two now_ns() stamps. */
inline double
seconds_between(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Bit pattern of a double, for digests. */
std::uint64_t bits_of(double x);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP
