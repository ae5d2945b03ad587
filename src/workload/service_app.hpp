#ifndef IMC_WORKLOAD_SERVICE_APP_HPP
#define IMC_WORKLOAD_SERVICE_APP_HPP

/**
 * @file
 * Open-loop latency-serving application driver.
 *
 * The three seed templates (BSP, task-pool, batch) are all
 * throughput/makespan workloads; this one serves *requests*. A
 * Poisson arrival stream carries Zipf-distributed keys; each key
 * routes to one VM (key mod VMs, so a hot key is a hot VM), passes
 * that VM's token bucket (over-rate requests are dropped, never
 * queued — open loop, the paper's "millions of users" do not slow
 * down because the service did), waits in the VM's FIFO queue, and
 * is served by a simulated compute whose rate the engine already
 * scales by the node's current contention slowdown. Interference
 * therefore shows up directly where a consolidated-cluster operator
 * sees it: in the tail of the request-latency distribution.
 *
 * The app's QoS metric (qos_metric()) is its p99 request latency,
 * streamed through a LatencyRecorder; finish_time() remains the sim
 * time when the arrival window closed and all queues drained.
 *
 * Determinism: every random draw — inter-arrival gap, key, service
 * time — comes from one named fork of the launch RNG, in a fixed
 * order per request, at arrival-generation time. The request stream
 * is therefore a pure function of (spec, launch options), identical
 * at any RunService thread count; the running
 * request_digest() hashes every (arrival, latency) pair so tests can
 * assert byte-identity without logging per-request records.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "workload/app.hpp"

namespace imc::workload {

/**
 * Zipf(theta) sampler over keys 0..n-1 via an inverse-CDF table.
 *
 * Key k has weight 1/(k+1)^theta (theta = 0 is uniform; theta ~ 0.99
 * is the YCSB-style skew), so key 0 is always the hottest. sample()
 * is a pure function of the uniform input — no internal state — so
 * the caller controls the random stream.
 */
class ZipfSampler {
  public:
    /** @param n     key-space size, >= 1
     *  @param theta skew exponent, >= 0 */
    ZipfSampler(int n, double theta);

    /** Map a uniform u in [0, 1) to a key in [0, n). */
    int sample(double u) const;

    /** Key-space size. */
    int num_keys() const { return static_cast<int>(cdf_.size()); }

  private:
    std::vector<double> cdf_; // cumulative normalized weights
};

/** A live open-loop latency-serving application instance. */
class ServiceApp : public RunningApp {
  public:
    /** Deploys tenants, starts the arrival stream on all VMs. */
    ServiceApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts);

    /** p99 request latency in seconds; 0 if no request completed. */
    double qos_metric() const override;

    /** Per-app latency distribution (all VMs merged). */
    const imc::LatencyRecorder& latencies() const { return latencies_; }

    /** Requests generated by the arrival process. */
    std::uint64_t arrived() const { return arrived_; }

    /** Requests completed (latency recorded). */
    std::uint64_t served() const { return served_; }

    /** Requests shed by per-VM token buckets. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Running hash over every request's (arrival time, completion
     * latency) bit patterns, in completion order. Two runs are
     * request-for-request identical iff their digests match.
     */
    std::uint64_t request_digest() const { return digest_; }

  private:
    struct Request {
        double arrival = 0.0; // sim time the request arrived
        double work = 0.0;    // uncontended work units to serve it
    };

    struct VmState {
        sim::ProcId proc = -1;
        std::size_t node_idx = 0;
        double tokens = 0.0;       // token-bucket level
        double last_refill = 0.0;  // sim time of the last refill
        bool busy = false;         // a request is in compute()
        std::deque<Request> queue; // FIFO of admitted requests
    };

    /** Schedule the next Poisson arrival; closes the window at the
     *  configured duration. */
    void schedule_arrival();

    /** Admit (or shed) one request at VM @p vm. */
    void admit(std::size_t vm, const Request& req);

    /** Start serving the head of @p vm's queue if it is idle. */
    void kick(std::size_t vm);

    /** Finish the app once arrivals ended and all queues drained. */
    void maybe_finish();

    void halt_procs() override;

    Rng arrivals_rng_;
    ZipfSampler zipf_;
    std::vector<VmState> vms_;
    imc::LatencyRecorder latencies_;
    double epoch_ = 0.0;        // sim time the app launched
    double next_arrival_ = 0.0; // arrival clock, relative to epoch_
    bool arrivals_done_ = false;
    bool finishing_ = false;
    int in_flight_ = 0;
    std::uint64_t arrived_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t digest_ = 0;
};

} // namespace imc::workload

#endif // IMC_WORKLOAD_SERVICE_APP_HPP
