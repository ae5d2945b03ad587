/**
 * @file
 * Workload `sched_replay`: a closed loop with one client. A seeded
 * imc-trace (Poisson arrivals, lognormal lifetimes, 30% SLO apps, a
 * node crash/repair process) is replayed through sched::replay; the
 * batch re-anneal oracle runs once, after the last event. One
 * operation is one scheduling decision (one trace event). The answer
 * figure is the share of the placed units' predicted interference
 * slowdown that the oracle's placement of the same apps removes. The
 * plain oracle gap (relative to the total time) and the mean slowdown
 * both follow how crowded the cluster happens to be when the trace
 * ends, so they swing with the seed; the share divides most of that
 * out. Both are reported beside it.
 *
 * Setup generates the trace and profiles the models of the trace's
 * archetype pool at every deployment size through a fresh
 * ModelRegistry and RunService, so the repetitions time decisions
 * only.
 *
 * Replays go through BenchEvaluator, which forwards every Evaluator
 * virtual to the model evaluator and tracks the units of the instances
 * the scheduler keeps; in traced repetitions it also logs each call
 * with the number of obs trace events recorded when it began. replay
 * records one "sched.event" obs span per event when the event ends, so
 * that number names the event that made the call exactly. The event
 * spans take their durations from replay's latencies_ms and their
 * start times from the "sched.event" obs spans (µs resolution), moved
 * by at most kPlaceSlackNs so that they cover their calls.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/obs.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/trace.hpp"
#include "workload.hpp"
#include "workload/run_service.hpp"

namespace perfbench {
namespace {

using namespace imc;

constexpr int kNodes = 2000;
constexpr int kSlotsPerNode = 2;
constexpr int kArrivals = 5000;
constexpr double kDuration = 1000.0;
constexpr double kOccupancy = 0.8;
constexpr int kMaxUnits = 4;
constexpr std::uint64_t kProfileSeed = 42;
/** Largest shift of an event span from its obs time stamp, ns. */
constexpr std::int64_t kPlaceSlackNs = 20'000;

/**
 * Forwards every Evaluator virtual, tracks the units of the tracked
 * instances and, when timed, logs each call's host time.
 */
class BenchEvaluator final : public placement::Evaluator {
  public:
    enum Method : std::uint8_t {
        kPredict,
        kPredictInstance,
        kScores,
        kSupportsDelta,
        kSupportsDynamic,
        kPushInstance,
        kPopInstanceSwap,
        kMethods,
    };
    static constexpr const char* kNames[kMethods] = {
        "Evaluator::predict",       "Evaluator::predict_instance",
        "Evaluator::scores",        "Evaluator::supports_delta",
        "Evaluator::supports_dynamic", "Evaluator::push_instance",
        "Evaluator::pop_instance_swap",
    };

    struct Call {
        std::int64_t start_ns;
        std::int64_t dur_ns;
        /** obs trace events recorded when the call began. */
        std::size_t obs_seq;
        Method method;
    };

    BenchEvaluator(placement::Evaluator& inner, bool timed)
        : inner_(inner), timed_(timed)
    {
        if (timed_)
            log_.reserve(1 << 20);
    }

    std::vector<double>
    predict(const placement::Placement& p) const override
    {
        const Timer t(*this, kPredict);
        return inner_.predict(p);
    }
    bool supports_delta() const override
    {
        const Timer t(*this, kSupportsDelta);
        return inner_.supports_delta();
    }
    const std::vector<double>& scores() const override
    {
        const Timer t(*this, kScores);
        return inner_.scores();
    }
    double
    predict_instance(int instance,
                     const std::vector<double>& pressures) const override
    {
        const Timer t(*this, kPredictInstance);
        return inner_.predict_instance(instance, pressures);
    }
    bool supports_dynamic() const override
    {
        const Timer t(*this, kSupportsDynamic);
        return inner_.supports_dynamic();
    }
    void push_instance(const placement::Instance& inst) override
    {
        const Timer t(*this, kPushInstance);
        inner_.push_instance(inst);
        units_.push_back(inst.units);
    }
    void pop_instance_swap(int instance) override
    {
        const Timer t(*this, kPopInstanceSwap);
        inner_.pop_instance_swap(instance);
        units_.at(static_cast<std::size_t>(instance)) = units_.back();
        units_.pop_back();
    }

    const std::vector<Call>& log() const { return log_; }

    /** Units of the instances tracked now, one entry per instance. */
    const std::vector<int>& units() const { return units_; }

  private:
    class Timer {
      public:
        Timer(const BenchEvaluator& ev, Method m)
            : ev_(ev), m_(m),
              seq_(ev.timed_ ? obs::trace_event_count() : 0),
              t0_(ev.timed_ ? now_ns() : 0)
        {
        }
        ~Timer()
        {
            if (ev_.timed_)
                ev_.log_.push_back({t0_, now_ns() - t0_, seq_, m_});
        }
        Timer(const Timer&) = delete;
        Timer& operator=(const Timer&) = delete;

      private:
        const BenchEvaluator& ev_;
        Method m_;
        std::size_t seq_;
        std::int64_t t0_;
    };

    placement::Evaluator& inner_;
    bool timed_;
    mutable std::vector<Call> log_;
    std::vector<int> units_;
};

struct ObsEvent {
    std::string name;
    /** Start, µs since the obs epoch. */
    std::int64_t ts_us;
};

/** The obs trace events recorded at or after index @p first. */
std::vector<ObsEvent>
obs_events_from(std::size_t first)
{
    std::ostringstream os;
    obs::write_trace_json(os);
    std::istringstream is(os.str());
    std::vector<ObsEvent> events;
    std::size_t index = 0;
    const std::string name_key = "{\"name\": \"", ts_key = "\"ts\": ";
    for (std::string line; std::getline(is, line);) {
        if (line.rfind(name_key, 0) != 0 || index++ < first)
            continue;
        const std::size_t name_end = line.find('"', name_key.size());
        const std::size_t ts = line.find(ts_key);
        events.push_back(
            {line.substr(name_key.size(), name_end - name_key.size()),
             std::stoll(line.substr(ts + ts_key.size()))});
    }
    return events;
}

/**
 * Maps obs time stamps onto the tracer's clock. An obs span opened
 * at T between two now_ns() stamps carries ts = floor((T - epoch) /
 * 1µs); of a few such marks the one with the tightest stamps gives
 * epoch to within half its width plus 500 ns.
 */
struct ObsClock {
    std::int64_t epoch_ns = 0;
    /** Bound on the error of to_ns() (the µs floor included), ns. */
    std::int64_t error_ns = 0;

    static ObsClock measure()
    {
        std::int64_t best_width = -1, best_mid = 0;
        std::size_t best_index = 0;
        const std::size_t first = obs::trace_event_count();
        for (std::size_t i = 0; i < 8; ++i) {
            const std::int64_t before = now_ns();
            {
                const obs::Span mark("perfbench.clock");
            }
            const std::int64_t after = now_ns();
            if (best_width < 0 || after - before < best_width) {
                best_width = after - before;
                best_mid = (before + after) / 2;
                best_index = i;
            }
        }
        const std::vector<ObsEvent> marks = obs_events_from(first);
        return {best_mid - marks.at(best_index).ts_us * 1000 - 500,
                best_width / 2 + 1000};
    }

    std::int64_t to_ns(std::int64_t ts_us) const
    {
        return epoch_ns + ts_us * 1000 + 500;
    }
};

class SchedReplay final : public Workload {
  public:
    explicit SchedReplay(std::uint64_t seed) : seed_(seed) {}

    std::string describe() const override
    {
        std::ostringstream os;
        os << "sched_replay: " << kNodes << " nodes x " << kSlotsPerNode
           << " slots, " << kArrivals << " Poisson arrivals over "
           << kDuration << "s, occupancy " << kOccupancy
           << ", 30% SLO apps, crash/repair on, " << trace_.events.size()
           << " events, seed " << seed_;
        return os.str();
    }

    bool single_threaded() const override { return true; }

    void setup() override
    {
        sched::TraceGenOptions g;
        g.num_nodes = kNodes;
        g.slots_per_node = kSlotsPerNode;
        g.duration = kDuration;
        g.arrival_rate = kArrivals / kDuration;
        // Live apps ~ rate x lifetime; units ~ uniform{1..4}, mean 2.5.
        target_apps_ = kOccupancy * kNodes * kSlotsPerNode / 2.5;
        g.mean_lifetime = target_apps_ / g.arrival_rate;
        g.max_units = kMaxUnits;
        g.slo_fraction = 0.3;
        g.crash_rate = 0.02;
        g.mean_repair = 100.0;
        g.seed = seed_;
        trace_ = sched::generate_trace(g);

        registry_.reset();
        service_.reset();
        const obs::HistogramSnapshot batches_before =
            obs::histogram_snapshot("runservice.batch_size");
        const std::int64_t t0 = now_ns();
        service_ = std::make_unique<workload::RunService>(bench_threads());
        workload::RunConfig cfg;
        cfg.seed = kProfileSeed;
        cfg.reps = 2;
        registry_ = std::make_unique<core::ModelRegistry>(
            cfg, core::ModelBuildOptions{}, service_.get());
        // prefetch() starts one builder thread per app: keep each
        // group within the worker count.
        const auto apps = sched::default_trace_apps();
        const auto group =
            static_cast<std::size_t>(std::max(1, bench_threads()));
        for (int units = 1; units <= kMaxUnits; ++units) {
            for (std::size_t i = 0; i < apps.size(); i += group) {
                const auto end = std::min(apps.size(), i + group);
                registry_->prefetch({apps.begin() + static_cast<long>(i),
                                     apps.begin() + static_cast<long>(end)},
                                    units);
            }
        }
        const double build_s = seconds_between(t0, now_ns());
        const obs::HistogramSnapshot batches =
            obs::histogram_snapshot("runservice.batch_size");
        setup_layers_.clear();
        setup_layers_["core.registry_build_s"] = build_s;
        const std::uint64_t n = batches.count - batches_before.count;
        setup_layers_["workload.batch_width"] =
            n ? (batches.sum - batches_before.sum) /
                    static_cast<double>(n)
              : 0.0;
    }

    std::map<std::string, double> setup_layers() const override
    {
        return setup_layers_;
    }

    RepResult run(Tracer* tracer) override
    {
        sched::ReplayOptions ro;
        ro.sched.candidate_nodes = 16;
        ro.sched.polish_proposals = 128;
        ro.sched.seed = seed_;
        ro.oracle_every = 0;
        ro.oracle_iterations =
            std::max(4000, 20 * static_cast<int>(target_apps_));
        ro.oracle_seed = seed_ + 1;

        placement::ModelEvaluator model_eval(*registry_, {});
        BenchEvaluator ev(model_eval, tracer != nullptr);
        ObsClock clock;
        std::size_t obs_first = 0;
        if (tracer) {
            clock = ObsClock::measure();
            obs_first = obs::trace_event_count();
        }
        const std::int64_t t0 = now_ns();
        const sched::ReplayResult res = sched::replay(trace_, ev, ro);
        const std::int64_t t1 = now_ns();

        RepResult r;
        r.ops = res.events;
        r.op_ms = res.latencies_ms;
        double decision_ms = 0.0;
        for (const double ms : res.latencies_ms)
            decision_ms += ms;
        r.work_s = decision_ms * 1e-3;
        const double oracle_total =
            res.oracle.empty() ? 0.0 : res.oracle.back().oracle_total;
        int units = 0;
        for (const int u : ev.units())
            units += u;
        // Total time is the unit-weighted sum of normalized times, so
        // total - units is the interference slowdown of the placement.
        const double interference = res.final_total_time - units;
        r.answer_pct = (res.final_total_time - oracle_total) /
                       interference * 100.0;
        const double gap_pct =
            res.oracle.empty() ? 0.0 : res.oracle.back().gap() * 100.0;
        std::ostringstream digest;
        digest << "admitted=" << res.admitted << " rejected="
               << res.rejected << " evictions=" << res.evictions
               << " moved=" << res.moved_units << " total=" << std::hex
               << bits_of(res.final_total_time)
               << " oracle=" << bits_of(oracle_total);
        r.digest = digest.str();
        r.check(res.events == trace_.events.size() &&
                    res.latencies_ms.size() == trace_.events.size(),
                "sched_replay: not every trace event was decided");
        r.check(res.arrivals ==
                    res.admitted + res.rejected + res.fault_rejected,
                "sched_replay: arrivals != admitted + refused");
        r.check(!res.oracle.empty() && std::isfinite(gap_pct),
                "sched_replay: no final oracle comparison");
        r.check(ev.units().size() ==
                        static_cast<std::size_t>(res.final_apps) &&
                    interference > 0.0 && std::isfinite(r.answer_pct),
                "sched_replay: evaluator tracks " +
                    std::to_string(ev.units().size()) + " apps, replay " +
                    std::to_string(res.final_apps));
        r.named["oracle_gap_pct"] = gap_pct;
        r.named["mean_slowdown_pct"] = interference / units * 100.0;
        // A capacity refusal is a correct decision, not a failed
        // operation; its share is reported beside the metrics.
        r.named["refused_frac"] =
            static_cast<double>(res.rejected + res.fault_rejected) /
            static_cast<double>(res.arrivals);

        if (tracer) {
            const std::vector<ObsEvent> obs_events =
                obs_events_from(obs_first);
            std::size_t obs_spans = 0;
            for (const auto& e : obs_events)
                obs_spans += e.name == "sched.event";
            r.check(obs_first + obs_events.size() ==
                            obs::trace_event_count() &&
                        obs_spans == res.events,
                    "sched_replay: obs recorded " +
                        std::to_string(obs_spans) +
                        " sched.event spans for " +
                        std::to_string(res.events) + " events");
            if (obs_spans == res.events)
                record_spans(r, res, *tracer, ev, obs_events, obs_first,
                             clock, t0, t1);
            r.layers["sched.oracle_gap_pct"] = gap_pct;
        }
        return r;
    }

  private:
    /**
     * Rebuild the replay's span tree: the replay() call (root), one
     * span per event (sched) with aggregate children per evaluator
     * method (placement), and the final oracle anneal (placement).
     * Calls made before the first event (SchedulerCore's constructor
     * queries the evaluator) are children of the root.
     */
    void record_spans(RepResult& r, const sched::ReplayResult& res,
                      Tracer& tracer, const BenchEvaluator& timed,
                      const std::vector<ObsEvent>& obs_events,
                      std::size_t obs_first, const ObsClock& clock,
                      std::int64_t t0, std::int64_t t1)
    {
        const std::size_t n = res.events;
        // Event in progress per obs trace event count: the count of
        // sched.event spans recorded before it.
        std::vector<std::size_t> event_at(obs_events.size() + 1, 0);
        std::vector<std::int64_t> stamp;
        for (std::size_t k = 0; k < obs_events.size(); ++k) {
            const bool is_event = obs_events[k].name == "sched.event";
            if (is_event)
                stamp.push_back(clock.to_ns(obs_events[k].ts_us));
            event_at[k + 1] = event_at[k] + is_event;
        }

        // Per slot (event i, n = before the first event, n + 1 =
        // oracle): per evaluator method and overall, call count, host
        // time, first start and last end.
        struct Totals {
            std::uint64_t count = 0;
            std::int64_t ns = 0, first = 0, last = 0;
            void add(std::int64_t start, std::int64_t dur)
            {
                if (count++ == 0)
                    first = start;
                ns += dur;
                last = start + dur;
            }
        };
        struct Slot {
            Totals method[BenchEvaluator::kMethods];
            Totals all;
        };
        std::vector<Slot> slot(n + 2);
        const std::vector<BenchEvaluator::Call>& log = timed.log();
        std::vector<std::size_t> slot_of(log.size());
        for (std::size_t c = 0; c < log.size(); ++c) {
            const std::size_t k = log[c].obs_seq - obs_first;
            slot_of[c] = k < event_at.size() && event_at[k] < n
                             ? event_at[k]
                             : n + 1;
        }
        // No obs event separates the constructor's calls from those of
        // event 0: the ones that end before event 0's obs time stamp,
        // less the clock error, came first.
        for (std::size_t c = 0; n && c < log.size() && slot_of[c] == 0; ++c)
            if (log[c].start_ns + log[c].dur_ns < stamp[0] - clock.error_ns)
                slot_of[c] = n;
        std::uint64_t predict_calls = 0;
        std::int64_t predict_ns = 0, eval_ns = 0;
        for (std::size_t c = 0; c < log.size(); ++c) {
            const auto& call = log[c];
            Slot& s = slot[slot_of[c]];
            s.method[call.method].add(call.start_ns, call.dur_ns);
            s.all.add(call.start_ns, call.dur_ns);
            if (slot_of[c] >= n)
                continue;
            eval_ns += call.dur_ns;
            if (call.method == BenchEvaluator::kPredict ||
                call.method == BenchEvaluator::kPredictInstance) {
                ++predict_calls;
                predict_ns += call.dur_ns;
            }
        }

        const Tracer::Id root =
            tracer.add("sched::replay", Tracer::kResidual, Tracer::kNone,
                       t0, t1 - t0);
        const auto add_children = [&](const Slot& s, Tracer::Id parent) {
            for (int m = 0; m < BenchEvaluator::kMethods; ++m) {
                const Totals& t = s.method[m];
                if (t.count)
                    tracer.add_aggregate(BenchEvaluator::kNames[m],
                                         "placement", parent, t.first,
                                         t.last, t.ns, t.count);
            }
        };
        add_children(slot[n], root);
        static const char* const kKinds[] = {"arrive", "depart", "crash",
                                             "join"};
        std::vector<double> kind_us[4];
        std::int64_t events_end = t0, max_shift = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const int kind = static_cast<int>(trace_.events[i].kind);
            kind_us[kind].push_back(res.latencies_ms[i] * 1e3);
            // Place the span at its obs time stamp, moved as little as
            // needed to cover its calls.
            const std::int64_t dur = std::llround(res.latencies_ms[i] * 1e6);
            const Totals& calls = slot[i].all;
            std::int64_t start = stamp[i];
            if (calls.count)
                start = std::max(std::min(start, calls.first),
                                 calls.last - dur);
            max_shift = std::max(max_shift, std::abs(start - stamp[i]));
            const Tracer::Id span =
                tracer.add(std::string("sched.") + kKinds[kind], "sched",
                           root, start, dur);
            add_children(slot[i], span);
            events_end = std::max(events_end, start + dur);
        }
        r.check(max_shift <= kPlaceSlackNs,
                "sched_replay: an event span lies " +
                    std::to_string(max_shift) +
                    " ns from its obs time stamp");
        const Totals& oracle_calls = slot[n + 1].all;
        const std::int64_t oracle_start =
            oracle_calls.count ? std::min(events_end, oracle_calls.first)
                               : events_end;
        const Tracer::Id oracle =
            tracer.add("replay.oracle", "placement", root, oracle_start,
                       std::max<std::int64_t>(0, t1 - oracle_start));
        add_children(slot[n + 1], oracle);

        const double events = static_cast<double>(n);
        double decision_us = 0.0;
        for (const double ms : res.latencies_ms)
            decision_us += ms * 1e3;
        auto& L = r.layers;
        const auto mean_or_0 = [](const std::vector<double>& xs) {
            return xs.empty() ? 0.0 : imc::mean(xs);
        };
        L["sched.arrive_us"] = mean_or_0(kind_us[0]);
        L["sched.depart_us"] = mean_or_0(kind_us[1]);
        L["sched.crash_us"] = mean_or_0(kind_us[2]);
        L["sched.arrive_p99_us"] =
            kind_us[0].empty() ? 0.0 : percentile(kind_us[0], 99.0);
        L["sched.residual_us"] =
            (decision_us - static_cast<double>(eval_ns) * 1e-3) / events;
        L["sched.admitted"] = res.admitted;
        L["sched.rejected"] = res.rejected + res.fault_rejected;
        L["sched.evictions"] = res.evictions;
        L["sched.moved_units"] = res.moved_units;
        L["placement.predict_calls_per_event"] =
            static_cast<double>(predict_calls) / events;
        L["placement.predict_us_per_event"] =
            static_cast<double>(predict_ns) * 1e-3 / events;
    }

    std::uint64_t seed_;
    double target_apps_ = 0.0;
    sched::Trace trace_;
    std::unique_ptr<workload::RunService> service_;
    std::unique_ptr<core::ModelRegistry> registry_;
    std::map<std::string, double> setup_layers_;
};

} // namespace

std::unique_ptr<Workload>
make_sched_replay(std::uint64_t seed)
{
    return std::make_unique<SchedReplay>(seed);
}

} // namespace perfbench
