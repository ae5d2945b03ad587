#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

/**
 * @file
 * In-memory span recorder of the traced benchmark runs.
 *
 * Spans are recorded only from the benchmark's own code, around the
 * public calls it makes into each layer of the program. Every span
 * names the layer that does the work inside it; a layer's *self time*
 * is the duration of its spans minus the part covered by their child
 * spans. The root span of a repetition belongs to no layer (its layer
 * is kResidual).
 *
 * Hot calls (millions per run) are recorded as *aggregate* spans: one
 * record per (parent, name) carrying a call count, the summed
 * duration, and the start of the first and the end of the last call,
 * so the tree stays small enough to keep in memory and write out at
 * exit.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host time in ns on the steady clock (the tracer's time base). */
std::int64_t now_ns();

class Tracer {
  public:
    using Id = std::uint32_t;
    static constexpr Id kNone = 0xFFFFFFFFu;
    /** Layer name of the root spans, which no layer explains. */
    static constexpr const char* kResidual = "residual";

    struct Span {
        std::string name;
        std::string layer;
        Id parent = kNone;
        /** Start of the first covered call, ns on the steady clock. */
        std::int64_t start_ns = 0;
        /** End of the last covered call, ns on the steady clock. */
        std::int64_t end_ns = 0;
        /** Summed duration of the covered calls, ns. */
        std::int64_t dur_ns = 0;
        /** Calls covered (1 for an ordinary span). */
        std::uint64_t count = 1;
    };

    /** Record a finished span of one call; returns its id. */
    Id add(std::string name, std::string layer, Id parent,
           std::int64_t start_ns, std::int64_t dur_ns);

    /** Record an aggregate span of @p count calls; returns its id. */
    Id add_aggregate(std::string name, std::string layer, Id parent,
                     std::int64_t first_start_ns, std::int64_t last_end_ns,
                     std::int64_t total_dur_ns, std::uint64_t count);

    /** Open a span now; close it with close(). */
    Id open(std::string name, std::string layer, Id parent = kNone);
    void close(Id id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Spans recorded so far (a mark for the *_since() calls). */
    std::size_t size() const { return spans_.size(); }

    /**
     * Self time per layer (ns) of the spans recorded at or after
     * @p mark, keyed by layer name, without the kResidual roots.
     */
    std::map<std::string, std::int64_t>
    layer_self_ns_since(std::size_t mark) const;

    /**
     * Consistency of the spans recorded at or after @p mark, which a
     * call measured on its own as [@p wall_start, @p wall_end] made:
     * at least one layer span; every root inside that interval; every
     * child inside its parent's interval; every aggregate's summed
     * duration within its first-to-last interval; every span's self
     * time >= 0. Returns one message per violation.
     */
    std::vector<std::string> check_since(std::size_t mark,
                                         std::int64_t wall_start,
                                         std::int64_t wall_end) const;

    /** Write every span as a JSON array to @p path. */
    bool write_json(const std::string& path) const;

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
