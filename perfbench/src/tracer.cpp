#include "tracer.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Id
Tracer::add(std::string name, std::string layer, Id parent,
            std::int64_t start_ns, std::int64_t dur_ns)
{
    return add_aggregate(std::move(name), std::move(layer), parent,
                         start_ns, start_ns + dur_ns, dur_ns, 1);
}

Tracer::Id
Tracer::add_aggregate(std::string name, std::string layer, Id parent,
                      std::int64_t first_start_ns, std::int64_t last_end_ns,
                      std::int64_t total_dur_ns, std::uint64_t count)
{
    spans_.push_back({std::move(name), std::move(layer), parent,
                      first_start_ns, last_end_ns, total_dur_ns, count});
    return static_cast<Id>(spans_.size() - 1);
}

Tracer::Id
Tracer::open(std::string name, std::string layer, Id parent)
{
    return add(std::move(name), std::move(layer), parent, now_ns(), 0);
}

void
Tracer::close(Id id)
{
    Span& s = spans_.at(id);
    s.end_ns = now_ns();
    s.dur_ns = s.end_ns - s.start_ns;
}

namespace {

/** Self time (ns) of every span at or after @p mark, indexed from it. */
std::vector<std::int64_t>
span_self_ns(const std::vector<Tracer::Span>& spans, std::size_t mark)
{
    std::vector<std::int64_t> self;
    for (std::size_t i = mark; i < spans.size(); ++i)
        self.push_back(spans[i].dur_ns);
    for (std::size_t i = mark; i < spans.size(); ++i) {
        const Tracer::Id parent = spans[i].parent;
        if (parent != Tracer::kNone && parent >= mark)
            self[parent - mark] -= spans[i].dur_ns;
    }
    return self;
}

} // namespace

std::map<std::string, std::int64_t>
Tracer::layer_self_ns_since(std::size_t mark) const
{
    const std::vector<std::int64_t> self = span_self_ns(spans_, mark);
    std::map<std::string, std::int64_t> layers;
    for (std::size_t i = mark; i < spans_.size(); ++i)
        if (spans_[i].layer != kResidual)
            layers[spans_[i].layer] += self[i - mark];
    return layers;
}

std::vector<std::string>
Tracer::check_since(std::size_t mark, std::int64_t wall_start,
                    std::int64_t wall_end) const
{
    std::vector<std::string> bad;
    const auto where = [&](std::size_t i) {
        return "span " + std::to_string(i) + " '" + spans_[i].name + "'";
    };
    bool any_layer = false;
    const std::vector<std::int64_t> self = span_self_ns(spans_, mark);
    for (std::size_t i = mark; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        any_layer = any_layer || s.layer != kResidual;
        if (s.dur_ns < 0 || s.dur_ns > s.end_ns - s.start_ns)
            bad.push_back(where(i) + ": duration " +
                          std::to_string(s.dur_ns) +
                          " ns outside its interval");
        if (self[i - mark] < 0)
            bad.push_back(where(i) + ": negative self time " +
                          std::to_string(self[i - mark]) + " ns");
        std::int64_t lo = wall_start, hi = wall_end;
        std::string outer = "the measured repetition";
        if (s.parent != kNone) {
            if (s.parent < mark || s.parent >= i) {
                bad.push_back(where(i) + ": parent recorded elsewhere");
                continue;
            }
            lo = spans_[s.parent].start_ns;
            hi = spans_[s.parent].end_ns;
            outer = where(s.parent);
        }
        if (s.start_ns < lo || s.end_ns > hi)
            bad.push_back(where(i) + " [" + std::to_string(s.start_ns) +
                          ", " + std::to_string(s.end_ns) +
                          "] lies outside " + outer + " [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]");
    }
    if (!any_layer)
        bad.push_back("no layer span recorded");
    return bad;
}

bool
Tracer::write_json(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"parent\": "
           << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
           << ", \"name\": \"" << s.name << "\", \"layer\": \""
           << s.layer << "\", \"start_ns\": " << s.start_ns
           << ", \"end_ns\": " << s.end_ns << ", \"dur_ns\": " << s.dur_ns
           << ", \"count\": " << s.count << "}";
    }
    os << "\n]\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
