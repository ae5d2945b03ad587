#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace imc::sim {

namespace {

/** Children per heap node: half the depth of a binary heap, and the
 *  siblings a sift-down compares sit next to each other in memory. */
constexpr std::size_t kArity = 4;

/** Strict (time, seq) order; seq is unique, so the order is total.
 *  (A template because the heap's Node type is private.) */
template <typename Node>
bool
before(const Node& a, const Node& b)
{
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

} // namespace

EventId
EventQueue::schedule_at(double time, Callback cb)
{
    require(time >= now_ - 1e-12,
            "EventQueue: cannot schedule into the past");
    require(static_cast<bool>(cb), "EventQueue: null callback");
    std::uint32_t s = 0;
    if (free_.empty()) {
        invariant(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "EventQueue: slot space exhausted");
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        s = free_.back();
        free_.pop_back();
    }
    slots_[s].cb = std::move(cb);
    heap_.emplace_back(); // the hole sift_up starts from
    sift_up(heap_.size() - 1, Node{time, next_seq_++, s});
    return (static_cast<EventId>(slots_[s].gen) << 32) | s;
}

void
EventQueue::cancel(EventId id)
{
    const auto s = static_cast<std::uint32_t>(id);
    if (s >= slots_.size() || slots_[s].gen != (id >> 32))
        return; // already fired or cancelled: harmless no-op
    take_at(slots_[s].pos);
}

bool
EventQueue::pop_and_run()
{
    if (heap_.empty())
        return false;
    const double time = heap_.front().time;
    Callback cb = take_at(0);
    invariant(time >= now_ - 1e-12, "EventQueue: time went backwards");
    now_ = std::max(now_, time);
    ++executed_;
    cb();
    return true;
}

std::size_t
EventQueue::approx_bytes() const
{
    return heap_.capacity() * sizeof(Node) +
           slots_.capacity() * sizeof(Slot) +
           free_.capacity() * sizeof(std::uint32_t);
}

void
EventQueue::place(std::size_t i, const Node& n)
{
    heap_[i] = n;
    slots_[n.slot].pos = static_cast<std::uint32_t>(i);
}

void
EventQueue::sift_up(std::size_t i, Node n)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(n, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, n);
}

void
EventQueue::sift_down(std::size_t i, Node n)
{
    const std::size_t size = heap_.size();
    for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= size)
            break;
        const std::size_t last = std::min(first + kArity, size);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(heap_[c], heap_[best]))
                best = c;
        if (!before(heap_[best], n))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, n);
}

Callback
EventQueue::take_at(std::size_t i)
{
    const std::uint32_t s = heap_[i].slot;
    Slot& slot = slots_[s];
    Callback cb = std::exchange(slot.cb, nullptr);
    if (++slot.gen == 0)
        slot.gen = 1; // wrapped: keep EventId 0 unissued
    free_.push_back(s);

    // Refill the hole with the last entry, sifting whichever way its
    // key demands.
    const Node moved = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        if (i > 0 && before(moved, heap_[(i - 1) / kArity]))
            sift_up(i, moved);
        else
            sift_down(i, moved);
    }
    return cb;
}

} // namespace imc::sim
