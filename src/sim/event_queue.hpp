#ifndef IMC_SIM_EVENT_QUEUE_HPP
#define IMC_SIM_EVENT_QUEUE_HPP

/**
 * @file
 * The time-ordered event queue of the discrete-event engine.
 *
 * Events fire in ascending (time, insertion-seq) order, so ties in
 * time break by insertion order (FIFO), which makes zero-latency
 * chains (barrier releases, task hand-offs) behave deterministically.
 * The keys are unique, so the firing order is a pure function of the
 * operation sequence: no heap shape, slot reuse or memory layout can
 * reach it.
 */

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace imc::sim {

/**
 * A cancellable priority queue of timed callbacks: an indexed 4-ary
 * min-heap on (time, seq) over a slot vector.
 *
 * Each scheduled event owns a slot holding its callback and its
 * current heap position; freed slots are recycled through a free
 * list. An EventId is (generation << 32) | slot, and a slot's
 * generation advances every time it is freed, so cancel and liveness
 * checks are an index plus a compare: a handle of a fired or
 * cancelled event never matches its slot again, even after the slot
 * is reused (until that slot's 32-bit generation wraps, after 2^32
 * reuses). Generations start at 1, so EventId 0 is never issued.
 * Schedule, cancel and pop are O(log n); the heap stores only 24-byte
 * keys, so sifts never move a callback.
 */
class EventQueue {
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedule a callback at an absolute time.
     *
     * @param time absolute simulation time, must be >= now()
     * @param cb   continuation to invoke
     * @return     handle for cancellation
     */
    EventId schedule_at(double time, Callback cb);

    /**
     * Cancel a pending event. Cancelling an already-fired or
     * already-cancelled event, or an id never issued, is a harmless
     * no-op.
     */
    void cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live (pending, uncancelled) events. */
    std::size_t size() const { return heap_.size(); }

    /** Current simulation time (time of the last popped event). */
    double now() const { return now_; }

    /**
     * Pop and run the earliest live event, advancing now().
     *
     * @return false if the queue was empty (nothing ran)
     */
    bool pop_and_run();

    /** Total events executed (excludes cancelled). */
    std::uint64_t executed() const { return executed_; }

    /** Approximate heap bytes held by the queue's index structures. */
    std::size_t approx_bytes() const;

  private:
    /** A heap entry: the ordering key plus the owning slot. */
    struct Node {
        double time;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** A live event's callback and heap index, or a free slot. */
    struct Slot {
        Callback cb;
        std::uint32_t pos = 0;
        std::uint32_t gen = 1;
    };

    /** Store @p n at heap index @p i and record the index. */
    void place(std::size_t i, const Node& n);

    /** Move @p n up from hole @p i to its heap position. */
    void sift_up(std::size_t i, Node n);

    /** Move @p n down from hole @p i to its heap position. */
    void sift_down(std::size_t i, Node n);

    /**
     * Remove the entry at heap index @p i, free its slot (advancing
     * its generation) and return its callback.
     */
    Callback take_at(std::size_t i);

    std::vector<Node> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace imc::sim

#endif // IMC_SIM_EVENT_QUEUE_HPP
