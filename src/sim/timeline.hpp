#ifndef IMC_SIM_TIMELINE_HPP
#define IMC_SIM_TIMELINE_HPP

/**
 * @file
 * Per-process, per-iteration execution timelines of a simulated
 * iterative application — the measurement substrate of the delay-wave
 * validation study (DESIGN.md §11).
 *
 * A Timeline is a dense rank x iteration grid of stamps: when each
 * compute segment started, when it ended (including any injected
 * delay, which extends execution exactly like the real experiment's
 * injected busy-loop), and when the process was released from the
 * synchronization that closed the iteration (== the compute end for
 * iterations that end without a collective). Ranks that vanished
 * mid-run (node crash, detach) can be marked absent so analysis code
 * skips them instead of reading half-stamped rows.
 *
 * Capture follows the IMC_OBS_* gating discipline in spirit: drivers
 * hold a TimelineRecorder pointer that is null by default, every stamp
 * site is guarded by one pointer test, and recording never reads a
 * clock, draws randomness, or feeds back into the simulation — so a
 * run with capture on is event-for-event identical to one with it
 * off, and the captured bytes are identical across RunService and
 * sweep thread counts (locked down by tests/test_determinism.cpp and
 * tests/test_delaywave.cpp).
 */

#include <iosfwd>
#include <string>
#include <vector>

namespace imc::sim {

/** Stamps of one (rank, iteration) cell; negative = never stamped. */
struct TimelineCell {
    /** Simulated time the compute segment was issued. */
    double compute_start = -1.0;
    /** Segment completion, including any injected delay. */
    double compute_end = -1.0;
    /** Release from the iteration-closing sync (== compute_end when
     *  the iteration did not end at a collective). */
    double release = -1.0;
};

/** A dense rank x iteration grid of execution stamps. */
class Timeline {
  public:
    Timeline() = default;

    /** All cells unstamped, no rank absent. */
    Timeline(int ranks, int iters);

    int ranks() const { return ranks_; }
    int iters() const { return iters_; }

    /** @pre 0 <= rank < ranks(), 0 <= iter < iters() */
    const TimelineCell& cell(int rank, int iter) const;
    TimelineCell& cell(int rank, int iter);

    /** Mark a rank as lost (crashed node / detached app). */
    void mark_absent(int rank);

    /** True when the rank was marked absent. */
    bool absent(int rank) const;

    /** Completed iterations of a rank: cells [0, n) fully stamped. */
    int stamped_iters(int rank) const;

    /**
     * Canonical byte string of the whole grid — dimensions, absence
     * flags, and every stamp by double bit pattern (the canonical_key
     * convention), so two captures compare byte-identical iff they
     * are bit-identical.
     */
    std::string canonical_bytes() const;

    /** Human-readable dump: one "rank iter start end release" line
     *  per stamped cell, absent ranks flagged. */
    void write_text(std::ostream& os) const;

  private:
    int ranks_ = 0;
    int iters_ = 0;
    std::vector<TimelineCell> cells_; // rank-major
    std::vector<char> absent_;
};

/**
 * The opt-in capture front-end drivers stamp into.
 *
 * A driver (BspApp) receives a recorder pointer via
 * LaunchOptions::timeline; null means no capture and costs one
 * pointer test per stamp site. reset() is called by the driver at
 * launch with its geometry; stamps outside the declared grid are
 * ignored (a relaunched driver resets first), so recording can never
 * throw mid-simulation.
 */
class TimelineRecorder {
  public:
    /** Reinitialize to an unstamped ranks x iters grid. */
    void reset(int ranks, int iters);

    void compute_start(int rank, int iter, double t);
    void compute_end(int rank, int iter, double t);
    void release(int rank, int iter, double t);
    void mark_absent(int rank);

    const Timeline& timeline() const { return timeline_; }

    /** Move the capture out, leaving an empty recorder. */
    Timeline take();

  private:
    TimelineCell* cell_at(int rank, int iter);

    Timeline timeline_;
};

} // namespace imc::sim

#endif // IMC_SIM_TIMELINE_HPP
