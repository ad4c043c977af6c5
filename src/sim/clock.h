// Virtual time. Time advances only when the simulated disk performs work,
// when a file system charges CPU time, or when a test/benchmark explicitly
// idles. The clock is shared by every thread touching one rig: concurrent
// client threads each advance the same timeline, which models N processes
// sharing one machine (the paper's Cedar had ~28 of them) without any CPU
// overlap — exactly the accounting discipline the single-threaded model
// used. Advances are relaxed atomic adds: addition commutes, so the totals
// any quiescent observer reads are schedule-independent, and the hot
// operation path never takes a lock for timekeeping.
//
// Group commit (paper section 5.4) is driven by this clock: FSD forces its
// log when half a virtual second has passed since the last force.

#ifndef CEDAR_SIM_CLOCK_H_
#define CEDAR_SIM_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace cedar::sim {

using Micros = std::uint64_t;

inline constexpr Micros kMillisecond = 1000;
inline constexpr Micros kSecond = 1000 * kMillisecond;

class VirtualClock {
 public:
  Micros now() const { return now_us_.load(std::memory_order_relaxed); }

  void Advance(Micros us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }

  // Moves the clock forward to `t` if it is behind; never moves it back.
  // DiskArray uses this to model member spindles idling between requests:
  // before a member services its chunk, its private clock catches up to the
  // rig's logical time, so rotational positions stay physical.
  void AdvanceTo(Micros t) {
    Micros cur = now_us_.load(std::memory_order_relaxed);
    while (cur < t && !now_us_.compare_exchange_weak(
                          cur, t, std::memory_order_relaxed)) {
    }
  }

  // Sets the clock to `t`, earlier or later. Only a device's
  // RestoreTimeline uses it: a replay from a snapshot must run on the
  // timeline the snapshot was taken on, or every timestamp it stores (and
  // so the size of every varint-coded name-table entry) differs from the
  // recording's.
  void Set(Micros t) { now_us_.store(t, std::memory_order_relaxed); }

  // CPU time is tracked separately from disk time so benchmarks can report
  // the CPU/bandwidth split of Table 5, but it advances the same timeline
  // (no CPU/IO overlap; the Dorado discussion in section 6 notes the CPU was
  // deliberately ignored in the model, so we keep its accounting visible).
  void AdvanceCpu(Micros us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
    cpu_us_.fetch_add(us, std::memory_order_relaxed);
  }

  Micros cpu_time() const { return cpu_us_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Micros> now_us_{0};
  std::atomic<Micros> cpu_us_{0};
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_CLOCK_H_
