#pragma once
// Region-sharded parallel simulation driver. One sim::Simulator per shard —
// a WAN region, or a (region, sub-shard) pair once a region is split
// (Topology::set_sub_shards) — runs on a worker thread. The fleet advances in
// lock-step conservative windows no longer than the minimum one-way latency
// between any two shards (Topology::sharded_lookahead_floor(), jitter
// included: the cross-region floor, clamped by the intra-region floor of
// every split region). Every shard runs every window.
//
// Same-shard events never leave their kernel, and any cross-shard send
// carries at least one window of latency, so it cannot affect another shard
// before the next barrier. Cross-shard deliveries are staged during the
// window (net/shard_stage.hpp) and merged by the coordinator at the barrier
// hook in a deterministic order, which keeps every shard's event sequence —
// and therefore digest() — byte-identical for any worker-thread count. See
// DESIGN.md §10.
//
// Threading model: the coordinator (the thread that calls run_until) parks
// between windows; `threads` persistent workers each own a fixed round-robin
// subset of the shards. threads == 1 runs the same windowed algorithm inline
// on the caller with no worker threads at all — the degenerate case the
// determinism tests compare against. All shard state is confined: workers
// touch only their own shards during a window, the coordinator touches
// shards only while workers are parked (the mutex hand-off orders both).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace focus::sim {

/// Drives N shard kernels through conservative windows. Does not own the
/// shards; they must outlive the driver. Construction requires all shard
/// clocks to agree (normally: freshly built kernels at t=0).
class ShardedSimulator {
 public:
  /// Runs at each window barrier, on the coordinator thread, with every
  /// worker parked: safe to read/mutate any shard (merge staged cross-shard
  /// messages, run audits, sample state). Receives the committed fleet time.
  using BarrierHook = std::function<void(SimTime)>;

  /// `window` is the conservative lookahead (µs): at most the minimum
  /// cross-shard one-way latency after worst-case jitter shrink —
  /// Topology::sharded_lookahead_floor(). FOCUS_CHECKed positive.
  /// `threads` is the worker count (clamped to [1, shards]); 1 = inline.
  ShardedSimulator(std::vector<Simulator*> shards, Duration window,
                   unsigned threads = 1);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  void set_barrier_hook(BarrierHook hook) { hook_ = std::move(hook); }

  /// Advance every shard to exactly `t`, one window at a time, invoking the
  /// barrier hook after each window commits. FOCUS_CHECKs that no shard
  /// kernel was run on its own since the last barrier.
  void run_until(SimTime t);
  void run_for(Duration d) { run_until(now_ + d); }

  /// Committed fleet time: every shard has executed all events <= now() and
  /// no shard has run past it.
  SimTime now() const noexcept { return now_; }

  Duration window() const noexcept { return window_; }
  std::size_t num_shards() const noexcept { return shards_.size(); }
  unsigned threads() const noexcept { return threads_; }
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  const Simulator& shard(std::size_t i) const { return *shards_[i]; }

  // -- Window statistics (deterministic, sim-time based; barrier-time only) --

  /// Coordinator rounds (windows) so far. Each round costs one worker
  /// wake/park cycle plus one hook (merge) invocation.
  std::uint64_t rounds() const noexcept { return rounds_; }

  /// Windows shard `i` executed. Every shard runs every window, so this is
  /// rounds(); events/shard_windows is the events-per-window figure.
  std::uint64_t shard_windows(std::size_t /*i*/) const noexcept { return rounds_; }

  /// Total simulated width (µs) of the windows shard `i` executed — the
  /// simulated time since the driver was built, since every shard runs every
  /// window; divide by shard_windows(i) for the mean window width.
  Duration shard_window_width(std::size_t /*i*/) const noexcept { return now_ - start_; }

  /// Total events executed across all shards. Barrier-time only.
  std::uint64_t executed() const noexcept;

  // -- Wall-clock scheduler profiling (opt-in, observation-only) ------------

  /// Wall-clock accounting for one shard, accumulated over every coordinator
  /// round while wall profiling is enabled. The three parts partition each
  /// round's wall time exactly: busy_ns + stall_ns + idle_ns == wall_ns.
  ///  - busy:  this shard's kernel was executing events
  ///  - stall: the shard ran this round but finished before the round's
  ///           slowest participant (barrier stall — the cost lock-step
  ///           windows impose)
  ///  - idle:  the shard sat the round out entirely. Lock-step windows run
  ///           every shard every round, so this stays zero; the field keeps
  ///           the busy/stall/idle export schema stable.
  struct ShardProfile {
    std::int64_t busy_ns = 0;
    std::int64_t stall_ns = 0;
    std::int64_t idle_ns = 0;
    std::int64_t wall_ns = 0;  ///< total coordinator round wall time
  };

  /// Enable/disable wall-clock profiling (default off). Observation-only:
  /// profiling reads a wall clock but never feeds any scheduling decision,
  /// so digests are byte-identical with it on or off. Barrier-time only.
  void set_wall_profiling(bool on) noexcept { wall_profiling_ = on; }
  bool wall_profiling() const noexcept { return wall_profiling_; }

  /// Per-shard profiles (all zero until wall profiling is enabled).
  /// Barrier-time only.
  const std::vector<ShardProfile>& shard_profiles() const noexcept {
    return profiles_;
  }

  /// Order-sensitive FNV-1a fold of the per-shard digests, in shard order;
  /// with one shard, that shard's own digest, so a one-shard world keeps
  /// the single-kernel digests. Byte-identical across worker-thread counts
  /// for the same seed; the determinism ctest (tests/test_sharded.cpp)
  /// enforces this. Barrier-time only (between run_until calls or inside the
  /// barrier hook).
  std::uint64_t digest() const noexcept;

 private:
  void worker_main(unsigned index);
  /// Run this worker's shards (round-robin subset `index, index+threads,
  /// ...`) up to `target`, stamping the thread's log lines with the clock of
  /// the shard currently executing.
  void run_assigned(unsigned index, SimTime target);
  static std::int64_t coordinator_time(const void* ctx);

  /// Dispatch one window to the workers (or run inline) and wait.
  void execute_round(SimTime target);

  std::vector<Simulator*> shards_;
  Duration window_;
  unsigned threads_;
  BarrierHook hook_;
  SimTime start_ = 0;  ///< shard clocks at construction
  SimTime now_ = 0;

  std::uint64_t rounds_ = 0;

  // Wall-clock profiling (observation-only; see set_wall_profiling). Each
  // round_busy_ns_ entry is written only by the worker that owns the shard
  // during a round and read/reset only by the coordinator while workers are
  // parked — the same confinement discipline as the shards themselves.
  bool wall_profiling_ = false;
  std::vector<ShardProfile> profiles_;
  std::vector<std::int64_t> round_busy_ns_;

  // Window hand-off (threads_ > 1): the coordinator publishes a target and
  // bumps epoch_; each worker runs its shards to the target and bumps done_.
  // This mutex is the only cross-thread channel in the driver — shard event
  // state itself is never shared mid-window.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  SimTime target_ = 0;
  unsigned done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace focus::sim
