#pragma once
// Cross-shard message staging for region-sharded simulation. When a
// SimTransport runs in sharded mode (one transport + kernel per region), a
// send whose destination lives in another region cannot be scheduled into
// the destination kernel directly — that kernel is executing concurrently on
// another worker thread. Instead the fully-sampled delivery (absolute
// deliver-at time, bandwidth charges, payload) is staged into a per-
// (source, destination) outbox here, and the window coordinator merges every
// outbox into the destination kernels at the next barrier.
//
// Thread-safety is by confinement, not locking: outbox (src, dst) is
// appended only by the worker executing shard `src` (a shard runs on exactly
// one worker per window), and merge_at_barrier runs only on the coordinator
// while all workers are parked. The ShardedSimulator window hand-off mutex
// provides the happens-before edges in both directions, so the vectors
// themselves need no synchronization — focus-lint's shard-confinement check
// enforces that no other concurrency primitives creep into shard-crossing
// code.
//
// Determinism: merged deliveries for a destination are ordered by
// (deliver_at, source shard, per-source send order) — append outboxes in
// source order and stable_sort by deliver_at alone. The order is a pure
// function of per-shard event sequences, which the conservative window makes
// independent of worker count, so digests match for any --shards value.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "net/transport.hpp"

namespace focus::net {

class SimTransport;

/// One staged cross-shard delivery, sampled entirely on the source shard
/// (latency, loss, bandwidth) so the destination only replays it.
struct StagedMessage {
  SimTime deliver_at = 0;  ///< absolute delivery time; >= the merge barrier
  SimTime sent_at = 0;     ///< source-side send time (per-hop trace spans)
  std::size_t rx_bytes = 0;    ///< charged to the receiver on delivery
  std::size_t sent_bytes = 0;  ///< payload-immutability audit stamp (debug)
  Message msg;
};

/// Per-(source, destination) staging outboxes plus the barrier merge.
class ShardStager {
 public:
  explicit ShardStager(std::size_t num_shards);

  /// Stage one cross-shard delivery. Called on the worker executing shard
  /// `src` during a window; (src, dst) confinement makes this lock-free.
  void stage(std::size_t src, std::size_t dst, StagedMessage staged);

  /// Drain every outbox into the destination transports. Coordinator-only,
  /// with all workers parked (a ShardedSimulator barrier hook). Every staged
  /// delivery must land at or after `barrier` — the conservative-window
  /// guarantee — and the FOCUS_CHECK here is what makes a too-large window a
  /// loud failure instead of a silent determinism break.
  /// `targets[dst]` receives outboxes (*, dst); size must equal num_shards().
  void merge_at_barrier(SimTime barrier,
                        const std::vector<SimTransport*>& targets);

  std::size_t num_shards() const noexcept { return num_shards_; }

  /// Total deliveries merged so far (coordinator-only; bench reporting).
  std::uint64_t merged_total() const noexcept { return merged_total_; }

  /// True when every outbox is empty (between windows: nothing in flight
  /// across shards).
  bool drained() const noexcept;

 private:
  std::vector<StagedMessage>& outbox(std::size_t src, std::size_t dst) {
    return outboxes_[src * num_shards_ + dst];
  }

  std::size_t num_shards_;
  std::vector<std::vector<StagedMessage>> outboxes_;
  std::vector<StagedMessage> merge_scratch_;  ///< reused per barrier
  std::uint64_t merged_total_ = 0;
};

}  // namespace focus::net
