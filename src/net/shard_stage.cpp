#include "net/shard_stage.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "net/sim_transport.hpp"

namespace focus::net {

ShardStager::ShardStager(std::size_t num_shards) : num_shards_(num_shards) {
  FOCUS_CHECK_GT(num_shards_, 0u);
  outboxes_.resize(num_shards_ * num_shards_);
}

FOCUS_HOT void ShardStager::stage(std::size_t src, std::size_t dst,
                                  StagedMessage staged) {
  FOCUS_DCHECK_LT(src, num_shards_);
  FOCUS_DCHECK_LT(dst, num_shards_);
  FOCUS_DCHECK(src != dst) << "same-shard sends must not be staged";
  outbox(src, dst).push_back(std::move(staged));
}

FOCUS_HOT void ShardStager::merge_at_barrier(
    SimTime barrier, const std::vector<SimTransport*>& targets) {
  FOCUS_CHECK_EQ(targets.size(), num_shards_);
  for (std::size_t dst = 0; dst < num_shards_; ++dst) {
    merge_scratch_.clear();
    // Append in source order: after the stable sort below, ties on
    // deliver_at keep (source shard, per-source send order) — the
    // deterministic merge order the digest contract depends on.
    for (std::size_t src = 0; src < num_shards_; ++src) {
      std::vector<StagedMessage>& box = outbox(src, dst);
      for (StagedMessage& staged : box) {
        merge_scratch_.push_back(std::move(staged));
      }
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                     [](const StagedMessage& a, const StagedMessage& b) {
                       return a.deliver_at < b.deliver_at;
                     });
    for (StagedMessage& staged : merge_scratch_) {
      FOCUS_CHECK_GE(staged.deliver_at, barrier)
          << "staged delivery lands inside the committed window: the "
             "conservative window exceeds the topology's lookahead floor";
      ++merged_total_;
      targets[dst]->accept_staged(std::move(staged));
    }
  }
  merge_scratch_.clear();
}

bool ShardStager::drained() const noexcept {
  for (const std::vector<StagedMessage>& box : outboxes_) {
    if (!box.empty()) return false;
  }
  return true;
}

}  // namespace focus::net
