#pragma once
// The Dynamic Groups Manager (§VII, §VIII-A-2): suggests groups to nodes,
// tracks group membership through representative reports, forks groups that
// exceed the size threshold, geo-splits groups that span regions, and keeps
// the transition table of nodes between groups.
//
// Storage layout: groups live in an address-stable slab (a deque that only
// ever grows; clear_state wipes it wholesale) indexed three ways —
//   * a flat open-addressing hash from packed GroupId to slab index
//     (the O(1) lookup every join/report/suggest resolves through),
//   * a per-attribute ordered bucket index (bucket_lo -> groups), so
//     candidate_groups range-scans only the buckets intersecting a term
//     instead of walking the whole group table, and
//   * a name-ordered view used wherever iteration order is load-bearing for
//     scenario digests (maintenance, audits, persistence walks) — it
//     reproduces the name-lexicographic order of the old
//     std::map<std::string, GroupInfo> exactly.

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "focus/config.hpp"
#include "focus/messages.hpp"
#include "focus/registrar.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "store/kvstore.hpp"

namespace focus::core {

/// DGM statistics for tests and benches.
struct DgmStats {
  std::uint64_t suggestions = 0;
  std::uint64_t groups_created = 0;
  std::uint64_t forks_created = 0;
  std::uint64_t geo_splits = 0;
  std::uint64_t reports_processed = 0;
  std::uint64_t rep_assignments = 0;
};

/// One group's member bookkeeping, flattened. The old GroupInfo carried four
/// parallel maps (members, member_seen, member_joined, pending_joins) that
/// had to agree; a single NodeId-sorted slot vector holds the same facts per
/// node and caches the confirmed-member count so size() is a field read.
class MemberTable {
 public:
  struct Slot {
    NodeId node;
    net::Address p2p_addr;
    Region region = Region::AppEdge;
    /// Last confirmation (join or report); 0 for pending-only slots.
    SimTime seen = 0;
    /// First confirmation in this group (audit churn-grace input).
    SimTime joined = 0;
    /// Expiry of an unconfirmed steering (the old pending_joins entry);
    /// 0 = no pending steering.
    SimTime pending_until = 0;
    /// True when the node is a confirmed member (was in the old `members`).
    bool confirmed = false;

    MemberRecord record() const { return MemberRecord{node, p2p_addr, region}; }
  };

  /// Confirmed members (precomputed; the router's pick_smallest input).
  std::size_t size() const noexcept { return confirmed_; }
  bool empty() const noexcept { return confirmed_ == 0; }

  /// True / 1 when `id` is a confirmed member.
  bool contains(NodeId id) const;
  std::size_t count(NodeId id) const { return contains(id) ? 1u : 0u; }

  /// Any slot for `id` (confirmed or pending); nullptr when absent.
  const Slot* find(NodeId id) const;

  /// Visit confirmed members in NodeId order (matches the old
  /// std::map<NodeId, MemberRecord> iteration, which feeds RNG sampling and
  /// message emission — load-bearing for digests).
  template <typename Fn>
  void for_each_member(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.confirmed) fn(slot);
    }
  }

  /// The i-th confirmed member in NodeId order (i < size()). Lets callers
  /// pick a uniformly random member without materializing an id vector.
  const Slot& nth_member(std::size_t i) const;

  /// Unexpired pending steerings for nodes that are not members (the
  /// capacity headroom the old pending_joins map contributed).
  std::size_t pending_extra(SimTime now) const;

  /// All slots (confirmed and pending), NodeId order. Audit support.
  std::vector<Slot>::const_iterator begin() const { return slots_.begin(); }
  std::vector<Slot>::const_iterator end() const { return slots_.end(); }

  // Mutation (Dgm internals).

  /// Confirm `rec` as a member: updates address/region, stamps seen = now,
  /// and joined = now for first-time members. Pending state is untouched
  /// (the report/join paths clear it separately, mirroring the old maps).
  void confirm(const MemberRecord& rec, SimTime now);

  /// Record a pending steering with the given expiry (old pending_joins[]=).
  void set_pending(NodeId id, SimTime expires_at);

  /// Drop a pending steering; removes the slot entirely when the node is
  /// not a confirmed member.
  void clear_pending(NodeId id);

  /// Remove membership but keep any pending steering (delta-report
  /// "departed" semantics). Removes the slot when nothing remains.
  void unconfirm(NodeId id);

  /// Remove every trace of the node (LeftGroup semantics).
  void erase(NodeId id);

  /// Apply an authoritative full report: report members are confirmed with
  /// seen = now; existing members absent from the report survive when seen
  /// within `grace` and are dropped otherwise (keeping their pending
  /// steering, if any). Duplicate report entries: last one wins.
  void full_merge(const std::vector<MemberRecord>& report, SimTime now,
                  Duration grace);

  /// Expire pending steerings at or before `now` (maintenance sweep).
  void expire_pending(SimTime now);

 private:
  Slot& upsert(NodeId id);

  std::vector<Slot> slots_;   // sorted by NodeId
  std::size_t confirmed_ = 0; // cached count of confirmed slots
};

/// Group membership bookkeeping and group lifecycle policy.
class Dgm {
 public:
  /// Everything the DGM knows about one group.
  struct GroupInfo {
    GroupKey key;
    GroupId gid;              ///< packed id (see group_naming.hpp)
    std::string name;
    /// First 32 bytes of `name`, zero-padded: a fixed-width sort key whose
    /// memcmp order equals name-lexicographic order for all realistic names
    /// (ties beyond the prefix fall back to the full string).
    std::array<char, 32> name_key{};
    GroupRange range;
    MemberTable members;
    std::vector<NodeId> reps;     ///< assigned representatives
    SimTime last_report = -1;  ///< -1 until the first report arrives
    SimTime created_at = 0;
    /// False once the group exceeded the fork threshold; new nodes are then
    /// steered to a forked instance.
    bool accepting = true;

    /// Members plus unexpired pending joins (capacity check input).
    std::size_t effective_size(SimTime now) const {
      return members.size() + members.pending_extra(now);
    }

    /// Regions present among members.
    std::set<Region> regions() const;
  };

  Dgm(sim::Simulator& simulator, net::Transport& transport,
      net::Address south_addr, const ServiceConfig& config,
      const Registrar& registrar, store::Cluster& store, Rng rng);

  /// Produce a group suggestion for (node, attr, value): an existing group
  /// with capacity, or a newly created (possibly forked / geo-scoped) group
  /// the node must start. Also records the node in the transition table.
  GroupSuggestion suggest(NodeId node, Region region,
                          const net::Address& command_addr,
                          const AttributeSchema& attr, double value);

  /// Node confirmed it joined/started `group` with its p2p agent at
  /// `p2p_addr`. First member of a rep-less group becomes a representative.
  void on_joined(const JoinedPayload& joined);

  /// Node announced leaving a group.
  void on_left(const LeftGroupPayload& left);

  /// Representative uploaded a member list (full or delta).
  void on_report(const GroupReportPayload& report);

  /// Candidate groups for one query term, resolved through the bucket index:
  /// only buckets whose value range can intersect [lower, upper] are
  /// visited, then ordered name-lexicographically (the old full-scan order).
  struct Candidates {
    std::vector<const GroupInfo*> groups;
    std::size_t total_members = 0;
  };
  Candidates candidate_groups(const QueryTerm& term,
                              std::optional<Region> location) const;

  /// Nodes currently in transition (queried directly, §VII).
  std::vector<std::pair<NodeId, net::Address>> transition_nodes() const;

  /// One transition-table entry with its expiry (audit support).
  struct TransitionView {
    NodeId node;
    net::Address command_addr;
    SimTime expires_at = 0;
  };
  /// Full transition table including expiries (focus/audit.hpp).
  std::vector<TransitionView> transition_entries() const;

  /// Periodic upkeep: expire transition entries, replace representatives
  /// whose reports went stale.
  void maintenance();

  /// Drop all in-memory state (simulates DGM failover; reports repopulate
  /// the primary tables, §VIII-A-2 "failure recovery comes naturally").
  void clear_state();

  /// Lookups.
  const GroupInfo* group(const std::string& name) const;
  const GroupInfo* group_by_id(GroupId gid) const;

  /// Visit every group in name-lexicographic order (the old
  /// std::map<std::string, GroupInfo> iteration order).
  template <typename Fn>
  void for_each_group(Fn&& fn) const {
    for (const auto& [name, index] : by_name_) fn(slab_[index]);
  }

  std::size_t group_count() const noexcept { return slab_.size(); }
  std::size_t transition_count() const noexcept { return transition_.size(); }

  /// One bucket-index entry (audit support: mirror-consistency checks).
  struct BucketView {
    AttrId attr;
    double bucket_lo = 0;
    std::uint32_t code = 0;
    std::vector<const GroupInfo*> groups;
  };
  std::vector<BucketView> bucket_index() const;

  /// Mean members per group with at least one member.
  double mean_group_size() const;

  const DgmStats& stats() const noexcept { return stats_; }

 private:
  struct TransitionEntry {
    net::Address command_addr;
    SimTime expires_at = 0;
  };

  /// Flat open-addressing hash from GroupId bits to slab index. Groups are
  /// never individually erased, so there is no deletion support; linear
  /// probing over a power-of-two table.
  class IdIndex {
   public:
    static constexpr std::uint32_t kNone = 0xffffffffu;
    std::uint32_t find(std::uint64_t key) const;
    void insert(std::uint64_t key, std::uint32_t value);  // key must be new
    void clear();

   private:
    void grow();
    struct Cell {
      std::uint64_t key = 0;
      std::uint32_t value = kNone;  // kNone marks an empty cell
    };
    std::vector<Cell> cells_;
    std::size_t size_ = 0;
  };

  /// Per-attribute ordered bucket index; the bucket_lo -> code map doubles
  /// as the bucket-code interner.
  struct BucketEntry {
    std::uint32_t code = 0;
    std::vector<std::uint32_t> groups;  ///< slab indices, every scope/fork
  };
  struct AttrIndex {
    std::map<double, BucketEntry> buckets;
    /// Every group of this attribute, name-lexicographically ordered (slab
    /// indices). Wide terms that would visit most buckets fall back to
    /// walking this list, which needs no post-scan sort.
    std::vector<std::uint32_t> by_name;
    /// Widest group range ever created for this attribute; bounds how far
    /// below `lower` the candidate scan must start (cutoffs can be retuned
    /// at runtime, so bucket widths within one attribute may vary).
    double max_width = 0;
    std::uint32_t next_code = 0;
  };

  GroupInfo& get_or_create(const GroupKey& key, const AttributeSchema& attr);
  GroupInfo* find_by_key(const GroupKey& key);
  const GroupInfo* find_by_key(const GroupKey& key) const;
  void ensure_reps(GroupInfo& group);
  void send_rep_assign(const GroupInfo& group, NodeId node, bool assign);
  void persist_group(const GroupInfo& group);
  void update_policies(GroupInfo& group);
  bool geo_split_active(AttrId attr, double bucket_lo) const;

  sim::Simulator& simulator_;
  net::Transport& transport_;
  net::Address south_addr_;
  const ServiceConfig& config_;
  const Registrar& registrar_;
  store::Cluster& store_;
  Rng rng_;

  /// Address-stable group storage; only clear_state shrinks it.
  std::deque<GroupInfo> slab_;
  IdIndex by_id_;
  /// Name-ordered view for digest-stable iteration; keys view the slab's
  /// (address-stable) GroupInfo::name strings.
  std::map<std::string_view, std::uint32_t> by_name_;
  std::vector<AttrIndex> attr_index_;  ///< indexed by AttrId::value()

  std::unordered_map<NodeId, TransitionEntry> transition_;
  /// (attr id, bucket_lo) pairs where geo-splitting is in force.
  std::set<std::pair<std::uint16_t, double>> geo_split_buckets_;
  DgmStats stats_;
};

}  // namespace focus::core
