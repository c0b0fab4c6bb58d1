#include "focus/dgm.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace focus::core {

namespace {
// Mirrors of the DgmStats counters in the process-wide metric set, so DGM
// dynamics (Fig. 5's group churn) show up in exported metric snapshots.
const obs::MetricId kGroupsCreated =
    obs::MetricId::counter("focus.dgm.groups_created");
const obs::MetricId kForksCreated =
    obs::MetricId::counter("focus.dgm.forks_created");
const obs::MetricId kSuggestions =
    obs::MetricId::counter("focus.dgm.suggestions");
const obs::MetricId kTransitions =
    obs::MetricId::counter("focus.dgm.transitions");
const obs::MetricId kReportsProcessed =
    obs::MetricId::counter("focus.dgm.reports_processed");
const obs::MetricId kGeoSplits = obs::MetricId::counter("focus.dgm.geo_splits");
const obs::MetricId kRepAssignments =
    obs::MetricId::counter("focus.dgm.rep_assignments");
/// Maximum entry points included in a suggestion.
constexpr std::size_t kMaxEntryPoints = 8;
/// A full group reopens to new members once it shrinks below this fraction
/// of the fork threshold (hysteresis so membership does not flap).
constexpr double kReopenFraction = 0.9;
/// Bucket-scan bail-out: a candidate scan that visits more buckets than this
/// switches to the attribute's name-ordered group list, which needs no
/// post-scan sort (wide terms would otherwise pay O(n log n) to restore the
/// order the old full-table scan got for free).
constexpr std::size_t kWideScanBuckets = 48;
}  // namespace

/// Name-lexicographic group order via the fixed-width memcmp key; the
/// full-string fallback only runs for names sharing a 32-byte prefix.
static bool group_name_less(const Dgm::GroupInfo& a, const Dgm::GroupInfo& b) {
  const int cmp =
      std::memcmp(a.name_key.data(), b.name_key.data(), a.name_key.size());
  if (cmp != 0) return cmp < 0;
  return a.name < b.name;
}

// ---------------------------------------------------------------------------
// MemberTable

bool MemberTable::contains(NodeId id) const {
  const Slot* slot = find(id);
  return slot != nullptr && slot->confirmed;
}

const MemberTable::Slot* MemberTable::find(NodeId id) const {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId node) { return slot.node < node; });
  if (it == slots_.end() || !(it->node == id)) return nullptr;
  return &*it;
}

const MemberTable::Slot& MemberTable::nth_member(std::size_t i) const {
  FOCUS_DCHECK_LT(i, confirmed_);
  for (const Slot& slot : slots_) {
    if (!slot.confirmed) continue;
    if (i == 0) return slot;
    --i;
  }
  FOCUS_CHECK(false) << "MemberTable::nth_member: cached confirmed count "
                     << confirmed_ << " exceeds actual members";
  return slots_.front();  // unreachable
}

std::size_t MemberTable::pending_extra(SimTime now) const {
  std::size_t pending = 0;
  for (const Slot& slot : slots_) {
    if (!slot.confirmed && slot.pending_until > now) ++pending;
  }
  return pending;
}

MemberTable::Slot& MemberTable::upsert(NodeId id) {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId node) { return slot.node < node; });
  if (it != slots_.end() && it->node == id) return *it;
  Slot slot;
  slot.node = id;
  return *slots_.insert(it, slot);
}

void MemberTable::confirm(const MemberRecord& rec, SimTime now) {
  Slot& slot = upsert(rec.node);
  slot.p2p_addr = rec.p2p_addr;
  slot.region = rec.region;
  slot.seen = now;
  if (!slot.confirmed) {
    slot.confirmed = true;
    slot.joined = now;
    ++confirmed_;
  }
}

void MemberTable::set_pending(NodeId id, SimTime expires_at) {
  upsert(id).pending_until = expires_at;
}

void MemberTable::clear_pending(NodeId id) {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId node) { return slot.node < node; });
  if (it == slots_.end() || !(it->node == id)) return;
  it->pending_until = 0;
  if (!it->confirmed) slots_.erase(it);
}

void MemberTable::unconfirm(NodeId id) {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId node) { return slot.node < node; });
  if (it == slots_.end() || !(it->node == id)) return;
  if (it->confirmed) {
    it->confirmed = false;
    it->seen = 0;
    it->joined = 0;
    --confirmed_;
  }
  if (it->pending_until == 0) slots_.erase(it);
}

void MemberTable::erase(NodeId id) {
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, NodeId node) { return slot.node < node; });
  if (it == slots_.end() || !(it->node == id)) return;
  if (it->confirmed) --confirmed_;
  slots_.erase(it);
}

void MemberTable::full_merge(const std::vector<MemberRecord>& report,
                             SimTime now, Duration grace) {
  // Sort a copy by NodeId with later duplicates winning, reproducing the
  // old `merged[rec.node] = rec` std::map build.
  std::vector<MemberRecord> sorted = report;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MemberRecord& a, const MemberRecord& b) {
                     return a.node < b.node;
                   });
  std::size_t unique = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i + 1 < sorted.size() && sorted[i + 1].node == sorted[i].node) continue;
    sorted[unique++] = sorted[i];
  }
  sorted.resize(unique);

  std::vector<Slot> merged;
  merged.reserve(sorted.size() + slots_.size());
  confirmed_ = 0;
  auto rit = sorted.begin();
  auto sit = slots_.begin();
  while (rit != sorted.end() || sit != slots_.end()) {
    if (sit == slots_.end() || (rit != sorted.end() && rit->node < sit->node)) {
      // Brand-new member from the report.
      Slot slot;
      slot.node = rit->node;
      slot.p2p_addr = rit->p2p_addr;
      slot.region = rit->region;
      slot.seen = now;
      slot.joined = now;
      slot.confirmed = true;
      merged.push_back(slot);
      ++confirmed_;
      ++rit;
    } else if (rit == sorted.end() || sit->node < rit->node) {
      // Existing slot the report does not mention.
      Slot slot = *sit;
      if (!slot.confirmed) {
        merged.push_back(slot);  // pending-only steering: untouched
      } else if (now - slot.seen < grace) {
        // Confirmed recently via another path (join / other rep): a fresh
        // joiner may not have reached this representative's gossip view yet.
        merged.push_back(slot);
        ++confirmed_;
      } else if (slot.pending_until > 0) {
        // Membership lapsed but a steering is still outstanding.
        slot.confirmed = false;
        slot.seen = 0;
        slot.joined = 0;
        merged.push_back(slot);
      }
      ++sit;
    } else {
      // In both: the report refreshes the record.
      Slot slot = *sit;
      slot.p2p_addr = rit->p2p_addr;
      slot.region = rit->region;
      slot.seen = now;
      if (!slot.confirmed) {
        slot.confirmed = true;
        slot.joined = now;
      }
      merged.push_back(slot);
      ++confirmed_;
      ++rit;
      ++sit;
    }
  }
  slots_ = std::move(merged);
}

void MemberTable::expire_pending(SimTime now) {
  for (Slot& slot : slots_) {
    if (slot.pending_until > 0 && slot.pending_until <= now) {
      slot.pending_until = 0;
    }
  }
  std::erase_if(slots_, [](const Slot& slot) {
    return !slot.confirmed && slot.pending_until == 0;
  });
}

// ---------------------------------------------------------------------------
// Dgm::IdIndex

std::uint32_t Dgm::IdIndex::find(std::uint64_t key) const {
  if (cells_.empty()) return kNone;
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = key & mask;; i = (i + 1) & mask) {
    const Cell& cell = cells_[i];
    if (cell.value == kNone) return kNone;
    if (cell.key == key) return cell.value;
  }
}

void Dgm::IdIndex::insert(std::uint64_t key, std::uint32_t value) {
  FOCUS_DCHECK_NE(value, kNone);
  if (cells_.empty() || size_ * 4 >= cells_.size() * 3) grow();
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t i = key & mask;; i = (i + 1) & mask) {
    Cell& cell = cells_[i];
    if (cell.value == kNone) {
      cell.key = key;
      cell.value = value;
      ++size_;
      return;
    }
    FOCUS_DCHECK_NE(cell.key, key) << "duplicate GroupId inserted";
  }
}

void Dgm::IdIndex::grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 64 : old.size() * 2, Cell{});
  const std::size_t mask = cells_.size() - 1;
  for (const Cell& cell : old) {
    if (cell.value == kNone) continue;
    for (std::size_t i = cell.key & mask;; i = (i + 1) & mask) {
      if (cells_[i].value == kNone) {
        cells_[i] = cell;
        break;
      }
    }
  }
}

void Dgm::IdIndex::clear() {
  cells_.clear();
  size_ = 0;
}

// ---------------------------------------------------------------------------
// Dgm

std::set<Region> Dgm::GroupInfo::regions() const {
  std::set<Region> out;
  members.for_each_member(
      [&out](const MemberTable::Slot& slot) { out.insert(slot.region); });
  return out;
}

Dgm::Dgm(sim::Simulator& simulator, net::Transport& transport,
         net::Address south_addr, const ServiceConfig& config,
         const Registrar& registrar, store::Cluster& store, Rng rng)
    : simulator_(simulator),
      transport_(transport),
      south_addr_(south_addr),
      config_(config),
      registrar_(registrar),
      store_(store),
      rng_(std::move(rng)) {}

bool Dgm::geo_split_active(AttrId attr, double bucket_lo) const {
  return geo_split_buckets_.count({attr.value(), bucket_lo}) > 0;
}

const Dgm::GroupInfo* Dgm::find_by_key(const GroupKey& key) const {
  const std::uint16_t attr = key.attr.value();
  if (attr >= attr_index_.size()) return nullptr;
  const auto bucket = attr_index_[attr].buckets.find(key.bucket_lo);
  if (bucket == attr_index_[attr].buckets.end()) return nullptr;
  const GroupId gid =
      GroupId::pack(key.attr, bucket->second.code, key.region, key.fork);
  const std::uint32_t index = by_id_.find(gid.bits);
  return index == IdIndex::kNone ? nullptr : &slab_[index];
}

Dgm::GroupInfo* Dgm::find_by_key(const GroupKey& key) {
  return const_cast<GroupInfo*>(std::as_const(*this).find_by_key(key));
}

Dgm::GroupInfo& Dgm::get_or_create(const GroupKey& key, const AttributeSchema& attr) {
  const std::uint16_t attr_value = key.attr.value();
  if (attr_value >= attr_index_.size()) attr_index_.resize(attr_value + 1);
  AttrIndex& index = attr_index_[attr_value];
  auto [bucket, bucket_is_new] = index.buckets.try_emplace(key.bucket_lo);
  if (bucket_is_new) bucket->second.code = index.next_code++;
  const GroupId gid =
      GroupId::pack(key.attr, bucket->second.code, key.region, key.fork);
  if (const std::uint32_t existing = by_id_.find(gid.bits);
      existing != IdIndex::kNone) {
    return slab_[existing];
  }

  GroupInfo info;
  info.key = key;
  info.gid = gid;
  info.name = key.to_name();
  std::memcpy(info.name_key.data(), info.name.data(),
              std::min(info.name.size(), info.name_key.size()));
  info.range = range_of(key, attr);
  FOCUS_DCHECK_LT(info.range.lo, info.range.hi)
      << "empty value range for group " << info.name;
  info.created_at = simulator_.now();
  ++stats_.groups_created;
  obs::metrics().add(kGroupsCreated, 1);
  if (key.fork > 0) {
    ++stats_.forks_created;
    obs::metrics().add(kForksCreated, 1);
  }

  const auto slab_index = static_cast<std::uint32_t>(slab_.size());
  slab_.push_back(std::move(info));
  GroupInfo& group = slab_.back();
  by_id_.insert(gid.bits, slab_index);
  by_name_.emplace(std::string_view(group.name), slab_index);
  bucket->second.groups.push_back(slab_index);
  const auto pos = std::lower_bound(
      index.by_name.begin(), index.by_name.end(), slab_index,
      [this](std::uint32_t a, std::uint32_t b) {
        return group_name_less(slab_[a], slab_[b]);
      });
  index.by_name.insert(pos, slab_index);
  index.max_width = std::max(index.max_width, group.range.hi - group.range.lo);
  FOCUS_LOG(Debug, "dgm", "created group " << group.name);
  return group;
}

GroupSuggestion Dgm::suggest(NodeId node, Region region,
                             const net::Address& command_addr,
                             const AttributeSchema& attr, double value) {
  ++stats_.suggestions;
  obs::metrics().add(kSuggestions, 1);
  obs::metrics().add(kTransitions, 1);
  transition_[node] =
      TransitionEntry{command_addr, simulator_.now() + config_.transition_ttl};

  GroupKey key = group_for(attr, value);
  if (config_.geo_split_threshold > 0 && geo_split_active(attr.id, key.bucket_lo)) {
    key.region = region;
  }

  // Walk fork indices until a group with capacity is found (or created).
  for (int fork = 0;; ++fork) {
    // The walk terminates at the first unused index; needing more forks than
    // registered nodes means the capacity bookkeeping is corrupt.
    FOCUS_CHECK_LE(static_cast<std::size_t>(fork), registrar_.count() + 1)
        << "fork walk for " << key.attr << "." << key.bucket_lo
        << " ran past the fleet size";
    key.fork = fork;
    GroupInfo* existing = find_by_key(key);
    if (existing == nullptr) {
      GroupInfo& group = get_or_create(key, attr);
      group.members.set_pending(node, simulator_.now() + config_.transition_ttl);
      GroupSuggestion suggestion;
      suggestion.attr = attr.id;
      suggestion.group = group.name;
      suggestion.range = group.range;
      // No entry points: the node starts the group and reports back.
      return suggestion;
    }
    GroupInfo& group = *existing;
    const bool full = static_cast<int>(group.effective_size(simulator_.now())) >=
                      config_.fork_threshold;
    if (!group.accepting || full) continue;

    group.members.set_pending(node, simulator_.now() + config_.transition_ttl);
    GroupSuggestion suggestion;
    suggestion.attr = attr.id;
    suggestion.group = group.name;
    suggestion.range = group.range;
    std::vector<net::Address> points;
    points.reserve(group.members.size());
    group.members.for_each_member([&](const MemberTable::Slot& slot) {
      if (!(slot.node == node)) points.push_back(slot.p2p_addr);
    });
    suggestion.entry_points = rng_.sample(points, kMaxEntryPoints);
    return suggestion;
  }
}

void Dgm::on_joined(const JoinedPayload& joined) {
  auto key = GroupKey::parse(joined.group);
  if (!key) {
    FOCUS_LOG(Warn, "dgm", "joined unparseable group " << joined.group);
    return;
  }
  const AttributeSchema* attr = config_.schema.find(key->attr);
  if (attr == nullptr) return;
  GroupInfo& group = get_or_create(*key, *attr);
  group.members.confirm(
      MemberRecord{joined.node, joined.p2p_addr, joined.region},
      simulator_.now());
  group.members.clear_pending(joined.node);

  // Bootstrap-race healing: two nodes registering concurrently can both be
  // told to *start* the same group, producing disconnected gossip islands.
  // Whenever a join lands in a group that already has other members, send
  // the joiner a merge suggestion pointing at them; a gossip join into the
  // existing mesh unifies the islands.
  if (group.members.size() >= 2) {
    const NodeEntry* entry = registrar_.find(joined.node);
    if (entry != nullptr) {
      auto ack = std::make_shared<SuggestAckPayload>();
      ack->suggestion.attr = group.key.attr;
      ack->suggestion.group = group.name;
      ack->suggestion.range = group.range;
      std::vector<net::Address> points;
      group.members.for_each_member([&](const MemberTable::Slot& slot) {
        if (!(slot.node == joined.node)) points.push_back(slot.p2p_addr);
      });
      ack->suggestion.entry_points = rng_.sample(points, kMaxEntryPoints);
      transport_.send(net::Message{south_addr_, entry->command_addr, kSuggestAck,
                                   std::move(ack)});
    }
  }
  ensure_reps(group);
  update_policies(group);
}

void Dgm::on_left(const LeftGroupPayload& left) {
  auto key = GroupKey::parse(left.group);
  if (!key) return;
  GroupInfo* found = find_by_key(*key);
  if (found == nullptr) return;
  GroupInfo& group = *found;
  group.members.erase(left.node);
  std::erase(group.reps, left.node);
  ensure_reps(group);
  update_policies(group);
}

void Dgm::on_report(const GroupReportPayload& report) {
  ++stats_.reports_processed;
  obs::metrics().add(kReportsProcessed, 1);
  auto key = GroupKey::parse(report.group);
  if (!key) return;
  const AttributeSchema* attr = config_.schema.find(key->attr);
  if (attr == nullptr) return;
  GroupInfo& group = get_or_create(*key, *attr);

  const SimTime now = simulator_.now();
  if (report.full) {
    // A full report is authoritative, except for members confirmed recently
    // via another path (join / other rep): a new joiner may not have reached
    // this representative's gossip view yet.
    group.members.full_merge(report.members, now, 3 * config_.report_interval);
  } else {
    for (const auto& rec : report.members) group.members.confirm(rec, now);
    for (const auto& node : report.departed) group.members.unconfirm(node);
  }
  group.last_report = now;

  // A node appearing in a group update is no longer transitioning (§VII).
  for (const auto& rec : report.members) {
    transition_.erase(rec.node);
    group.members.clear_pending(rec.node);
  }

  // Representatives that are no longer members lose the role.
  std::erase_if(group.reps, [&group](NodeId id) {
    return !group.members.contains(id);
  });
  ensure_reps(group);
  update_policies(group);
  persist_group(group);
}

void Dgm::update_policies(GroupInfo& group) {
  const auto size = static_cast<int>(group.members.size());
  if (group.accepting && size > config_.fork_threshold) {
    group.accepting = false;
    FOCUS_LOG(Debug, "dgm", "group " << group.name << " full at " << size);
  } else if (!group.accepting &&
             size < static_cast<int>(kReopenFraction *
                                     static_cast<double>(config_.fork_threshold))) {
    group.accepting = true;
  }

  if (config_.geo_split_threshold > 0 && !group.key.region &&
      size > config_.geo_split_threshold && group.regions().size() > 1) {
    const auto bucket =
        std::make_pair(group.key.attr.value(), group.key.bucket_lo);
    if (geo_split_buckets_.insert(bucket).second) {
      ++stats_.geo_splits;
      obs::metrics().add(kGeoSplits, 1);
      FOCUS_LOG(Info, "dgm", "geo-splitting bucket " << group.name);
    }
  }
}

void Dgm::ensure_reps(GroupInfo& group) {
  if (group.members.empty()) {
    group.reps.clear();
    return;
  }
  while (static_cast<int>(group.reps.size()) < config_.representatives_per_group &&
         group.reps.size() < group.members.size()) {
    // Random member that is not already a representative — randomized
    // selection spreads the reporting load (§VII).
    std::vector<NodeId> eligible;
    group.members.for_each_member([&](const MemberTable::Slot& slot) {
      if (std::find(group.reps.begin(), group.reps.end(), slot.node) ==
          group.reps.end()) {
        eligible.push_back(slot.node);
      }
    });
    if (eligible.empty()) break;
    const NodeId chosen = rng_.pick(eligible);
    group.reps.push_back(chosen);
    send_rep_assign(group, chosen, true);
  }
}

void Dgm::send_rep_assign(const GroupInfo& group, NodeId node, bool assign) {
  const NodeEntry* entry = registrar_.find(node);
  if (entry == nullptr) return;
  auto payload = std::make_shared<RepAssignPayload>();
  payload->group = group.name;
  payload->assign = assign;
  transport_.send(
      net::Message{south_addr_, entry->command_addr, kRepAssign, std::move(payload)});
  ++stats_.rep_assignments;
  obs::metrics().add(kRepAssignments, 1);
}

void Dgm::persist_group(const GroupInfo& group) {
  std::map<std::string, Json> columns;
  columns["size"] = static_cast<double>(group.members.size());
  columns["range_lo"] = group.range.lo;
  columns["range_hi"] = group.range.hi;
  Json members = Json::array();
  group.members.for_each_member([&members](const MemberTable::Slot& slot) {
    Json m = Json::object();
    m["node"] = focus::to_string(slot.node);
    m["port"] = static_cast<double>(slot.p2p_addr.port);
    m["region"] = focus::to_string(slot.region);
    members.push_back(std::move(m));
  });
  columns["members"] = std::move(members);
  store_.put("groups", group.name, std::move(columns), [](Result<bool> r) {
    if (!r.ok()) {
      FOCUS_LOG(Warn, "dgm", "group persist failed: " << r.error().message);
    }
  });
}

FOCUS_HOT Dgm::Candidates Dgm::candidate_groups(
    const QueryTerm& term, std::optional<Region> location) const {
  Candidates out;
  const std::uint16_t attr = term.attr.value();
  if (attr >= attr_index_.size()) return out;
  const AttrIndex& index = attr_index_[attr];
  // Range-scan only the buckets that can intersect [lower, upper]. The scan
  // starts max_width below `lower` (bucket widths vary when cutoffs are
  // retuned); GroupRange::intersects stays the authoritative filter, so the
  // selected set is exactly what the old full-table scan produced.
  const auto keep = [&](const GroupInfo& group) {
    if (group.members.empty()) return false;
    if (!group.range.intersects(term.lower, term.upper)) return false;
    // Geo-scoped groups outside the requested location cannot match;
    // global groups may still contain in-location nodes, so they stay in.
    if (location && group.key.region && *group.key.region != *location) {
      return false;
    }
    return true;
  };

  auto it = index.buckets.lower_bound(term.lower - index.max_width);
  std::size_t buckets_visited = 0;
  for (; it != index.buckets.end() && it->first <= term.upper; ++it) {
    if (++buckets_visited > kWideScanBuckets) break;
    for (const std::uint32_t slab_index : it->second.groups) {
      const GroupInfo& group = slab_[slab_index];
      if (!keep(group)) continue;
      out.groups.push_back(&group);
      out.total_members += group.members.size();
    }
  }
  if (it != index.buckets.end() && it->first <= term.upper) {
    // Wide term: most buckets intersect, so filtering the attribute's
    // name-ordered list beats scanning buckets and re-sorting. Same selected
    // set, already in final order.
    out.groups.clear();
    out.total_members = 0;
    for (const std::uint32_t slab_index : index.by_name) {
      const GroupInfo& group = slab_[slab_index];
      if (!keep(group)) continue;
      out.groups.push_back(&group);
      out.total_members += group.members.size();
    }
    return out;
  }
  // Restore name-lexicographic order (the old std::map scan order, which
  // downstream RNG picks and send sequences depend on). The fixed-width
  // prefix keys make this a memcmp sort; the full-string fallback only runs
  // for names sharing an identical 32-byte prefix.
  std::sort(out.groups.begin(), out.groups.end(),
            [](const GroupInfo* a, const GroupInfo* b) {
              return group_name_less(*a, *b);
            });
  return out;
}

std::vector<Dgm::TransitionView> Dgm::transition_entries() const {
  std::vector<TransitionView> out;
  out.reserve(transition_.size());
  // focus-lint: order-independent(dgm-transition-snapshot)
  for (const auto& [node, entry] : transition_) {
    out.push_back(TransitionView{node, entry.command_addr, entry.expires_at});
  }
  std::sort(out.begin(), out.end(),
            [](const TransitionView& a, const TransitionView& b) {
              return a.node < b.node;
            });
  return out;
}

std::vector<std::pair<NodeId, net::Address>> Dgm::transition_nodes() const {
  std::vector<std::pair<NodeId, net::Address>> out;
  out.reserve(transition_.size());
  // focus-lint: order-independent(dgm-transition-snapshot)
  for (const auto& [node, entry] : transition_) {
    out.emplace_back(node, entry.command_addr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Dgm::maintenance() {
  const SimTime now = simulator_.now();
  std::erase_if(transition_,
                [now](const auto& kv) { return kv.second.expires_at <= now; });
  for (GroupInfo& group : slab_) group.members.expire_pending(now);

  // Representatives whose reports went stale are replaced (churn handling,
  // §VII: "In a group that has a high churn rate, more representative nodes
  // and/or more frequent updates are required"). Name order: rep replacement
  // draws from the RNG and emits messages, both digest-relevant.
  for (const auto& [name, index] : by_name_) {
    GroupInfo& group = slab_[index];
    if (group.members.empty()) continue;
    if (group.last_report < 0 ||
        now - group.last_report <= config_.representative_ttl) {
      continue;
    }
    for (NodeId rep : group.reps) send_rep_assign(group, rep, false);
    group.reps.clear();
    ensure_reps(group);
    group.last_report = now;  // give the new reps a full TTL to report
  }
}

void Dgm::clear_state() {
  slab_.clear();
  by_id_.clear();
  by_name_.clear();
  attr_index_.clear();
  transition_.clear();
  geo_split_buckets_.clear();
}

const Dgm::GroupInfo* Dgm::group(const std::string& name) const {
  const auto it = by_name_.find(std::string_view(name));
  return it == by_name_.end() ? nullptr : &slab_[it->second];
}

const Dgm::GroupInfo* Dgm::group_by_id(GroupId gid) const {
  const std::uint32_t index = by_id_.find(gid.bits);
  return index == IdIndex::kNone ? nullptr : &slab_[index];
}

std::vector<Dgm::BucketView> Dgm::bucket_index() const {
  std::vector<BucketView> out;
  for (std::size_t attr = 0; attr < attr_index_.size(); ++attr) {
    for (const auto& [bucket_lo, entry] : attr_index_[attr].buckets) {
      BucketView view;
      view.attr = AttrId();
      // Recover the id from its value: groups in the bucket carry the key.
      view.bucket_lo = bucket_lo;
      view.code = entry.code;
      view.groups.reserve(entry.groups.size());
      for (const std::uint32_t slab_index : entry.groups) {
        view.groups.push_back(&slab_[slab_index]);
        view.attr = slab_[slab_index].key.attr;
      }
      out.push_back(std::move(view));
    }
  }
  return out;
}

double Dgm::mean_group_size() const {
  std::size_t total = 0;
  std::size_t populated = 0;
  for (const GroupInfo& group : slab_) {
    if (group.members.empty()) continue;
    total += group.members.size();
    ++populated;
  }
  return populated == 0 ? 0.0
                        : static_cast<double>(total) / static_cast<double>(populated);
}

}  // namespace focus::core
