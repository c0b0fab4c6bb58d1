#include "focus/audit.hpp"

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "focus/dgm.hpp"
#include "focus/group_naming.hpp"
#include "focus/registrar.hpp"
#include "focus/service.hpp"
#include "gossip/swim.hpp"
#include "sim/simulator.hpp"

namespace focus::core {

namespace {

/// Transition entries may outlive their expiry until the next DGM
/// maintenance sweep (Service arms one every second); allow that much lag
/// before calling a lingering entry a violation.
constexpr Duration kMaintenanceSlack = 2 * kSecond;

/// Builder that counts predicates and collects failures.
class Checker {
 public:
  explicit Checker(AuditReport& report) : report_(report) {}

  /// Evaluate one predicate; on failure record `invariant` with the detail
  /// text produced by `detail` (lazily, so passing checks cost nothing).
  template <typename DetailFn>
  void expect(bool ok, const char* invariant, DetailFn&& detail) {
    ++report_.checks_run;
    if (ok) return;
    std::ostringstream os;
    detail(os);
    report_.violations.push_back(AuditViolation{invariant, os.str()});
  }

 private:
  AuditReport& report_;
};

/// The longest a node may legitimately appear in two groups of one dynamic
/// attribute: its transition TTL (old membership kept queryable) plus the
/// report-merge grace during which a full report cannot evict it.
Duration churn_grace(const ServiceConfig& config) {
  return config.transition_ttl + 3 * config.report_interval;
}

}  // namespace

void AuditReport::merge(AuditReport other) {
  checks_run += other.checks_run;
  for (auto& violation : other.violations) {
    violations.push_back(std::move(violation));
  }
}

std::string AuditReport::to_string() const {
  if (ok()) return {};
  std::ostringstream os;
  os << violations.size() << " invariant violation(s) in " << checks_run
     << " checks:";
  for (const auto& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

AuditReport audit_groups(const Dgm& dgm, const Registrar& registrar,
                         const ServiceConfig& config, SimTime now) {
  AuditReport report;
  Checker check(report);

  // attr -> node -> groups containing the node as a confirmed member.
  // Name-ordered (AttrNameLess) so violation output stays deterministic.
  std::map<AttrId, std::map<NodeId, std::vector<const Dgm::GroupInfo*>>,
           AttrNameLess>
      membership;

  dgm.for_each_group([&](const Dgm::GroupInfo& group) {
    const std::string& name = group.name;
    // --- group-naming: name, key, and range agree with the deterministic
    // naming scheme; the interned attribute id round-trips through its name.
    const auto parsed = GroupKey::parse(name);
    check.expect(parsed.has_value(), "group-naming",
                 [&](std::ostream& os) { os << "unparseable group name " << name; });
    if (parsed) {
      check.expect(*parsed == group.key, "group-naming", [&](std::ostream& os) {
        os << "group " << name << " key does not round-trip through its name";
      });
    }
    check.expect(group.key.to_name() == name, "group-naming",
                 [&](std::ostream& os) {
                   os << "group indexed as " << name << " renders as "
                      << group.key.to_name();
                 });
    check.expect(AttrId(group.key.attr.name()) == group.key.attr, "attr-intern",
                 [&](std::ostream& os) {
                   os << "attribute id " << group.key.attr.value()
                      << " does not round-trip through its name "
                      << group.key.attr;
                 });
    const AttributeSchema* attr = config.schema.find(group.key.attr);
    check.expect(attr != nullptr, "group-naming", [&](std::ostream& os) {
      os << "group " << name << " references unknown attribute " << group.key.attr;
    });
    if (attr != nullptr) {
      const GroupRange expected = range_of(group.key, *attr);
      check.expect(group.range == expected, "group-naming", [&](std::ostream& os) {
        os << "group " << name << " range [" << group.range.lo << ", "
           << group.range.hi << ") disagrees with bucket boundaries ["
           << expected.lo << ", " << expected.hi << ")";
      });
    }

    // --- group-structure: reps are members, geo scope holds, timestamps sane.
    for (NodeId rep : group.reps) {
      check.expect(group.members.count(rep) > 0, "group-structure",
                   [&](std::ostream& os) {
                     os << "representative " << focus::to_string(rep)
                        << " of group " << name << " is not a member";
                   });
    }
    check.expect(group.created_at <= now, "group-structure", [&](std::ostream& os) {
      os << "group " << name << " created_at " << group.created_at
         << " is in the future (now " << now << ")";
    });
    check.expect(group.last_report <= now, "group-structure",
                 [&](std::ostream& os) {
                   os << "group " << name << " last_report " << group.last_report
                      << " is in the future (now " << now << ")";
                 });
    group.members.for_each_member([&](const MemberTable::Slot& slot) {
      check.expect(slot.seen <= now, "group-structure", [&](std::ostream& os) {
        os << "group " << name << " member " << focus::to_string(slot.node)
           << " seen at future time " << slot.seen;
      });
    });
    if (group.key.region) {
      group.members.for_each_member([&](const MemberTable::Slot& slot) {
        check.expect(slot.region == *group.key.region, "group-structure",
                     [&](std::ostream& os) {
                       os << "geo group " << name << " holds member "
                          << focus::to_string(slot.node) << " from region "
                          << focus::to_string(slot.region);
                     });
      });
    }

    // --- member-table: the cached confirmed count is exactly the number of
    // confirmed slots, pending-only slots carry a live steering, and slots
    // stay NodeId-sorted (the order RNG sampling relies on).
    std::size_t confirmed = 0;
    const MemberTable::Slot* prev = nullptr;
    for (const auto& slot : group.members) {
      if (slot.confirmed) ++confirmed;
      check.expect(slot.confirmed || slot.pending_until > 0, "member-table",
                   [&](std::ostream& os) {
                     os << "group " << name << " slot "
                        << focus::to_string(slot.node)
                        << " is neither confirmed nor pending";
                   });
      if (prev != nullptr) {
        check.expect(prev->node < slot.node, "member-table",
                     [&](std::ostream& os) {
                       os << "group " << name << " member slots out of order at "
                          << focus::to_string(slot.node);
                     });
      }
      prev = &slot;
    }
    check.expect(confirmed == group.members.size(), "member-table",
                 [&](std::ostream& os) {
                   os << "group " << name << " caches " << group.members.size()
                      << " confirmed members but holds " << confirmed;
                 });

    // --- group-index: both lookup paths resolve this group to itself.
    check.expect(dgm.group(name) == &group, "group-index",
                 [&](std::ostream& os) {
                   os << "name lookup for " << name
                      << " resolves to a different group";
                 });
    check.expect(dgm.group_by_id(group.gid) == &group, "group-index",
                 [&](std::ostream& os) {
                   os << "id lookup for " << name
                      << " resolves to a different group";
                 });

    group.members.for_each_member([&](const MemberTable::Slot& slot) {
      membership[group.key.attr][slot.node].push_back(&group);
    });
  });

  // --- bucket-index: the per-attribute bucket index is an exact mirror of
  // the group table — every group appears exactly once, under its own
  // attribute and bucket, and the scan order covers all of them.
  {
    std::set<const Dgm::GroupInfo*> indexed;
    std::size_t indexed_count = 0;
    for (const auto& bucket : dgm.bucket_index()) {
      for (const Dgm::GroupInfo* group : bucket.groups) {
        ++indexed_count;
        indexed.insert(group);
        check.expect(group->key.attr == bucket.attr, "bucket-index",
                     [&](std::ostream& os) {
                       os << "group " << group->name
                          << " indexed under attribute " << bucket.attr;
                     });
        check.expect(group->key.bucket_lo == bucket.bucket_lo, "bucket-index",
                     [&](std::ostream& os) {
                       os << "group " << group->name << " indexed under bucket "
                          << bucket.bucket_lo;
                     });
      }
    }
    check.expect(indexed.size() == indexed_count, "bucket-index",
                 [&](std::ostream& os) {
                   os << "bucket index holds duplicate group entries ("
                      << indexed_count << " entries, " << indexed.size()
                      << " distinct)";
                 });
    check.expect(indexed.size() == dgm.group_count(), "bucket-index",
                 [&](std::ostream& os) {
                   os << "bucket index covers " << indexed.size() << " of "
                      << dgm.group_count() << " groups";
                 });
  }

  // --- group-membership: at most one group per (dynamic attribute, node),
  // with duplicates tolerated only while the node is demonstrably mid-churn.
  std::set<NodeId> transitioning;
  for (const auto& entry : dgm.transition_entries()) {
    transitioning.insert(entry.node);
  }
  const Duration grace = churn_grace(config);
  for (const auto& [attr, nodes] : membership) {
    for (const auto& [id, containing] : nodes) {
      if (containing.size() <= 1) {
        ++report.checks_run;
        continue;
      }
      // Mid-churn iff the node is in the transition table or joined one of
      // the duplicated groups within the churn grace window.
      bool recent_join = false;
      for (const Dgm::GroupInfo* group : containing) {
        const auto* slot = group->members.find(id);
        if (slot != nullptr && slot->confirmed && now - slot->joined <= grace) {
          recent_join = true;
          break;
        }
      }
      check.expect(transitioning.count(id) > 0 || recent_join,
                   "group-membership", [&](std::ostream& os) {
                     os << focus::to_string(id) << " is a settled member of "
                        << containing.size() << " groups of attribute " << attr
                        << ":";
                     for (const Dgm::GroupInfo* g : containing) os << " " << g->name;
                   });
    }
  }

  // --- transition-table: every transitioning node stays findable — present
  // in the directory (directly queryable at its command address) or still a
  // member/pending member of some group — and entries expire on schedule.
  for (const auto& entry : dgm.transition_entries()) {
    const NodeEntry* directory_entry = registrar.find(entry.node);
    bool in_some_group = false;
    // Any slot counts: confirmed membership or a pending steering both keep
    // the node reachable through the group.
    dgm.for_each_group([&](const Dgm::GroupInfo& group) {
      if (group.members.find(entry.node) != nullptr) in_some_group = true;
    });
    check.expect(directory_entry != nullptr || in_some_group, "transition-table",
                 [&](std::ostream& os) {
                   os << focus::to_string(entry.node)
                      << " is in transition but unreachable: no directory entry"
                         " and no old/new group covers it";
                 });
    if (directory_entry != nullptr) {
      check.expect(directory_entry->command_addr == entry.command_addr,
                   "transition-table", [&](std::ostream& os) {
                     os << focus::to_string(entry.node)
                        << " transition command address disagrees with the"
                           " directory";
                   });
    }
    check.expect(entry.expires_at + kMaintenanceSlack >= now, "transition-table",
                 [&](std::ostream& os) {
                   os << focus::to_string(entry.node)
                      << " transition entry expired at " << entry.expires_at
                      << " but was not swept by " << now;
                 });
    check.expect(entry.expires_at <= now + config.transition_ttl,
                 "transition-table", [&](std::ostream& os) {
                   os << focus::to_string(entry.node)
                      << " transition entry expires at " << entry.expires_at
                      << ", beyond one TTL from now " << now;
                 });
  }

  return report;
}

AuditReport audit_registrar(const Registrar& registrar) {
  AuditReport report;
  Checker check(report);

  // Table -> directory: every row belongs to a registered node and carries
  // the value the directory holds.
  registrar.for_each_static_table(
      [&](AttrId attr, const std::map<NodeId, std::string>& rows) {
        check.expect(AttrId(attr.name()) == attr, "attr-intern",
                     [&](std::ostream& os) {
                       os << "table attribute id " << attr.value()
                          << " does not round-trip through its name " << attr;
                     });
        for (const auto& [id, value] : rows) {
          const NodeEntry* entry = registrar.find(id);
          check.expect(entry != nullptr, "registrar", [&](std::ostream& os) {
            os << "static table " << attr << " holds unregistered node "
               << focus::to_string(id);
          });
          if (entry == nullptr) continue;
          const std::string* held = entry->static_values.find(attr);
          check.expect(held != nullptr && *held == value, "registrar",
                       [&](std::ostream& os) {
                         os << "static table " << attr << " row for "
                            << focus::to_string(id)
                            << " disagrees with the directory";
                       });
        }
      });

  // Directory -> table: every declared static value has its row.
  for (const auto& [id, entry] : registrar.directory()) {
    for (const auto& [attr, value] : entry.static_values) {
      const std::map<NodeId, std::string>* rows = registrar.static_table(attr);
      const std::string* row = nullptr;
      if (rows != nullptr) {
        auto it = rows->find(id);
        if (it != rows->end()) row = &it->second;
      }
      check.expect(row != nullptr && *row == value, "registrar",
                   [&](std::ostream& os) {
                     os << focus::to_string(id) << " declares static " << attr
                        << " but the primary table row is missing or stale";
                   });
    }
  }

  return report;
}

AuditReport audit_cache(const QueryCache& cache, SimTime now) {
  AuditReport report;
  Checker check(report);

  check.expect(cache.capacity() == 0 || cache.size() <= cache.capacity(),
               "cache", [&](std::ostream& os) {
                 os << "cache holds " << cache.size() << " entries over capacity "
                    << cache.capacity();
               });
  cache.for_each([&](std::uint64_t hash, const QueryCache::Entry& entry) {
    check.expect(entry.fetched_at >= 0 && entry.fetched_at <= now, "cache",
                 [&](std::ostream& os) {
                   os << "cache entry " << hash << " fetched_at "
                      << entry.fetched_at << " outside [0, " << now << "]";
                 });
  });

  return report;
}

AuditReport audit_simulator(const sim::Simulator& simulator) {
  AuditReport report;
  Checker check(report);
  // next_event_time() is exact since the slab kernel (cancel removes queue
  // entries eagerly, so no lazily-tombstoned past entry can hide behind the
  // minimum): this monotonicity check now covers every queued event.
  check.expect(simulator.next_event_time() >= simulator.now(), "simulator",
               [&](std::ostream& os) {
                 os << "event queue holds an entry at "
                    << simulator.next_event_time() << ", before the clock "
                    << simulator.now();
               });
  check.expect(simulator.queue_consistent(), "simulator",
               [&](std::ostream& os) {
                 os << "kernel queue inconsistent: heap/slab indexing or the "
                       "heap ordering invariant is broken (pending "
                    << simulator.pending() << ")";
               });
  return report;
}

AuditReport audit_gossip(const gossip::GroupAgent& agent, SimTime now) {
  AuditReport report;
  Checker check(report);
  const gossip::Config& config = agent.config();

  // --- piggyback: one buffered assertion per node (add() replaces in
  // place), each holding a copy budget in (0, piggyback_copies]. A zero or
  // negative budget means take_into() failed to drop a spent entry; a budget
  // above the configured cap means an entry was queued outside queue_update.
  {
    std::set<NodeId> queued;
    agent.piggyback_buffer().for_each(
        [&](const gossip::MemberUpdate& update, int copies_left) {
          check.expect(copies_left > 0 && copies_left <= config.piggyback_copies,
                       "gossip", [&](std::ostream& os) {
                         os << "agent " << focus::to_string(agent.id())
                            << " piggyback entry for "
                            << focus::to_string(update.node) << " has copy budget "
                            << copies_left << " outside (0, "
                            << config.piggyback_copies << "]";
                       });
          check.expect(queued.insert(update.node).second, "gossip",
                       [&](std::ostream& os) {
                         os << "agent " << focus::to_string(agent.id())
                            << " piggybacks two assertions about "
                            << focus::to_string(update.node);
                       });
        });
  }

  // --- events: every buffered event has retransmission budget within the
  // configured cap and is recorded in the seen-set (add() registers ids
  // before buffering, so a pending-but-unseen event would be re-buffered on
  // redelivery and forwarded forever). A relayed event is buffered with the
  // full budget and the buffer drops entries that reach 0, so the valid range
  // is [1, event_retransmit_rounds].
  const gossip::EventBuffer& events = agent.event_buffer();
  events.for_each_pending([&](gossip::EventId id, int rounds_left) {
    check.expect(rounds_left >= 1 &&
                     rounds_left <= config.event_retransmit_rounds,
                 "gossip", [&](std::ostream& os) {
                   os << "agent " << focus::to_string(agent.id()) << " event "
                      << focus::to_string(id.origin) << "#" << id.seq << " has "
                      << rounds_left << " rounds left, outside [1, "
                      << config.event_retransmit_rounds << "]";
                 });
    check.expect(events.seen(id), "gossip", [&](std::ostream& os) {
      os << "agent " << focus::to_string(agent.id()) << " buffers event "
         << focus::to_string(id.origin) << "#" << id.seq
         << " that its seen-set does not record";
    });
  });
  check.expect(events.pending() <= events.seen_count(), "gossip",
               [&](std::ostream& os) {
                 os << "agent " << focus::to_string(agent.id()) << " buffers "
                    << events.pending() << " events but has only seen "
                    << events.seen_count();
               });

  // --- delta-sync: no cursor may lead the member epoch (a leading cursor
  // would make every future delta empty and wedge anti-entropy for the peer).
  agent.for_each_sync_cursor([&](NodeId peer, std::uint64_t epoch) {
    check.expect(epoch <= agent.member_epoch(), "gossip", [&](std::ostream& os) {
      os << "agent " << focus::to_string(agent.id()) << " sync cursor for "
         << focus::to_string(peer) << " at epoch " << epoch
         << " leads the member epoch " << agent.member_epoch();
    });
  });

  // --- member slab: per-member fields are sane, the id index round-trips,
  // and the cached alive view / gone counter agree with a fresh recount.
  const gossip::MemberTable& members = agent.members();
  std::size_t alive = 0;
  std::size_t gone = 0;
  members.for_each_slot([&](std::uint32_t slot) {
    const gossip::MemberState state = members.state(slot);
    const NodeId id = members.id(slot);
    if (gossip::MemberTable::is_alive(state)) ++alive;
    if (gossip::MemberTable::is_gone(state)) ++gone;
    check.expect(id != agent.id(), "gossip", [&](std::ostream& os) {
      os << "agent " << focus::to_string(agent.id())
         << " holds itself in its member table";
    });
    check.expect(members.since(slot) <= now, "gossip", [&](std::ostream& os) {
      os << "agent " << focus::to_string(agent.id()) << " member "
         << focus::to_string(id) << " changed at future time "
         << members.since(slot);
    });
    check.expect(members.changed_epoch(slot) <= agent.member_epoch(), "gossip",
                 [&](std::ostream& os) {
                   os << "agent " << focus::to_string(agent.id()) << " member "
                      << focus::to_string(id) << " changed at epoch "
                      << members.changed_epoch(slot)
                      << ", beyond the member epoch " << agent.member_epoch();
                 });
    // The id index must resolve every slot's id back to that slot — the SoA
    // columns and the open-addressing index stay in lockstep.
    check.expect(members.find_slot(id) == slot, "gossip",
                 [&](std::ostream& os) {
                   os << "agent " << focus::to_string(agent.id())
                      << " id index resolves " << focus::to_string(id)
                      << " to a different slot";
                 });
  });
  check.expect(members.gone() == gone, "gossip", [&](std::ostream& os) {
    os << "agent " << focus::to_string(agent.id()) << " counts "
       << members.gone() << " gone members but holds " << gone;
  });
  const auto& alive_slots = members.alive_slots();
  check.expect(alive_slots.size() == alive, "gossip", [&](std::ostream& os) {
    os << "agent " << focus::to_string(agent.id()) << " alive cache holds "
       << alive_slots.size() << " slots but " << alive << " members are alive";
  });
  for (std::uint32_t slot : alive_slots) {
    check.expect(slot < members.size() &&
                     gossip::MemberTable::is_alive(members.state(slot)),
                 "gossip", [&](std::ostream& os) {
                   os << "agent " << focus::to_string(agent.id())
                      << " alive cache points at slot " << slot
                      << " which is out of range or not alive";
                 });
  }

  return report;
}

AuditReport audit_service(const Service& service, const sim::Simulator& simulator) {
  const SimTime now = simulator.now();
  AuditReport report =
      audit_groups(service.dgm(), service.registrar(), service.config(), now);
  report.merge(audit_registrar(service.registrar()));
  report.merge(audit_cache(service.router().cache(), now));
  report.merge(audit_simulator(simulator));
  return report;
}

}  // namespace focus::core
