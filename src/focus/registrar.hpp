#pragma once
// The Registrar (§VIII-A-1): accepts node registrations, maintains the node
// directory, and persists static attribute tables to the data store using
// the paper's layout (one table per static attribute; each row additionally
// carries the node's other attributes so multi-attribute static queries can
// be answered from a single table).

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "focus/config.hpp"
#include "focus/query.hpp"
#include "net/message.hpp"
#include "store/kvstore.hpp"

namespace focus::core {

/// Directory entry for a registered node.
struct NodeEntry {
  NodeId node;
  Region region = Region::AppEdge;
  net::Address command_addr;  ///< node-manager port for commands/queries
  StaticValueMap static_values;
  SimTime registered_at = 0;
};

/// Node registration and the static-attribute primary tables.
class Registrar {
 public:
  Registrar(sim::Simulator& simulator, store::Cluster& store,
            const ServiceConfig& config);

  /// Register (or re-register) a node. Persists static attribute rows to the
  /// data store asynchronously. Returns the number of store writes issued
  /// (the service charges CPU per write).
  int register_node(const NodeState& state, const net::Address& command_addr);

  /// Remove a node from the directory and its static tables.
  int deregister(NodeId node);

  /// Directory lookup; nullptr when unknown.
  const NodeEntry* find(NodeId node) const;

  /// Full directory (used by the DGM for command addresses).
  const std::unordered_map<NodeId, NodeEntry>& directory() const noexcept {
    return nodes_;
  }

  /// Nodes matching the static and location terms of `query` (dynamic terms
  /// ignored — callers route those to groups). Served from the primary
  /// in-memory tables, which mirror the store.
  std::vector<const NodeEntry*> match_static(const Query& query) const;

  /// Registered node count.
  std::size_t count() const noexcept { return nodes_.size(); }

  /// Rows of one primary static-attribute table (node -> value); nullptr
  /// when no node ever registered that attribute. Mirrors the store.
  const std::map<NodeId, std::string>* static_table(AttrId attr) const;

  /// Visit every primary table in attribute-name order (the old
  /// std::map<std::string, …> iteration order) with
  /// fn(AttrId, const std::map<NodeId, std::string>& rows). Audit support.
  template <typename Fn>
  void for_each_static_table(Fn&& fn) const {
    std::vector<const StaticTable*> present;
    for (const StaticTable& table : tables_) {
      if (table.attr) present.push_back(&table);
    }
    std::sort(present.begin(), present.end(),
              [](const StaticTable* a, const StaticTable* b) {
                return a->attr.name() < b->attr.name();
              });
    for (const StaticTable* table : present) fn(table->attr, table->rows);
  }

  /// Name of the static-attribute table with the fewest rows among the
  /// query's static terms (the paper queries the smallest table). Empty when
  /// the query has no static terms. Served from memoized table names.
  std::string smallest_static_table(const Query& query) const;

 private:
  /// One primary table, slotted by AttrId::value(); `attr` is unset for
  /// ids this registrar never saw. The store-facing name ("attr_<name>")
  /// is memoized at creation so writes never rebuild it.
  struct StaticTable {
    AttrId attr;
    std::string table;
    std::map<NodeId, std::string> rows;
  };

  StaticTable& table_for(AttrId attr);
  const StaticTable* find_table(AttrId attr) const;

  sim::Simulator& simulator_;
  store::Cluster& store_;
  const ServiceConfig& config_;
  std::unordered_map<NodeId, NodeEntry> nodes_;
  /// Primary tables indexed by interned attribute id (mirrors the store).
  std::vector<StaticTable> tables_;
};

}  // namespace focus::core
