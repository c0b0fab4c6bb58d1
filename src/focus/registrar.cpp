#include "focus/registrar.hpp"

#include <limits>

#include "common/logging.hpp"

namespace focus::core {

Registrar::Registrar(sim::Simulator& simulator, store::Cluster& store,
                     const ServiceConfig& config)
    : simulator_(simulator), store_(store), config_(config) {}

Registrar::StaticTable& Registrar::table_for(AttrId attr) {
  const std::size_t index = attr.value();
  if (index >= tables_.size()) tables_.resize(index + 1);
  StaticTable& table = tables_[index];
  if (!table.attr) {
    table.attr = attr;
    table.table = "attr_";
    table.table += attr.name();
  }
  return table;
}

const Registrar::StaticTable* Registrar::find_table(AttrId attr) const {
  const std::size_t index = attr.value();
  if (index >= tables_.size() || !tables_[index].attr) return nullptr;
  return &tables_[index];
}

int Registrar::register_node(const NodeState& state,
                             const net::Address& command_addr) {
  int writes = 0;
  const std::string key = focus::to_string(state.node);

  // Re-registration may drop static attributes; retire the orphaned rows so
  // the primary tables keep mirroring the directory exactly (the structural
  // audit verifies this bijection).
  if (auto prev = nodes_.find(state.node); prev != nodes_.end()) {
    for (const auto& [attr, value] : prev->second.static_values) {
      if (state.static_values.count(attr) > 0) continue;
      StaticTable& table = table_for(attr);
      table.rows.erase(state.node);
      store_.erase(table.table, key, [](Result<bool>) {});
      ++writes;
    }
  }

  NodeEntry entry;
  entry.node = state.node;
  entry.region = state.region;
  entry.command_addr = command_addr;
  entry.static_values = state.static_values;
  entry.registered_at = simulator_.now();
  nodes_[state.node] = entry;

  // "nodes" table: one row per node with its command address and region.
  {
    std::map<std::string, Json> columns;
    columns["region"] = focus::to_string(state.region);
    columns["command_port"] = static_cast<double>(command_addr.port);
    store_.put("nodes", key, std::move(columns), [](Result<bool> r) {
      if (!r.ok()) {
        FOCUS_LOG(Warn, "registrar", "node row write failed: " << r.error().message);
      }
    });
    ++writes;
  }

  // Per-static-attribute tables, each row also carrying the node's other
  // static attributes (the paper's single-table multi-attribute trick).
  // StaticValueMap iterates in attribute-name order, so the store-write
  // sequence matches the old std::map walk exactly.
  for (const auto& [attr, value] : state.static_values) {
    StaticTable& table = table_for(attr);
    table.rows[state.node] = value;

    std::map<std::string, Json> columns;
    columns["value"] = value;
    Json others = Json::object();
    for (const auto& [other_attr, other_value] : state.static_values) {
      if (!(other_attr == attr)) {
        others[std::string(other_attr.name())] = other_value;
      }
    }
    columns["attributes"] = std::move(others);
    store_.put(table.table, key, std::move(columns), [](Result<bool> r) {
      if (!r.ok()) {
        FOCUS_LOG(Warn, "registrar", "attr row write failed: " << r.error().message);
      }
    });
    ++writes;
  }
  return writes;
}

int Registrar::deregister(NodeId node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return 0;
  int writes = 0;
  const std::string key = focus::to_string(node);
  for (const auto& [attr, value] : it->second.static_values) {
    StaticTable& table = table_for(attr);
    table.rows.erase(node);
    store_.erase(table.table, key, [](Result<bool>) {});
    ++writes;
  }
  store_.erase("nodes", key, [](Result<bool>) {});
  ++writes;
  nodes_.erase(it);
  return writes;
}

const NodeEntry* Registrar::find(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

const std::map<NodeId, std::string>* Registrar::static_table(AttrId attr) const {
  const StaticTable* table = find_table(attr);
  return table == nullptr ? nullptr : &table->rows;
}

std::vector<const NodeEntry*> Registrar::match_static(const Query& query) const {
  std::vector<const NodeEntry*> out;
  for (const auto& [id, entry] : nodes_) {
    if (query.location && entry.region != *query.location) continue;
    bool ok = true;
    for (const auto& term : query.static_terms) {
      const std::string* value = entry.static_values.find(term.attr);
      if (value == nullptr || *value != term.value) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(&entry);
  }
  return out;
}

std::string Registrar::smallest_static_table(const Query& query) const {
  std::string best;
  std::size_t best_size = std::numeric_limits<std::size_t>::max();
  for (const auto& term : query.static_terms) {
    const StaticTable* table = find_table(term.attr);
    const std::size_t size = table == nullptr ? 0 : table->rows.size();
    if (size < best_size) {
      best_size = size;
      if (table != nullptr) {
        best = table->table;
      } else {
        best = "attr_";
        best += term.attr.name();
      }
    }
  }
  return best;
}

}  // namespace focus::core
