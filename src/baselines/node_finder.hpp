#pragma once
// Common interface and wire payloads for the node-finding baselines the paper
// compares against (§III, Fig. 2, Fig. 7a): naive push, naive pull,
// aggregating hierarchy, sub-setting hierarchy, and RabbitMQ pub / sub.

#include <functional>
#include <string>
#include <vector>

#include "agent/resources.hpp"
#include "common/result.hpp"
#include "focus/messages.hpp"
#include "focus/query.hpp"
#include "net/message.hpp"

namespace focus::baselines {

/// A simulated end node visible to a baseline: identity, placement, and the
/// live resource model whose state it pushes / serves.
struct SimNode {
  NodeId id;
  Region region = Region::AppEdge;
  agent::ResourceModel* model = nullptr;
};

/// Baseline tunables. Defaults mirror the paper's Fig. 7a workload: one
/// state update per second, ~1 KB full-state messages (§III-A), 16 managers
/// for the hierarchies (§X-B footnote).
struct BaselineConfig {
  Duration push_interval = 1 * kSecond;
  std::size_t state_bytes = 1024;  ///< padded full-state message size
  Duration pull_timeout = 2 * kSecond;
  int num_managers = 16;
  Duration manager_flush = 1 * kSecond;  ///< aggregator batch forward period
};

/// Interface every node-finding system implements (FOCUS included, via an
/// adapter in the harness): answer "which nodes match this query".
class NodeFinder {
 public:
  using Callback = std::function<void(Result<core::QueryResult>)>;

  virtual ~NodeFinder() = default;

  /// Execute the query; the callback fires exactly once.
  virtual void find(const core::Query& query, Callback cb) = 0;

  /// The node whose traffic counts as "the query server" (Fig. 7a).
  virtual NodeId server_node() const = 0;

  /// The node holding the finder's request-side state: find() must be
  /// called from its kernel. Baselines keep that state on their server.
  virtual NodeId home_node() const { return server_node(); }

  /// Human-readable system name for reports.
  virtual std::string name() const = 0;
};

// ---------------------------------------------------------------------------
// Shared wire payloads

/// A node's full status message. Real systems push a full JSON status blob
/// (~1 KB in OpenStack, §III-A); `padded_bytes` models that fixed size.
struct StatePushPayload final : net::Payload {
  core::NodeState state;
  std::size_t padded_bytes = 1024;

  std::size_t wire_size() const override {
    const std::size_t actual = core::wire_size_of(state);
    return actual > padded_bytes ? actual : padded_bytes;
  }
};

/// Small application-level acknowledgement (HTTP 200-ish).
struct AckPayload final : net::Payload {
  std::size_t wire_size() const override { return 100; }
};

/// Server -> node: send me your current state.
struct PullRequestPayload final : net::Payload {
  std::uint64_t id = 0;

  std::size_t wire_size() const override { return 40; }
};

/// Node -> server: full state in response to a pull.
struct PullResponsePayload final : net::Payload {
  std::uint64_t id = 0;
  core::NodeState state;
  std::size_t padded_bytes = 1024;

  std::size_t wire_size() const override {
    const std::size_t actual = 8 + core::wire_size_of(state);
    return actual > padded_bytes ? actual : padded_bytes;
  }
};

/// Aggregator -> server: a batch of node states (same bytes as the
/// individual pushes, fewer messages — §III-B "Aggregating").
struct AggregateBatchPayload final : net::Payload {
  std::vector<core::NodeState> states;
  std::size_t padded_bytes_each = 1024;

  std::size_t wire_size() const override {
    return 16 + states.size() * padded_bytes_each;
  }
};

/// Server -> subset manager: evaluate this query over your subset.
struct SubsetQueryPayload final : net::Payload {
  std::uint64_t id = 0;
  core::Query query;

  std::size_t wire_size() const override { return 12 + core::wire_size_of(query); }
};

/// Subset manager -> server: the matching nodes' full states.
struct SubsetResponsePayload final : net::Payload {
  std::uint64_t id = 0;
  std::vector<core::NodeState> matches;
  std::size_t padded_bytes_each = 1024;

  std::size_t wire_size() const override {
    return 16 + matches.size() * padded_bytes_each;
  }
};

/// Query broadcast through the message queue (sub mode).
struct MqQueryPayload final : net::Payload {
  std::uint64_t id = 0;
  core::Query query;

  std::size_t wire_size() const override { return 12 + core::wire_size_of(query); }
};

/// Node response through the message queue (sub mode): the padded full
/// state plus a response envelope (query id echo, routing headers).
struct MqResponsePayload final : net::Payload {
  std::uint64_t id = 0;
  core::NodeState state;
  std::size_t padded_bytes = 1024;

  std::size_t wire_size() const override {
    const std::size_t state_bytes = core::wire_size_of(state);
    return 48 + (state_bytes > padded_bytes ? state_bytes : padded_bytes);
  }
};

/// Filter helper shared by the baselines: all nodes whose live state matches.
std::vector<core::ResultEntry> filter_states(
    const std::vector<std::pair<NodeId, core::NodeState>>& states,
    const core::Query& query);

}  // namespace focus::baselines
