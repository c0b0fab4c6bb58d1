#pragma once
// The FOCUS service process: wires the Registrar, the Dynamic Groups Manager
// and the Query Router to the transport. Mirrors the paper's deployment
// (§VIII-A): the southbound API (nodes) and the northbound API (querying
// applications) are bound to different ports, and all durable state lives in
// the replicated data store.

#include <memory>

#include "focus/cost_model.hpp"
#include "focus/dgm.hpp"
#include "focus/query_router.hpp"
#include "focus/registrar.hpp"
#include "focus/views.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "store/kvstore.hpp"

namespace focus::core {

/// Port conventions of the service node.
inline constexpr std::uint16_t kSouthPort = 1;     ///< Registrar + DGM
inline constexpr std::uint16_t kNorthPort = 2;     ///< Query Router
inline constexpr std::uint16_t kInternalPort = 3;  ///< loopback (view seeding)

/// One FOCUS service instance.
class Service {
 public:
  Service(sim::Simulator& simulator, net::Transport& transport,
          store::Cluster& store, NodeId server_node, ServiceConfig config,
          ServerCostModel cost = {}, std::uint64_t seed = 0xf0c5);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Address node agents talk to (registration, suggestions, reports).
  const net::Address& south_addr() const noexcept { return south_addr_; }
  /// Address applications query.
  const net::Address& north_addr() const noexcept { return north_addr_; }
  /// The server's node id (for bandwidth accounting at the server).
  NodeId node() const noexcept { return south_addr_.node; }

  Registrar& registrar() noexcept { return *registrar_; }
  Dgm& dgm() noexcept { return *dgm_; }
  QueryRouter& router() noexcept { return *router_; }
  ViewManager& views() noexcept { return *views_; }
  const ViewManager& views() const noexcept { return *views_; }
  const Registrar& registrar() const noexcept { return *registrar_; }
  const Dgm& dgm() const noexcept { return *dgm_; }
  const QueryRouter& router() const noexcept { return *router_; }

  const ServiceConfig& config() const noexcept { return config_; }
  const ServerCostModel& cost_model() const noexcept { return cost_; }

  /// Accumulated CPU-microseconds of modelled server work.
  double busy_cpu_us() const noexcept { return busy_cpu_us_; }

  /// Modelled utilisation in [0,1] over a window (snapshot busy_cpu_us() at
  /// window start and pass it here at window end).
  double utilization(double window_start_busy_us, Duration window) const;

  /// Modelled resident RAM (Fig. 8a).
  double ram_gb() const;

  /// Simulate a DGM failover: wipe the primary group tables; representative
  /// reports repopulate them (§VIII-A-2).
  void restart_dgm();

 private:
  void on_south(const net::Message& msg);
  void on_north(const net::Message& msg);
  void handle_register(const net::Message& msg);
  void handle_suggest(const net::Message& msg);
  void on_internal(const net::Message& msg);
  /// Run a query through the router in-process (materialized-view seeding).
  void issue_internal_query(const Query& query, std::function<void(QueryResult)> cb);
  void charge(Duration cpu_us) { busy_cpu_us_ += static_cast<double>(cpu_us); }

  sim::Simulator& simulator_;
  net::Transport& transport_;
  ServiceConfig config_;
  ServerCostModel cost_;
  net::Address south_addr_;
  net::Address north_addr_;
  net::Address internal_addr_;
  std::unique_ptr<Registrar> registrar_;
  std::unique_ptr<Dgm> dgm_;
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<ViewManager> views_;
  std::unordered_map<std::uint64_t, std::function<void(QueryResult)>> internal_pending_;
  std::uint64_t internal_seq_ = 1;
  sim::TimerId maintenance_timer_ = 0;
  double busy_cpu_us_ = 0;
};

}  // namespace focus::core
