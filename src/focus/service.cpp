#include "focus/service.hpp"

#include <memory>

#include "obs/trace.hpp"

namespace focus::core {

namespace {
const obs::Name kSpanInternalQuery = obs::Name::intern("query.internal");
}  // namespace

Service::Service(sim::Simulator& simulator, net::Transport& transport,
                 store::Cluster& store, NodeId server_node,
                 ServiceConfig config, ServerCostModel cost, std::uint64_t seed)
    : simulator_(simulator),
      transport_(transport),
      config_(std::move(config)),
      cost_(cost),
      south_addr_{server_node, kSouthPort},
      north_addr_{server_node, kNorthPort},
      internal_addr_{server_node, kInternalPort} {
  Rng rng(seed);
  registrar_ = std::make_unique<Registrar>(simulator_, store, config_);
  dgm_ = std::make_unique<Dgm>(simulator_, transport_, south_addr_, config_,
                               *registrar_, store, rng.fork());
  router_ = std::make_unique<QueryRouter>(
      simulator_, transport_, north_addr_, config_, cost_, *dgm_, *registrar_,
      store, rng.fork(), [this](Duration cpu) { charge(cpu); });

  views_ = std::make_unique<ViewManager>(
      simulator_, transport_, south_addr_, north_addr_, *registrar_,
      [this](const Query& q, std::function<void(QueryResult)> cb) {
        issue_internal_query(q, std::move(cb));
      });

  transport_.bind(south_addr_, [this](const net::Message& m) { on_south(m); });
  transport_.bind(north_addr_, [this](const net::Message& m) { on_north(m); });
  transport_.bind(internal_addr_, [this](const net::Message& m) { on_internal(m); });
  maintenance_timer_ =
      simulator_.every(1 * kSecond, [this] { dgm_->maintenance(); });
}

Service::~Service() {
  transport_.unbind(south_addr_);
  transport_.unbind(north_addr_);
  transport_.unbind(internal_addr_);
  simulator_.cancel(maintenance_timer_);
}

void Service::on_south(const net::Message& msg) {
  if (msg.kind == kRegister) {
    handle_register(msg);
  } else if (msg.kind == kSuggest) {
    handle_suggest(msg);
  } else if (msg.kind == kJoined) {
    dgm_->on_joined(msg.as<JoinedPayload>());
  } else if (msg.kind == kLeftGroup) {
    dgm_->on_left(msg.as<LeftGroupPayload>());
  } else if (msg.kind == kGroupReport) {
    const auto& report = msg.as<GroupReportPayload>();
    charge(cost_.report_cpu_base +
           cost_.report_cpu_per_member *
               static_cast<Duration>(report.members.size()));
    dgm_->on_report(report);
  } else if (msg.kind == kViewEvent) {
    charge(cost_.response_cpu_base);
    views_->handle_event(msg);
  }
}

void Service::on_north(const net::Message& msg) {
  if (msg.kind == kQuery) {
    router_->handle_query(msg);
  } else if (msg.kind == kGroupResponse) {
    router_->handle_group_response(msg);
  } else if (msg.kind == kNodeState) {
    router_->handle_node_state(msg);
  } else if (msg.kind == kViewRegister) {
    charge(cost_.query_route_cpu);
    views_->handle_register(msg);
  } else if (msg.kind == kViewUnregister) {
    views_->handle_unregister(msg);
  }
}

void Service::on_internal(const net::Message& msg) {
  if (msg.kind != kQueryResponse) return;
  const auto& resp = msg.as<QueryResponsePayload>();
  auto it = internal_pending_.find(resp.query_id);
  if (it == internal_pending_.end()) return;
  auto cb = std::move(it->second);
  internal_pending_.erase(it);
  cb(resp.result);
}

void Service::issue_internal_query(const Query& query,
                                   std::function<void(QueryResult)> cb) {
  const std::uint64_t id = internal_seq_++;
  obs::Tracer& tr = obs::tracer();
  obs::TraceContext trace;
  if (tr.enabled()) {
    // Internal queries (view refreshes) get their own root, keyed off the
    // internal port's node + sequence so ids stay deterministic.
    trace.trace_id = obs::make_trace_id(internal_addr_.node, id);
    const std::uint64_t root =
        tr.begin_span(trace.trace_id, /*parent_id=*/0, kSpanInternalQuery,
                      internal_addr_.node, simulator_.now());
    trace.span_id = root;
    // Close the root when the stored completion callback fires.
    cb = [this, root, inner = std::move(cb)](QueryResult result) {
      obs::tracer().end_span(root, simulator_.now());
      inner(std::move(result));
    };
  }
  internal_pending_.emplace(id, std::move(cb));
  auto payload = std::make_shared<QueryPayload>();
  payload->query_id = id;
  payload->query = query;
  payload->reply_to = internal_addr_;
  router_->handle_query(net::Message{internal_addr_, north_addr_, kQuery,
                                     std::move(payload), trace});
}

void Service::handle_register(const net::Message& msg) {
  const auto& reg = msg.as<RegisterPayload>();
  const int writes = registrar_->register_node(reg.state, reg.command_addr);
  charge(cost_.register_cpu + cost_.store_op_cpu * writes);

  auto ack = std::make_shared<RegisterAckPayload>();
  for (const auto& [attr_name, value] : reg.state.dynamic_values) {
    const AttributeSchema* attr = config_.schema.find(attr_name);
    if (attr == nullptr || attr->kind != AttrKind::Dynamic) continue;
    ack->suggestions.push_back(dgm_->suggest(reg.state.node, reg.state.region,
                                             reg.command_addr, *attr, value));
  }
  transport_.send(net::Message{south_addr_, msg.from, kRegisterAck, std::move(ack)});

  // Ship any active materialized-view predicates to the new node so its
  // event triggers cover it from the start.
  const auto specs = views_->active_specs();
  if (!specs.empty()) {
    auto install = std::make_shared<ViewInstallPayload>();
    install->install = specs;
    transport_.send(
        net::Message{south_addr_, reg.command_addr, kViewInstall, std::move(install)});
  }
}

void Service::handle_suggest(const net::Message& msg) {
  const auto& req = msg.as<SuggestRequestPayload>();
  charge(cost_.suggest_cpu);
  const AttributeSchema* attr = config_.schema.find(req.attr);
  auto ack = std::make_shared<SuggestAckPayload>();
  if (attr != nullptr) {
    ack->suggestion =
        dgm_->suggest(req.node, req.region, req.command_addr, *attr, req.value);
  }
  transport_.send(net::Message{south_addr_, msg.from, kSuggestAck, std::move(ack)});
}

double Service::utilization(double window_start_busy_us, Duration window) const {
  if (window <= 0) return 0;
  const double busy = busy_cpu_us_ - window_start_busy_us;
  const double util =
      cost_.baseline_utilization +
      busy / (static_cast<double>(cost_.cores) * static_cast<double>(window));
  return util > 1.0 ? 1.0 : util;
}

double Service::ram_gb() const {
  return cost_.ram_gb(registrar_->count(), router_->cache().size());
}

void Service::restart_dgm() { dgm_->clear_state(); }

}  // namespace focus::core
