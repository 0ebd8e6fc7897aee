#include "trace.h"

#include <algorithm>

#include "wire/serialize.h"

namespace perfbench {

namespace {

using wire::MessageType;

Layer ReplicaLayerOf(uint32_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kPrePrepare:
    case MessageType::kLinearPropose:
      return Layer::kFollowerPropose;
    case MessageType::kCommit:
    case MessageType::kLinearQc:
      return Layer::kCommit;
    case MessageType::kPrepare:
    case MessageType::kLinearVote:
      return Layer::kVote;
    case MessageType::kViewChange:
    case MessageType::kNewView:
    case MessageType::kLinearViewChange:
    case MessageType::kLinearNewView:
    case MessageType::kLinearCatchUp:
      return Layer::kViewChange;
    case MessageType::kCommitRequest:
      return Layer::kPipeline;
    case MessageType::kCoordPrepare:
    case MessageType::kPrepared:
    case MessageType::kCommitRecord:
      return Layer::kTwoPc;
    case MessageType::kClientRead:
    case MessageType::kRoRequest:
    case MessageType::kRoBatchRequest:
      return Layer::kReadOnly;
    case MessageType::kWatchSubscribe:
    case MessageType::kWatchUnsubscribe:
      return Layer::kWatchService;
    default:
      return Layer::kOther;
  }
}

Layer LayerOf(Role role, uint32_t type) {
  switch (role) {
    case Role::kClient:
      return Layer::kClient;
    case Role::kWatcher:
      return Layer::kWatchClient;
    default:
      return ReplicaLayerOf(type);
  }
}

}  // namespace

const char* RoleName(Role role) {
  switch (role) {
    case Role::kLeader:
      return "leader";
    case Role::kFollower:
      return "follower";
    case Role::kClient:
      return "client";
    default:
      return "watcher";
  }
}

bool IsReportedType(uint32_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kClientRead:
    case MessageType::kClientReadReply:
    case MessageType::kCommitRequest:
    case MessageType::kCommitReply:
    case MessageType::kRoRequest:
    case MessageType::kRoReply:
    case MessageType::kRoBatchRequest:
    case MessageType::kPrePrepare:
    case MessageType::kPrepare:
    case MessageType::kCommit:
    case MessageType::kViewChange:
    case MessageType::kNewView:
    case MessageType::kLinearPropose:
    case MessageType::kLinearVote:
    case MessageType::kLinearQc:
    case MessageType::kLinearViewChange:
    case MessageType::kLinearNewView:
    case MessageType::kLinearCatchUp:
    case MessageType::kCoordPrepare:
    case MessageType::kPrepared:
    case MessageType::kCommitRecord:
    case MessageType::kWatchSubscribe:
    case MessageType::kWatchSubscribeReply:
    case MessageType::kWatchDelta:
    case MessageType::kWatchUnsubscribe:
    case MessageType::kWatchResubscribe:
      return true;
    default:
      return false;
  }
}

/// Stands in for one actor id: forwards every call to the real actor,
/// which the tracer times around.
class Tracer::Proxy : public sim::Actor {
 public:
  Proxy(Tracer* tracer, sim::Actor* inner, core::TransEdgeNode* node,
        Role role)
      : tracer_(tracer), inner_(inner), node_(node), role_(role) {}

  void OnStart() override { inner_->OnStart(); }
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override {
    tracer_->Delivered(this, from, msg);
  }

  Tracer* tracer_;
  sim::Actor* inner_;
  core::TransEdgeNode* node_;  // Null for clients and watchers.
  Role role_;
};

Tracer::Tracer(core::System* system, bool timing, DeltaFn on_delta)
    : system_(system), timing_(timing), on_delta_(std::move(on_delta)) {}

Tracer::~Tracer() = default;

void Tracer::WrapReplica(core::TransEdgeNode* node) {
  sim::Network& net = system_->env().network();
  proxies_.push_back(
      std::make_unique<Proxy>(this, node, node, Role::kFollower));
  net.Register(node->id(), net.site_of(node->id()), proxies_.back().get());
}

void Tracer::WrapClient(sim::ActorId id, sim::Actor* client) {
  sim::Network& net = system_->env().network();
  proxies_.push_back(
      std::make_unique<Proxy>(this, client, nullptr, Role::kClient));
  net.Register(id, net.site_of(id), proxies_.back().get());
}

void Tracer::WrapWatcher(sim::ActorId id, sim::Actor* watcher) {
  sim::Network& net = system_->env().network();
  proxies_.push_back(
      std::make_unique<Proxy>(this, watcher, nullptr, Role::kWatcher));
  net.Register(id, net.site_of(id), proxies_.back().get());
}

void Tracer::Delivered(Proxy* proxy, sim::ActorId from,
                       const sim::MessagePtr& msg) {
  const uint32_t type = msg->type();
  if (proxy->role_ == Role::kWatcher &&
      type == static_cast<uint32_t>(MessageType::kWatchDelta) && on_delta_) {
    on_delta_(from, static_cast<const wire::WatchDeltaMsg&>(*msg));
  }
  if (!timing_) {
    proxy->inner_->OnMessage(from, msg);
    return;
  }
  Role role = proxy->role_;
  if (proxy->node_ != nullptr) {
    role = proxy->node_->IsLeader() ? Role::kLeader : Role::kFollower;
  }
  const int64_t filter_before = filter_ns_;
  const int64_t start = NowNs();
  proxy->inner_->OnMessage(from, msg);
  const int64_t elapsed = NowNs() - start - (filter_ns_ - filter_before);
  HandlerStat& stat =
      handlers_[static_cast<size_t>(role)][std::min(type, kMaxType - 1)];
  ++stat.calls;
  stat.self_ns += elapsed;
  if (proxy->node_ != nullptr &&
      static_cast<int64_t>(proxy->node_->id()) == catchup_id_) {
    CheckCatchUp();
  }
}

void Tracer::InstallLinkFilter() {
  system_->env().network().SetLinkFilter(
      [this](sim::ActorId from, sim::ActorId to, const sim::MessagePtr& msg) {
        const int64_t start = NowNs();
        if (msg != last_sized_) {
          last_sized_ = msg;
          last_size_ = wire::EncodeMessage(*msg).size();
        }
        NetStat& stat = net_[std::min(msg->type(), kMaxType - 1)];
        ++stat.msgs;
        stat.bytes += last_size_;
        const core::SystemConfig& config = system_->config();
        if (!config.IsReplicaNode(from) || !config.IsReplicaNode(to)) {
          ++msgs_client_;
        } else if (config.PartitionOfNode(from) == config.PartitionOfNode(to)) {
          ++msgs_intra_;
        } else {
          ++msgs_inter_;
        }
        filter_ns_ += NowNs() - start;
        return true;
      });
}

void Tracer::StartSampler(sim::Time period, sim::Time until) {
  sample_period_ = period;
  sample_until_ = until;
  system_->env().Schedule(period, [this] { Sample(); });
}

void Tracer::Sample() {
  sim::Environment& env = system_->env();
  queue_depth_samples_.push_back(static_cast<int64_t>(env.queue().size()));
  const core::SystemConfig& config = system_->config();
  for (uint32_t p = 0; p < config.num_partitions; ++p) {
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const core::TransEdgeNode* node = system_->node(p, i);
      if (node->halted()) continue;
      apply_lag_max_ = std::max<int64_t>(
          apply_lag_max_, node->log().LastBatchId() - node->last_applied());
      if (node->IsLeader()) {
        leader_inprog_samples_.push_back(
            static_cast<int64_t>(node->in_progress_size()));
      }
    }
  }
  CheckCatchUp();
  if (env.now() + sample_period_ <= sample_until_) {
    env.Schedule(sample_period_, [this] { Sample(); });
  }
}

void Tracer::WatchCatchUp(sim::ActorId id, transedge::BatchId target) {
  catchup_id_ = id;
  catchup_target_ = target;
  catchup_since_ = system_->env().now();
  catchup_done_ = -1;
}

void Tracer::CheckCatchUp() {
  if (catchup_id_ < 0 || catchup_done_ >= 0) return;
  const core::SystemConfig& config = system_->config();
  const auto id = static_cast<sim::ActorId>(catchup_id_);
  const core::TransEdgeNode* node =
      system_->node(config.PartitionOfNode(id), config.ReplicaIndexOf(id));
  if (node->last_applied() >= catchup_target_) {
    catchup_done_ = system_->env().now();
  }
}

int64_t Tracer::LayerNs(Layer layer) const {
  int64_t total = 0;
  for (size_t r = 0; r < handlers_.size(); ++r) {
    for (uint32_t t = 0; t < kMaxType; ++t) {
      if (LayerOf(static_cast<Role>(r), t) == layer) {
        total += handlers_[r][t].self_ns;
      }
    }
  }
  return total;
}

int64_t Tracer::HandlerNs() const {
  int64_t total = 0;
  for (const auto& by_type : handlers_) {
    for (const HandlerStat& stat : by_type) total += stat.self_ns;
  }
  return total;
}

uint64_t Tracer::total_bytes() const {
  uint64_t total = 0;
  for (const NetStat& stat : net_) total += stat.bytes;
  return total;
}

}  // namespace perfbench
