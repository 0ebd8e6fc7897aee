#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Instrumentation applied to a built deployment from the outside, only
// through public seams: every actor id is re-registered with a proxy via
// Network::Register (same site), a counting Network::SetLinkFilter that
// always passes, and a sampler on the simulated clock that reads const
// accessors. None of it changes a simulated number.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "wire/message.h"

namespace perfbench {

namespace core = transedge::core;
namespace sim = transedge::sim;
namespace wire = transedge::wire;

/// The layer a handler's host time is booked to (by message type).
enum class Layer : uint8_t {
  kFollowerPropose,  // PrePrepare / LinearPropose: follower re-validation.
  kCommit,           // Commit / LinearQc: decide, plus synchronous apply.
  kVote,             // Prepare / LinearVote.
  kViewChange,       // View-change, new-view, catch-up messages.
  kPipeline,         // CommitRequest: admission and size-triggered batches.
  kTwoPc,            // CoordPrepare / Prepared / CommitRecord.
  kReadOnly,         // ClientRead / RoRequest / RoBatchRequest.
  kWatchService,     // WatchSubscribe / WatchUnsubscribe.
  kClient,           // Anything delivered to a Client.
  kWatchClient,      // Anything delivered to a WatchClient.
  kOther,
  kCount,
};

enum class Role : uint8_t { kLeader, kFollower, kClient, kWatcher, kCount };

const char* RoleName(Role role);

/// Message types the per-type network counters are reported for: every
/// type of the protocols this benchmark runs (the Augustus baseline's
/// types are left out).
bool IsReportedType(uint32_t type);

/// Owns the proxies and the counters. With `timing` off it only
/// observes watch-delta deliveries (an end-to-end metric); with it on,
/// it is the traced run's instrumentation.
class Tracer {
 public:
  using DeltaFn =
      std::function<void(sim::ActorId from, const wire::WatchDeltaMsg&)>;

  Tracer(core::System* system, bool timing, DeltaFn on_delta);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void WrapReplica(core::TransEdgeNode* node);
  void WrapClient(sim::ActorId id, sim::Actor* client);
  void WrapWatcher(sim::ActorId id, sim::Actor* watcher);

  /// Counting link filter (timing runs only).
  void InstallLinkFilter();

  /// Samples leader queue depth, decided-applied lag and event-queue
  /// size every `period` of simulated time until `until`.
  void StartSampler(sim::Time period, sim::Time until);

  /// Times how long replica `id` takes after a restart to apply up to
  /// `target` (checked after every message it handles and every sample).
  void WatchCatchUp(sim::ActorId id, transedge::BatchId target);

  struct HandlerStat {
    uint64_t calls = 0;
    int64_t self_ns = 0;
  };
  struct NetStat {
    uint64_t msgs = 0;
    uint64_t bytes = 0;
  };

  int64_t LayerNs(Layer layer) const;
  int64_t HandlerNs() const;
  int64_t filter_ns() const { return filter_ns_; }
  const HandlerStat& handler(Role role, uint32_t type) const {
    return handlers_[static_cast<size_t>(role)][type];
  }
  const NetStat& net(uint32_t type) const { return net_[type]; }
  uint64_t msgs_intra() const { return msgs_intra_; }
  uint64_t msgs_inter() const { return msgs_inter_; }
  uint64_t msgs_client() const { return msgs_client_; }
  uint64_t total_bytes() const;

  const std::vector<int64_t>& queue_depth_samples() const {
    return queue_depth_samples_;
  }
  const std::vector<int64_t>& leader_inprog_samples() const {
    return leader_inprog_samples_;
  }
  int64_t apply_lag_max() const { return apply_lag_max_; }
  /// Simulated time from the restart until the replica caught up, or
  /// until `now` while it has not.
  sim::Time CatchUpTime(sim::Time now) const {
    return catchup_id_ < 0 ? 0
                           : (catchup_done_ >= 0 ? catchup_done_ : now) -
                                 catchup_since_;
  }
  bool caught_up() const { return catchup_done_ >= 0; }
  uint64_t samples_taken() const { return queue_depth_samples_.size(); }

  static constexpr uint32_t kMaxType = 80;

 private:
  class Proxy;

  void Delivered(Proxy* proxy, sim::ActorId from, const sim::MessagePtr& msg);
  void Sample();
  void CheckCatchUp();
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  core::System* system_;
  bool timing_;
  DeltaFn on_delta_;
  std::vector<std::unique_ptr<Proxy>> proxies_;

  std::array<std::array<HandlerStat, kMaxType>,
             static_cast<size_t>(Role::kCount)>
      handlers_{};
  std::array<NetStat, kMaxType> net_{};
  uint64_t msgs_intra_ = 0;
  uint64_t msgs_inter_ = 0;
  uint64_t msgs_client_ = 0;
  int64_t filter_ns_ = 0;
  /// The last message sized: a broadcast hands the same object to every
  /// recipient, so it is encoded once. Held so its address stays unique.
  sim::MessagePtr last_sized_;
  uint64_t last_size_ = 0;

  sim::Time sample_period_ = 0;
  sim::Time sample_until_ = 0;
  std::vector<int64_t> queue_depth_samples_;
  std::vector<int64_t> leader_inprog_samples_;
  int64_t apply_lag_max_ = 0;

  int64_t catchup_id_ = -1;
  transedge::BatchId catchup_target_ = 0;
  sim::Time catchup_since_ = 0;
  sim::Time catchup_done_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
