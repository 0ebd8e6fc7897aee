#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "core/system.h"
#include "storage/partition_map.h"
#include "trace.h"
#include "wire/message.h"
#include "workload/generator.h"
#include "workload/stats.h"

namespace perfbench {

namespace {

using transedge::BatchId;
using transedge::Key;
using transedge::PartitionId;
using transedge::Rng;
using transedge::Value;
using transedge::WriteOp;
namespace storage = transedge::storage;
namespace workload = transedge::workload;
using Clock = std::chrono::steady_clock;

/// Read-only latency limit for ro_slo_pct.
constexpr sim::Time kRoSlo = sim::Millis(25);
/// A read-only request that times out is sent again (latency still runs
/// from its due time) at most this many times in all.
constexpr int kMaxRoAttempts = 3;
/// Traffic starts once every cluster has certified its genesis batch.
constexpr sim::Time kTrafficStart = sim::Millis(15);
/// Simulated time allowed after the drain for replicas and watchers to
/// settle before the correctness checks read their state.
constexpr sim::Time kSettle = sim::Millis(500);
constexpr sim::Time kSamplePeriod = sim::Millis(1);
/// Mean think time of the hot-range writers.
constexpr double kHotThinkUs = 20000;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time this (single-threaded) process has used: unlike wall time it
/// does not count time other processes on the host took from it.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Pct(uint64_t part, uint64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) /
                         static_cast<double>(whole)
                   : 0;
}

/// p-th percentile of integer samples (same interpolation as the
/// repository's LatencyStats).
double PercentileOf(const std::vector<int64_t>& samples, double p) {
  workload::LatencyStats stats;
  for (int64_t s : samples) stats.Record(s);
  return stats.PercentileMs(p) * 1000.0;
}

struct Request {
  enum class Outcome { kPending, kOk, kAborted, kFailed };

  sim::Time due = 0;
  bool ro = false;
  bool measured = false;
  int loop = -1;  // Closed-loop index, -1 for open-loop traffic.
  uint32_t client = 0;
  bool distributed = false;
  std::vector<Key> reads;
  std::vector<WriteOp> writes;

  Outcome outcome = Outcome::kPending;
  sim::Time done = 0;
  sim::Time attempt_start = 0;
  sim::Time round1_end = 0;
  int rounds = 0;
  int attempts = 0;
  bool third_round = false;
};

struct Loop {
  uint32_t client = 0;
  Rng rng;
  int hot_key = -1;  // >= 0: single-key writer of hot_keys_[hot_key].
};

class Repetition {
 public:
  Repetition(const WorkloadSpec& spec, uint64_t seed, bool traced)
      : spec_(spec), seed_(seed), traced_(traced) {}

  RepResult Run();

 private:
  void Setup();
  void Drive();
  void Settle();

  enum class Kind { kReadOnly, kReadWrite, kLocalWrite };
  void GenerateOpenLoop(double rate, Kind kind, Rng* rng);
  void Submit(size_t i);
  void OnRo(size_t i, const core::RoResult& result);
  void OnRw(size_t i, const core::RwResult& result);
  void Finish(Request& r, Request::Outcome outcome);
  void NextClosedLoop(int loop);
  void OnDelta(sim::ActorId from, const transedge::wire::WatchDeltaMsg& msg);
  void CrashReplica();
  void RestartCrashed();

  void EndToEndMetrics(RepResult* out) const;
  void LayerMetrics(RepResult* out) const;
  void Checks(RepResult* out) const;
  void Spans(RepResult* out) const;

  sim::Environment& env() { return system_->env(); }
  bool InWindow(sim::Time t) const { return t >= warm_end_ && t < stop_; }
  /// The replica of `p` with the highest view among those that consider
  /// themselves leader (a restarted ex-leader may still believe in its
  /// pre-crash view).
  const core::TransEdgeNode* CurrentLeader(PartitionId p) const;

  const WorkloadSpec& spec_;
  uint64_t seed_;
  bool traced_;

  std::unique_ptr<workload::KeySpace> keys_;
  std::unique_ptr<workload::PlanGenerator> plans_;
  std::unique_ptr<core::System> system_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<core::Client*> clients_;
  std::vector<core::WatchClient*> watchers_;
  std::vector<Key> hot_keys_;
  std::deque<Request> requests_;
  size_t open_loop_count_ = 0;
  std::vector<Loop> loops_;
  size_t pending_measured_ = 0;

  sim::Time warm_end_ = 0;
  sim::Time stop_ = 0;
  sim::Time drain_end_ = 0;

  /// (delivered at, certified batch timestamp) per watch delta.
  std::vector<std::pair<sim::Time, sim::Time>> deltas_;
  uint64_t deltas_unmatched_ = 0;
  uint64_t ro_retries_ = 0;
  uint64_t events_driven_ = 0;

  transedge::crypto::NodeId crashed_ = 0;
  bool restart_failed_ = false;
};

RepResult Repetition::Run() {
  RepResult out;
  const double setup_cpu = CpuSeconds();
  Setup();
  out.setup_s = CpuSeconds() - setup_cpu;

  const uint64_t events_before = env().queue().events_executed();
  const double run_cpu = CpuSeconds();
  const Clock::time_point run_start = Clock::now();
  Drive();
  out.host_run_wall_s = SecondsSince(run_start);
  out.host_run_s = CpuSeconds() - run_cpu;
  events_driven_ = env().queue().events_executed() - events_before;

  EndToEndMetrics(&out);
  if (traced_) {
    LayerMetrics(&out);
    Spans(&out);
  }
  Settle();
  Checks(&out);
  return out;
}

void Repetition::Setup() {
  const core::SystemConfig& config = spec_.config;
  const uint32_t partitions = config.num_partitions;

  workload::WorkloadOptions options;
  options.num_keys = spec_.num_keys;
  options.value_size = 32;
  options.seed = seed_;
  keys_ = std::make_unique<workload::KeySpace>(options, partitions);
  plans_ = std::make_unique<workload::PlanGenerator>(keys_.get(), partitions);

  warm_end_ = kTrafficStart + spec_.warmup;
  stop_ = warm_end_ + spec_.measure;
  drain_end_ = stop_ + spec_.max_drain;

  // Hot range: `hot_keys` consecutive partition-0 keys from a seeded
  // starting point of the (ordered) key space.
  storage::PartitionMap pmap(partitions);
  Rng hot_rng(seed_ ^ 0x407ULL);
  for (uint64_t i = hot_rng.NextBounded(spec_.num_keys / 2);
       hot_keys_.size() < static_cast<size_t>(spec_.hot_keys); ++i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%010llu",
                  static_cast<unsigned long long>(i));
    if (pmap.OwnerOf(buf) == 0) hot_keys_.emplace_back(buf);
  }

  Rng ro_rng(seed_ ^ 0x1e0ULL);
  Rng rw_rng(seed_ ^ 0x2e0ULL);
  Rng local_rng(seed_ ^ 0x3e0ULL);
  GenerateOpenLoop(spec_.ro_rate, Kind::kReadOnly, &ro_rng);
  GenerateOpenLoop(spec_.rw_rate, Kind::kReadWrite, &rw_rng);
  GenerateOpenLoop(spec_.local_rate, Kind::kLocalWrite, &local_rng);
  open_loop_count_ = requests_.size();

  sim::EnvironmentOptions env_opts = spec_.env;
  env_opts.seed = seed_;
  system_ = std::make_unique<core::System>(config, env_opts);
  if (spec_.preload) system_->Preload(keys_->InitialData());
  system_->Start();

  for (int c = 0; c < spec_.clients; ++c) {
    clients_.push_back(system_->AddClient());
  }
  for (int h = 0; h < spec_.hot_keys; ++h) {
    clients_.push_back(system_->AddClient());
    loops_.push_back(Loop{static_cast<uint32_t>(clients_.size() - 1),
                          Rng(seed_ ^ (0x500ULL + h)), h});
  }
  for (int s = 0; s < spec_.saturate_loops; ++s) {
    loops_.push_back(Loop{static_cast<uint32_t>(s % spec_.clients),
                          Rng(seed_ ^ (0x10000ULL + s)), -1});
  }
  for (int w = 0; w < spec_.watchers; ++w) {
    watchers_.push_back(system_->AddWatchClient());
  }
  env().RunUntil(kTrafficStart);

  // Instrument only after genesis so that the traced handler times cover
  // exactly the measured run.
  tracer_ = std::make_unique<Tracer>(
      system_.get(), traced_,
      [this](sim::ActorId from, const transedge::wire::WatchDeltaMsg& msg) {
        OnDelta(from, msg);
      });
  for (core::WatchClient* w : watchers_) tracer_->WrapWatcher(w->id(), w);
  if (traced_) {
    for (uint32_t p = 0; p < partitions; ++p) {
      for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
        tracer_->WrapReplica(system_->node(p, i));
      }
    }
    for (core::Client* c : clients_) tracer_->WrapClient(c->id(), c);
    tracer_->InstallLinkFilter();
  }
}

void Repetition::GenerateOpenLoop(double rate, Kind kind, Rng* rng) {
  if (rate <= 0) return;
  const storage::PartitionMap pmap(spec_.config.num_partitions);
  // Read-only and local-write streams are Poisson. The low-rate
  // distributed stream is evenly spaced from a seeded phase: its handful
  // of transactions per run sets the share of two-round reads, so a
  // Poisson count would make that share swing from seed to seed.
  const bool periodic = kind == Kind::kReadWrite;
  double at_s = periodic ? rng->NextDouble() / rate : 0;  // After start.
  for (size_t n = 0;; ++n) {
    if (!periodic) at_s += -std::log(1.0 - rng->NextDouble()) / rate;
    const sim::Time due = kTrafficStart + std::llround(at_s * 1e6);
    if (due >= stop_) break;
    if (periodic) at_s += 1.0 / rate;
    Request r;
    r.due = due;
    r.ro = kind == Kind::kReadOnly;
    r.measured = InWindow(due);
    r.client = static_cast<uint32_t>(n % spec_.clients);
    if (r.ro) {
      r.reads =
          plans_->MakeReadOnly(spec_.ro_keys, spec_.ro_clusters, rng).read_keys;
    } else {
      workload::TxnPlan plan =
          kind == Kind::kReadWrite
              ? plans_->MakeReadWrite(spec_.rw_reads, spec_.rw_writes,
                                      spec_.rw_clusters, rng)
              : plans_->MakeWriteOnly(spec_.local_writes, rng);
      r.reads = std::move(plan.read_keys);
      r.writes = std::move(plan.writes);
      std::vector<transedge::ReadOp> read_set;
      for (const Key& k : r.reads) read_set.push_back({k, 0});
      r.distributed = pmap.ParticipantsOf(read_set, r.writes).size() > 1;
    }
    requests_.push_back(std::move(r));
  }
}

void Repetition::Drive() {
  for (size_t i = 0; i < open_loop_count_; ++i) {
    if (requests_[i].measured) ++pending_measured_;
    env().ScheduleAt(requests_[i].due, [this, i] { Submit(i); });
  }
  for (size_t l = 0; l < loops_.size(); ++l) {
    NextClosedLoop(static_cast<int>(l));
  }
  if (!hot_keys_.empty()) {
    const Key lo = *std::min_element(hot_keys_.begin(), hot_keys_.end());
    const Key hi = *std::max_element(hot_keys_.begin(), hot_keys_.end());
    for (core::WatchClient* w : watchers_) w->Watch(lo, hi);
  }
  if (spec_.crash_at > 0) {
    env().ScheduleAt(kTrafficStart + spec_.crash_at,
                     [this] { CrashReplica(); });
    env().ScheduleAt(kTrafficStart + spec_.crash_at + spec_.restart_after,
                     [this] { RestartCrashed(); });
  }
  if (traced_) tracer_->StartSampler(kSamplePeriod, drain_end_);

  env().RunUntil(stop_);
  while (pending_measured_ > 0 && env().now() < drain_end_) {
    env().RunUntil(std::min(env().now() + sim::Millis(10), drain_end_));
  }
}

void Repetition::Settle() { env().RunUntil(env().now() + kSettle); }

void Repetition::Submit(size_t i) {
  Request& r = requests_[i];
  r.attempt_start = env().now();
  ++r.attempts;
  core::Client* client = clients_[r.client];
  if (r.ro) {
    client->ExecuteReadOnly(
        r.reads, [this, i](core::RoResult result) { OnRo(i, result); });
  } else {
    client->ExecuteReadWrite(
        r.reads, r.writes,
        [this, i](core::RwResult result) { OnRw(i, result); });
  }
}

void Repetition::OnRo(size_t i, const core::RoResult& result) {
  Request& r = requests_[i];
  if (!result.status.ok()) {
    if (result.status.code() == transedge::StatusCode::kTimeout &&
        r.attempts < kMaxRoAttempts) {
      ++ro_retries_;
      Submit(i);
      return;
    }
    Finish(r, Request::Outcome::kFailed);
    return;
  }
  r.rounds = result.rounds;
  r.round1_end = r.attempt_start + result.round1_latency;
  r.third_round = result.needed_third_round;
  Finish(r, Request::Outcome::kOk);
}

void Repetition::OnRw(size_t i, const core::RwResult& result) {
  Request& r = requests_[i];
  if (result.committed) {
    Finish(r, Request::Outcome::kOk);
  } else if (result.reason == "client timeout") {
    Finish(r, Request::Outcome::kFailed);
  } else {
    Finish(r, Request::Outcome::kAborted);
  }
  if (r.loop >= 0) NextClosedLoop(r.loop);
}

void Repetition::Finish(Request& r, Request::Outcome outcome) {
  if (r.outcome != Request::Outcome::kPending) return;
  r.outcome = outcome;
  r.done = env().now();
  if (r.measured) --pending_measured_;
}

void Repetition::NextClosedLoop(int l) {
  Loop& loop = loops_[l];
  // Hot-range writers think for an exponential while between writes, so
  // their writes land at random phases of the batch cadence.
  sim::Time due = env().now();
  if (loop.hot_key >= 0) {
    due += std::llround(-std::log(1.0 - loop.rng.NextDouble()) * kHotThinkUs);
  }
  if (due >= stop_) return;
  Request r;
  r.due = due;
  r.measured = InWindow(due);
  r.loop = l;
  r.client = loop.client;
  if (loop.hot_key >= 0) {
    r.writes.push_back(WriteOp{hot_keys_[loop.hot_key],
                               keys_->RandomValue(&loop.rng)});
  } else {
    r.writes = plans_->MakeWriteOnly(spec_.saturate_writes, &loop.rng).writes;
  }
  if (r.measured) ++pending_measured_;
  requests_.push_back(std::move(r));
  const size_t i = requests_.size() - 1;
  env().ScheduleAt(due, [this, i] { Submit(i); });
}

void Repetition::OnDelta(sim::ActorId from,
                         const transedge::wire::WatchDeltaMsg& msg) {
  const core::SystemConfig& config = system_->config();
  const core::TransEdgeNode* sender = system_->node(
      config.PartitionOfNode(from), config.ReplicaIndexOf(from));
  auto entry = sender->log().Get(msg.batch_id);
  if (!entry.ok()) {
    ++deltas_unmatched_;
    return;
  }
  deltas_.emplace_back(env().now(), entry.value()->batch.ro.timestamp_us);
}

void Repetition::CrashReplica() {
  crashed_ = system_->config().ReplicaNode(0, spec_.crash_replica);
  system_->CrashReplica(crashed_);
  // Power loss: nothing written after the last sync survives.
  system_->disk(crashed_)->Crash(0, storage::paged::SimDisk::CrashMode::kNone);
}

void Repetition::RestartCrashed() {
  if (!system_->RestartReplica(crashed_).ok()) {
    restart_failed_ = true;
    return;
  }
  if (!traced_) return;
  const core::SystemConfig& config = system_->config();
  const PartitionId p = config.PartitionOfNode(crashed_);
  tracer_->WrapReplica(system_->node(p, config.ReplicaIndexOf(crashed_)));
  BatchId target = 0;
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    const core::TransEdgeNode* node = system_->node(p, i);
    if (!node->halted()) target = std::max(target, node->last_applied());
  }
  tracer_->WatchCatchUp(crashed_, target);
}

const core::TransEdgeNode* Repetition::CurrentLeader(PartitionId p) const {
  const core::TransEdgeNode* best = nullptr;
  for (uint32_t i = 0; i < spec_.config.replicas_per_cluster(); ++i) {
    const core::TransEdgeNode* node = system_->node(p, i);
    if (node->halted() || !node->IsLeader()) continue;
    if (best == nullptr || node->view() > best->view()) best = node;
  }
  return best != nullptr ? best : system_->node(p, 0);
}

void Repetition::EndToEndMetrics(RepResult* out) const {
  workload::LatencyStats ro_lat, rw_lat, watch_lag;
  uint64_t ro_due = 0, ro_in_slo = 0;
  uint64_t rw_due = 0, rw_committed = 0;
  std::vector<sim::Time> commit_times;
  uint64_t failed_ro = 0, failed_rw = 0;
  for (const Request& r : requests_) {
    const bool ok = r.outcome == Request::Outcome::kOk;
    if (!r.ro && ok) commit_times.push_back(r.done);
    if (!r.measured) continue;
    ++out->attempted;
    if (r.outcome == Request::Outcome::kFailed ||
        r.outcome == Request::Outcome::kPending) {
      ++out->failed;
      ++(r.ro ? failed_ro : failed_rw);
    }
    const sim::Time latency = r.done - r.due;
    if (r.ro) {
      ++ro_due;
      if (ok) {
        ro_lat.Record(latency);
        if (latency <= kRoSlo) ++ro_in_slo;
      }
    } else {
      ++rw_due;
      if (ok) {
        ++rw_committed;
        rw_lat.Record(latency);
      }
    }
  }
  for (const auto& [delivered, stamped] : deltas_) {
    if (InWindow(delivered)) watch_lag.Record(delivered - stamped);
  }
  // Throughput between the first commit replies at or after the window's
  // start and end: both are batch boundaries, so a batch straddling the
  // window edge is counted either whole or not at all.
  std::sort(commit_times.begin(), commit_times.end());
  auto first_from = [&](sim::Time t) {
    return std::lower_bound(commit_times.begin(), commit_times.end(), t);
  };
  const auto span_begin = first_from(warm_end_);
  const auto span_end = first_from(stop_);
  const sim::Time span =
      span_end != commit_times.end() && span_end > span_begin
          ? *span_end - *span_begin
          : 0;
  auto& m = out->sim_metrics;
  m["ro_p50_ms"] = ro_lat.P50Ms();
  m["ro_p99_ms"] = ro_lat.P99Ms();
  m["ro_slo_pct"] = Pct(ro_in_slo, ro_due);
  m["rw_p50_ms"] = rw_lat.P50Ms();
  m["rw_p99_ms"] = rw_lat.P99Ms();
  m["write_tps"] = span > 0 ? static_cast<double>(span_end - span_begin) /
                                  sim::ToSeconds(span)
                            : 0;
  m["rw_commit_pct"] = Pct(rw_committed, rw_due);
  m["watch_lag_p99_ms"] = watch_lag.P99Ms();

  char line[256];
  std::snprintf(line, sizeof(line),
                "samples: ro=%zu rw=%zu watch_deltas=%zu "
                "ro_retries=%llu unmatched_deltas=%llu failed_ro=%llu "
                "failed_rw=%llu",
                ro_lat.count(), rw_lat.count(), watch_lag.count(),
                static_cast<unsigned long long>(ro_retries_),
                static_cast<unsigned long long>(deltas_unmatched_),
                static_cast<unsigned long long>(failed_ro),
                static_cast<unsigned long long>(failed_rw));
  out->report.emplace_back(line);

  const core::SystemConfig& config = system_->config();
  for (uint32_t p = 0; p < config.num_partitions; ++p) {
    std::string views = "views p" + std::to_string(p) + ":";
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const core::TransEdgeNode* node = system_->node(p, i);
      views += " " + std::to_string(node->view()) + "/" +
               std::to_string(node->last_applied());
    }
    out->report.push_back(views);
  }
}

void Repetition::LayerMetrics(RepResult* out) const {
  using transedge::wire::MessageType;
  const core::SystemConfig& config = system_->config();
  const Tracer& t = *tracer_;
  auto& m = out->layer;

  // Handler host time by layer (wall clock, like the handler timers);
  // the simulator's own work (timers, event dispatch, the sampler) is the
  // residual.
  const int64_t run_ns = std::llround(out->host_run_wall_s * 1e9);
  auto layer_s = [&](Layer l) { return NsToS(t.LayerNs(l)); };
  m["consensus.follower_propose_host_s"] = layer_s(Layer::kFollowerPropose);
  m["consensus.follower_propose_share_pct"] =
      100.0 * Ratio(static_cast<double>(t.LayerNs(Layer::kFollowerPropose)),
                    static_cast<double>(run_ns));
  m["consensus.commit_host_s"] = layer_s(Layer::kCommit);
  m["consensus.vote_host_s"] = layer_s(Layer::kVote);
  m["consensus.view_change_host_s"] = layer_s(Layer::kViewChange);
  m["batch_pipeline.host_s"] = layer_s(Layer::kPipeline);
  m["two_pc.host_s"] = layer_s(Layer::kTwoPc);
  m["read_only_service.host_s"] = layer_s(Layer::kReadOnly);
  m["watch_service.host_s"] = layer_s(Layer::kWatchService);
  m["client.host_s"] = layer_s(Layer::kClient);
  m["watch_client.host_s"] = layer_s(Layer::kWatchClient);
  m["net.filter_host_s"] = NsToS(t.filter_ns());
  m["sim.timer_host_s"] = NsToS(run_ns - t.HandlerNs() - t.filter_ns());
  m["trace.host_run_s"] = out->host_run_wall_s;

  // Node-level counters, summed over the live replicas.
  uint64_t consensus_msgs = 0, batches_all = 0, batches = 0, view_changes = 0;
  uint64_t round2_served = 0, round2_parked = 0, round2_rejected = 0,
           round2_aborted = 0, keys_pushed = 0;
  storage::StorageIoStats io;
  for (uint32_t p = 0; p < config.num_partitions; ++p) {
    uint64_t decided_max = 0, view_changes_max = 0;
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      const core::TransEdgeNode* node = system_->node(p, i);
      const core::NodeStats& s = node->stats();
      consensus_msgs += s.consensus_msgs_sent;
      batches_all += s.batches_decided;
      decided_max = std::max(decided_max, s.batches_decided);
      view_changes_max = std::max(view_changes_max, s.view_changes);
      round2_served += s.ro_round2_served;
      round2_parked += s.ro_round2_parked;
      round2_rejected += s.ro_round2_rejected;
      round2_aborted += s.ro_round2_aborted;
      keys_pushed += s.watch_keys_pushed;
      const storage::StorageIoStats& d = node->backend().io_stats();
      io.wal_syncs += d.wal_syncs;
      io.wal_bytes += d.wal_bytes;
      io.pages_written += d.pages_written;
      io.checkpoints += d.checkpoints;
    }
    batches += decided_max;
    view_changes += view_changes_max;
  }
  m["consensus.msgs_per_batch"] =
      Ratio(static_cast<double>(consensus_msgs), static_cast<double>(batches));
  m["consensus.view_changes"] = static_cast<double>(view_changes);

  // Admission: batch fill over the batches proposed in the window.
  uint64_t window_batches = 0, window_txns = 0;
  for (uint32_t p = 0; p < config.num_partitions; ++p) {
    const transedge::storage::SmrLog& log = CurrentLeader(p)->log();
    for (BatchId b = log.FirstBatchId(); b <= log.LastBatchId(); ++b) {
      auto entry = log.Get(b);
      if (!entry.ok() || !InWindow(entry.value()->batch.ro.timestamp_us)) {
        continue;
      }
      ++window_batches;
      window_txns += entry.value()->batch.local.size() +
                     entry.value()->batch.prepared.size();
    }
  }
  m["batch_pipeline.txns_per_batch"] = Ratio(
      static_cast<double>(window_txns), static_cast<double>(window_batches));
  m["batch_pipeline.queue_depth_p99"] =
      PercentileOf(t.leader_inprog_samples(), 99);

  uint64_t committed = 0, dist_committed = 0, third_round = 0;
  for (const Request& r : requests_) {
    if (r.outcome != Request::Outcome::kOk) continue;
    if (!r.ro) {
      ++committed;
      if (r.distributed) ++dist_committed;
    }
    if (r.ro && r.third_round) ++third_round;
  }
  auto msgs_of = [&](MessageType type) {
    return t.net(static_cast<uint32_t>(type)).msgs;
  };
  m["two_pc.msgs_per_dist_commit"] =
      Ratio(static_cast<double>(msgs_of(MessageType::kCoordPrepare) +
                                msgs_of(MessageType::kPrepared) +
                                msgs_of(MessageType::kCommitRecord)),
            static_cast<double>(dist_committed));

  m["read_only_service.round2_served"] = static_cast<double>(round2_served);
  m["read_only_service.round2_parked"] = static_cast<double>(round2_parked);
  m["read_only_service.round2_rejected"] = static_cast<double>(round2_rejected);
  m["read_only_service.round2_aborted"] = static_cast<double>(round2_aborted);

  uint64_t client_timeouts = 0;
  for (const core::Client* c : clients_) client_timeouts += c->stats().timeouts;
  m["client.third_round_needed"] = static_cast<double>(third_round);
  m["client.timeouts"] = static_cast<double>(client_timeouts);
  m["client.ro_retries"] = static_cast<double>(ro_retries_);

  uint64_t resubscribes = 0;
  for (const core::WatchClient* w : watchers_) {
    resubscribes += w->stats().resubscribes;
  }
  m["watch_service.keys_pushed"] = static_cast<double>(keys_pushed);
  m["watch_client.resubscribes"] = static_cast<double>(resubscribes);

  m["node.apply_lag_max"] = static_cast<double>(t.apply_lag_max());

  m["storage.wal_syncs"] = static_cast<double>(io.wal_syncs);
  m["storage.wal_bytes_per_batch"] = Ratio(static_cast<double>(io.wal_bytes),
                                           static_cast<double>(batches_all));
  m["storage.pages_written"] = static_cast<double>(io.pages_written);
  m["storage.checkpoints"] = static_cast<double>(io.checkpoints);
  m["storage.catchup_ms"] =
      sim::ToMillis(t.CatchUpTime(system_->env().now()));
  if (spec_.crash_at > 0) {
    out->report.push_back(
        std::string("restarted replica reached its restart-time cluster "
                    "watermark: ") +
        (t.caught_up() ? "yes" : "no, not by the drain's end"));
  }

  m["sim.events"] =
      static_cast<double>(events_driven_ - t.samples_taken());
  m["sim.queue_depth_p99"] = PercentileOf(t.queue_depth_samples(), 99);

  for (uint32_t type = 0; type < Tracer::kMaxType; ++type) {
    if (!IsReportedType(type)) continue;
    const char* name =
        transedge::wire::MessageTypeName(static_cast<MessageType>(type));
    m[std::string("net.msgs.") + name] = static_cast<double>(t.net(type).msgs);
    m[std::string("net.bytes.") + name] =
        static_cast<double>(t.net(type).bytes);
  }
  m["net.msgs.intra"] = static_cast<double>(t.msgs_intra());
  m["net.msgs.inter"] = static_cast<double>(t.msgs_inter());
  m["net.msgs.client"] = static_cast<double>(t.msgs_client());
  m["net.bytes_per_committed_txn"] = Ratio(
      static_cast<double>(t.total_bytes()), static_cast<double>(committed));

  // Per-role handler table for the human-readable report.
  for (size_t role = 0; role < static_cast<size_t>(Role::kCount); ++role) {
    for (uint32_t type = 0; type < Tracer::kMaxType; ++type) {
      const Tracer::HandlerStat& h = t.handler(static_cast<Role>(role), type);
      if (h.calls == 0) continue;
      char line[160];
      std::snprintf(
          line, sizeof(line), "handler %-8s %-22s calls=%-9llu host_s=%.4f",
          RoleName(static_cast<Role>(role)),
          transedge::wire::MessageTypeName(static_cast<MessageType>(type)),
          static_cast<unsigned long long>(h.calls), NsToS(h.self_ns));
      out->report.emplace_back(line);
    }
  }
}

void Repetition::Spans(RepResult* out) const {
  uint64_t next_id = 1;
  for (const Request& r : requests_) {
    if (r.outcome == Request::Outcome::kPending) continue;
    Span root;
    root.id = next_id++;
    root.name = r.ro ? "ro" : "rw";
    root.start = r.due;
    root.end = r.done;
    root.rounds = r.rounds;
    root.ok = r.outcome == Request::Outcome::kOk;
    root.measured = r.measured;
    out->spans.push_back(root);
    if (r.ro && root.ok) {
      Span round1 = root;
      round1.id = next_id++;
      round1.parent = root.id;
      round1.name = "ro.round1";
      round1.start = r.attempt_start;
      round1.end = r.round1_end;
      round1.rounds = 1;
      out->spans.push_back(round1);
    }
  }
}

void Repetition::Checks(RepResult* out) const {
  const core::SystemConfig& config = system_->config();

  // 1. Live replicas of each partition agree on the Merkle root at their
  //    common applied watermark, and each replica's applied tree matches
  //    the certificate of the batch it last applied.
  {
    Check check{"merkle_roots_agree", true, ""};
    for (uint32_t p = 0; p < config.num_partitions; ++p) {
      BatchId common = -1;
      bool first = true;
      for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
        const core::TransEdgeNode* node = system_->node(p, i);
        if (node->halted()) continue;
        common = first ? node->last_applied()
                       : std::min(common, node->last_applied());
        first = false;
      }
      std::optional<transedge::crypto::Digest> root;
      for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
        const core::TransEdgeNode* node = system_->node(p, i);
        if (node->halted()) continue;
        auto own = node->log().Get(node->last_applied());
        if (!own.ok() ||
            own.value()->certificate.merkle_root != node->tree().RootDigest()) {
          check.ok = false;
          check.detail += " p" + std::to_string(p) + "/r" + std::to_string(i) +
                          ":applied-tree-vs-certificate";
          continue;
        }
        auto at_common = node->log().Get(common);
        transedge::crypto::Digest here =
            node->last_applied() == common ? node->tree().RootDigest()
            : at_common.ok() ? at_common.value()->certificate.merkle_root
                             : transedge::crypto::Digest{};
        if (!root.has_value()) root = here;
        if (here != *root) {
          check.ok = false;
          check.detail += " p" + std::to_string(p) + "/r" + std::to_string(i) +
                          ":root-at-" + std::to_string(common);
        }
      }
    }
    out->checks.push_back(check);
  }

  // 2. No read-only or watch verification, gap or duplicate failures.
  {
    uint64_t ro_failures = 0;
    for (const core::Client* c : clients_) {
      ro_failures += c->stats().ro_verification_failures;
    }
    uint64_t watch_fail = 0, gaps = 0, dups = 0;
    for (const core::WatchClient* w : watchers_) {
      watch_fail += w->stats().verification_failures;
      gaps += w->stats().gaps_detected;
      dups += w->stats().duplicates_dropped;
    }
    Check check{"no_verification_gap_or_duplicate_failures",
                ro_failures == 0 && watch_fail == 0 && gaps == 0 && dups == 0,
                ""};
    check.detail = "ro_verify=" + std::to_string(ro_failures) +
                   " watch_verify=" + std::to_string(watch_fail) +
                   " gaps=" + std::to_string(gaps) +
                   " duplicates=" + std::to_string(dups);
    out->checks.push_back(check);
  }

  // 3. Every watch client's cache equals the leaders' certified store over
  //    the hot range.
  if (!watchers_.empty()) {
    const Key lo = *std::min_element(hot_keys_.begin(), hot_keys_.end());
    const Key hi = *std::max_element(hot_keys_.begin(), hot_keys_.end());
    const storage::PartitionMap pmap(config.num_partitions);
    std::map<Key, std::pair<Value, BatchId>> expected;
    for (uint32_t p = 0; p < config.num_partitions; ++p) {
      CurrentLeader(p)->store().ForEachLatest(
          [&](const Key& k, const Value& v, BatchId version) {
            if (k < lo || k > hi || pmap.OwnerOf(k) != p) return;
            expected[k] = {v, version};
          });
    }
    Check check{"watch_cache_matches_leader", true, ""};
    size_t mismatched = 0;
    for (const core::WatchClient* w : watchers_) {
      const auto& cache = w->cache();
      bool same = cache.size() == expected.size();
      for (const auto& [key, want] : expected) {
        auto it = cache.find(key);
        if (it == cache.end() || !it->second.found ||
            it->second.value != want.first ||
            it->second.version != want.second) {
          same = false;
          break;
        }
      }
      if (!same) ++mismatched;
    }
    check.ok = mismatched == 0;
    check.detail = std::to_string(mismatched) + "/" +
                   std::to_string(watchers_.size()) + " caches differ over " +
                   std::to_string(expected.size()) + " keys";
    out->checks.push_back(check);
  }

  if (restart_failed_) {
    out->checks.push_back(
        {"crashed_replica_restarts", false, "recovery failed"});
  }
}

}  // namespace

RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  Repetition rep(spec, seed, traced);
  return rep.Run();
}

}  // namespace perfbench
