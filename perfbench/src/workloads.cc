// The three workloads of record. See perfbench/README.md for why each
// exists and which layers it is meant to load.

#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

/// The paper's §5.1 deployment as the repository's figure benches set it
/// up (5 clusters of 7 replicas, 15 ms batch cadence, calibrated cost
/// model, 300 us / 1 ms / 150 us links) — except that followers always
/// recompute the Merkle root, as tests and deployments do.
WorkloadSpec PaperDefaults() {
  WorkloadSpec spec;
  core::SystemConfig& c = spec.config;
  c.num_partitions = 5;
  c.f = 2;
  c.batch_interval = sim::Millis(15);
  c.max_batch_size = 2000;
  c.merkle_depth = 13;
  c.cost.admit_per_txn = sim::Micros(2);
  c.cost.validate_per_txn = sim::Micros(6);
  c.cost.apply_per_txn = sim::Micros(3);
  c.cost.batch_overhead = sim::Millis(10);
  c.cost.batch_quadratic_ns = 3.0;
  c.cost.ro_serve_per_key = sim::Micros(3);
  c.simulate_shared_merkle = false;
  spec.env.intra_site_latency = sim::Micros(300);
  spec.env.inter_site_latency = sim::Millis(1);
  spec.env.latency_jitter = sim::Micros(150);
  return spec;
}

WorkloadSpec EdgeReads() {
  WorkloadSpec spec = PaperDefaults();
  spec.name = "edge_reads";
  spec.num_keys = 20000;
  spec.preload = true;
  spec.ro_rate = 2000;
  spec.ro_keys = 5;
  spec.ro_clusters = 5;
  // Rare enough that about a fifth of reads need a second round, so the
  // read percentiles sit inside the one- and two-round modes, not between.
  spec.rw_rate = 3.5;
  spec.rw_reads = 5;
  spec.rw_writes = 3;
  spec.rw_clusters = 5;
  spec.hot_keys = 32;
  spec.watchers = 64;
  spec.clients = 25;
  spec.warmup = sim::Millis(200);
  spec.measure = sim::Seconds(2);
  return spec;
}

WorkloadSpec WriteSaturate() {
  WorkloadSpec spec = PaperDefaults();
  spec.name = "write_saturate";
  spec.config.num_partitions = 1;
  spec.config.merkle_depth = 16;
  spec.config.max_batch_size = 128;
  spec.num_keys = 1000000;
  spec.preload = false;
  spec.saturate_loops = 2 * 128;
  spec.saturate_writes = 3;
  // Light probes so read latency under write saturation is measured.
  spec.ro_rate = 1000;
  spec.ro_keys = 3;
  spec.ro_clusters = 1;
  spec.hot_keys = 4;
  spec.watchers = 32;
  spec.clients = 8;
  spec.warmup = sim::Millis(100);
  spec.measure = sim::Seconds(1);
  return spec;
}

WorkloadSpec MixedFailover() {
  WorkloadSpec spec = PaperDefaults();
  spec.name = "mixed_failover";
  core::SystemConfig& c = spec.config;
  c.consensus_kind = core::ConsensusKind::kLinearVote;
  c.pipeline_depth = 4;
  c.async_apply = true;
  c.storage_kind = transedge::storage::StorageKind::kPaged;
  c.durability.wal_group_commit = 4;
  c.durability.checkpoint_interval = 32;
  spec.num_keys = 20000;
  spec.preload = true;
  spec.ro_rate = 1000;
  spec.ro_keys = 5;
  spec.ro_clusters = 5;
  spec.rw_rate = 5;
  spec.rw_reads = 4;
  spec.rw_writes = 2;
  spec.rw_clusters = 2;
  // Keeps every cluster batching: a cluster with only sparse distributed
  // traffic stalls and changes view under linear voting with async apply.
  spec.local_rate = 200;
  spec.local_writes = 2;
  spec.hot_keys = 32;
  spec.watchers = 8;
  spec.clients = 25;
  spec.warmup = sim::Millis(200);
  spec.measure = sim::Seconds(4);
  spec.max_drain = sim::Seconds(6);
  // A follower outside the f+1 replicas that 2PC legs address: crashing
  // the leader, or replica 1, stalls reads for seconds on some seeds.
  spec.crash_at = sim::Millis(1200);
  spec.restart_after = sim::Seconds(1);
  spec.crash_replica = 3;
  return spec;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      EdgeReads(), WriteSaturate(), MixedFailover()};
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace perfbench
