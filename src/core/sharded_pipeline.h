#ifndef TRANSEDGE_CORE_SHARDED_PIPELINE_H_
#define TRANSEDGE_CORE_SHARDED_PIPELINE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/node_context.h"

namespace transedge::core {

/// Routes keys to admission shards (SystemConfig::pipeline_shards). Both
/// policies hash the key once with SHA-256 and carve the digest so that
/// shard choice is independent from partition ownership (digest bytes
/// 28–31) and, for kHash, from the Merkle leaf index (bytes 0–3):
///
///   kHash   — bytes 24–27 modulo the shard count (uniform spray).
///   kRange  — bytes 0–3 (the Merkle leaf-index space) split into
///             contiguous equal ranges, so one shard's conflict index
///             covers a contiguous slice of the authenticated tree.
class ShardKeyRouter {
 public:
  ShardKeyRouter(uint32_t shard_count, ShardRouterKind kind)
      : shard_count_(shard_count == 0 ? 1 : shard_count), kind_(kind) {}

  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(const Key& key) const;

 private:
  uint32_t shard_count_;
  ShardRouterKind kind_;
};

/// The leader's admission front end and its one proposal loop (Figure
/// 2): N BatchPipeline admission shards over disjoint key ranges, one
/// proposed batch. N is SystemConfig::pipeline_shards; the default of 1
/// runs the same code with a single shard. Each shard owns the admission
/// queues, conflict index, waiting clients, and dedup set for the
/// transactions homed to it (home = the lowest shard its footprint
/// touches):
///
///   - admission routes a commit request / coordinator prepare to its
///     home shard; Definition 3.1's rule 2 continues across the other
///     touched shards through the peer_admit hook, and the footprint
///     slices of a cross-shard transaction are recorded in every shard
///     they fall in, so two shards can never admit conflicting work;
///   - this class owns the batch timer, the size trigger (total
///     in-progress size across shards), and the proposal: shard
///     segments are concatenated deterministically (by shard index, then
///     admission order within the shard) into one batch with one
///     committed segment / LCE / CD vector / Merkle root, so consensus,
///     2PC, and the read-only path see a perfectly ordinary batch;
///   - the superlinear batch-construction pressure term is paid per
///     shard (NodeContext::ShardedBatchComputeCost), which is what lifts
///     the single-conflict-index admission bottleneck at high client
///     counts.
class ShardedPipeline {
 public:
  /// The node-level hooks: the shards' begin_coordination,
  /// reattach_client and ro_locks_block_writer (the shard hooks are wired
  /// internally), plus `propose`.
  struct Hooks : BatchPipeline::Hooks {
    /// Hands a freshly built batch (and its post-state tree) to consensus.
    std::function<void(storage::Batch, merkle::MerkleTree)> propose;
  };
  using Stats = BatchPipeline::Stats;

  ShardedPipeline(NodeContext* ctx, Hooks hooks);

  /// Arms the batch timer and proposes the genesis batch when leader.
  void OnStart();
  void HandleCommitRequest(sim::ActorId from, const wire::CommitRequest& msg);
  Status AdmitPrepared(const Transaction& txn);
  bool AlreadySeen(TxnId txn_id) const;
  /// True while some shard still holds the id's footprint (admitted,
  /// neither applied nor abandoned).
  bool HasIndexed(TxnId txn_id) const;
  /// Proposes when the in-progress size across shards reached the size
  /// trigger and a consensus slot is free.
  void MaybeProposeOnSize();
  void OnBatchApplied(const storage::Batch& logged);
  void OnViewChange();

  size_t in_progress_size() const;
  size_t seen_txn_count() const;
  /// Aggregated over the shards.
  Stats stats() const;

  uint32_t shard_count() const { return router_.shard_count(); }
  const ShardKeyRouter& router() const { return router_; }
  /// Introspection for tests: one shard's in-progress queue depth.
  size_t shard_in_progress(uint32_t shard) const {
    return shards_[shard]->in_progress_size();
  }

 private:
  /// One transaction's routing, computed with a single hash per key:
  /// per-key shard choices (parallel to the read/write sets) plus the
  /// distinct touched shards, ascending ({0} for an empty footprint —
  /// the home shard is touched.front()).
  struct ShardPlan {
    TxnId txn_id = 0;
    bool valid = false;
    std::vector<uint32_t> read_shards;
    std::vector<uint32_t> write_shards;
    std::vector<uint32_t> touched;
  };
  /// Memoized per transaction id: admission and apply each query the
  /// routing of the same transaction several times (home, peer checks,
  /// slices) in direct succession, and footprints are immutable per id.
  const ShardPlan& PlanFor(const Transaction& txn) const;

  uint32_t HomeShardOf(const Transaction& txn) const {
    return PlanFor(txn).touched.front();
  }
  /// The subset of `txn`'s footprint routed to `shard`.
  Transaction SliceToShard(const Transaction& txn, uint32_t shard) const;

  /// Arms the recurring batch timer on every replica (only the current
  /// leader proposes, so a freshly elected leader starts batching
  /// immediately); a crash-stopped replica's tick proposes nothing.
  void ArmBatchTimer();
  /// Leader, not already proposing, and (empty log => genesis) | queued
  /// admissions | a ready prepare group no in-flight batch committed.
  bool ShouldPropose() const;
  void ProposeBatch();

  NodeContext* ctx_;
  Hooks hooks_;
  ShardKeyRouter router_;
  std::vector<std::unique_ptr<BatchPipeline>> shards_;
  mutable ShardPlan plan_;  // Last-transaction routing memo.
  /// Footprint slices recorded in peer shards, per cross-shard admission,
  /// released exactly as recorded when the transaction applies.
  std::unordered_map<TxnId, std::vector<std::pair<uint32_t, Transaction>>>
      peer_slices_;
  bool proposing_ = false;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_SHARDED_PIPELINE_H_
