#include "core/sharded_pipeline.h"

#include <algorithm>
#include <set>
#include <utility>

#include "crypto/sha256.h"
#include "txn/cd_vector.h"

namespace transedge::core {

namespace {

/// Prepare-group ids already committed by an in-flight (decided-pending or
/// proposed-undecided) predecessor batch. Groups in this set are spoken
/// for: a new proposal must not commit them again, and their readiness
/// must not trigger a new (otherwise empty) batch.
std::set<BatchId> WindowCommittedGroups(const ProposalChain& chain) {
  std::set<BatchId> committed;
  for (const storage::Batch* p : chain.pending) {
    for (const storage::CommitRecord& rec : p->committed) {
      committed.insert(rec.prepared_in_batch);
    }
  }
  return committed;
}

/// True when some ready prepare group is not yet committed by an in-flight
/// batch — i.e. a new proposal would carry at least one commit record.
bool HasUncommittedReadyGroup(NodeContext* ctx, const ProposalChain& chain) {
  std::set<BatchId> window_committed = WindowCommittedGroups(chain);
  for (const txn::PrepareGroup* group :
       ctx->prepared_batches().ReadyPrefix()) {
    if (window_committed.count(group->prepared_in_batch) == 0) return true;
  }
  return false;
}

/// Builds the next batch from already-admitted segments: assigns the next
/// log position, attaches the committed segment (the ready prefix of
/// prepare groups, Definition 4.1), and computes the LCE and CD vector
/// (Algorithm 1).
storage::Batch BuildBatchFromSegments(NodeContext* ctx,
                                      std::vector<Transaction> local,
                                      std::vector<Transaction> prepared) {
  const storage::SmrLog& log = ctx->mutable_log();
  ProposalChain chain = ctx->proposal_chain();
  storage::Batch batch;
  batch.partition = ctx->partition();
  batch.id = chain.next_id;
  batch.local = std::move(local);
  batch.prepared = std::move(prepared);

  // Committed segment: the ready prefix of prepare groups, in prepare
  // order (Definition 4.1). With predecessors in flight the LCE/CD chain
  // continues from the newest pending batch, and groups it already
  // committed are excluded.
  BatchId lce;
  txn::CdVector cd;
  if (!chain.pending.empty()) {
    lce = chain.pending.back()->ro.lce;
    cd = chain.pending.back()->ro.cd_vector;
  } else {
    lce = log.empty() ? kNoBatch : log.back().batch.ro.lce;
    cd = log.empty() ? txn::CdVector(ctx->config().num_partitions)
                     : log.back().batch.ro.cd_vector;
  }
  if (cd.empty()) cd = txn::CdVector(ctx->config().num_partitions);

  std::set<BatchId> window_committed = WindowCommittedGroups(chain);
  for (const txn::PrepareGroup* group :
       ctx->prepared_batches().ReadyPrefix()) {
    if (window_committed.count(group->prepared_in_batch) > 0) continue;
    for (const txn::PendingTxn& pending : group->txns) {
      storage::CommitRecord rec;
      rec.txn_id = pending.txn.id;
      rec.committed = pending.state == txn::PendingTxn::State::kCommitted;
      rec.prepared_in_batch = group->prepared_in_batch;
      rec.participant_info = pending.participant_info;
      rec.coordinator = pending.txn.coordinator;
      batch.committed.push_back(std::move(rec));
    }
    lce = group->prepared_in_batch;
  }

  // Algorithm 1: derive the CD vector from the previous batch's vector
  // and the CD vectors reported in the prepared messages of every commit
  // record in the committed segment.
  for (const storage::CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;  // Aborts introduce no dependencies.
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.cd_vector.size() == cd.size()) cd.PairwiseMax(info.cd_vector);
    }
  }
  cd.Set(ctx->partition(), batch.id);

  batch.ro.cd_vector = std::move(cd);
  batch.ro.lce = lce;
  batch.ro.timestamp_us = ctx->now();
  return batch;
}

}  // namespace

uint32_t ShardKeyRouter::ShardOf(const Key& key) const {
  if (shard_count_ == 1) return 0;
  crypto::Digest d = crypto::Sha256::Hash(key);
  if (kind_ == ShardRouterKind::kRange) {
    // Merkle leaf-index space (digest bytes 0-3), contiguous ranges.
    uint64_t h = (static_cast<uint64_t>(d.bytes[0]) << 24) |
                 (static_cast<uint64_t>(d.bytes[1]) << 16) |
                 (static_cast<uint64_t>(d.bytes[2]) << 8) |
                 static_cast<uint64_t>(d.bytes[3]);
    return static_cast<uint32_t>((h * shard_count_) >> 32);
  }
  // kHash: bytes 24-27, between the Merkle prefix and the partition
  // suffix, so all three placements are independent.
  uint32_t h = (static_cast<uint32_t>(d.bytes[24]) << 24) |
               (static_cast<uint32_t>(d.bytes[25]) << 16) |
               (static_cast<uint32_t>(d.bytes[26]) << 8) |
               static_cast<uint32_t>(d.bytes[27]);
  return h % shard_count_;
}

ShardedPipeline::ShardedPipeline(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx),
      hooks_(std::move(hooks)),
      router_(ctx->config().pipeline_shards,
              ctx->config().pipeline_shard_router) {
  uint32_t n = router_.shard_count();
  shards_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    BatchPipeline::Hooks shard_hooks = hooks_;
    shard_hooks.peer_admit = [this, s](const Transaction& txn) -> Status {
      for (uint32_t t : PlanFor(txn).touched) {
        if (t != s && shards_[t]->FootprintConflicts(txn)) {
          return Status::Conflict("conflicts with in-progress batch");
        }
      }
      return Status::OK();
    };
    shard_hooks.on_admitted = [this, s](const Transaction& txn) {
      for (uint32_t t : PlanFor(txn).touched) {
        if (t == s) continue;
        Transaction slice = SliceToShard(txn, t);
        shards_[t]->RecordPeerFootprint(slice);
        peer_slices_[txn.id].emplace_back(t, std::move(slice));
      }
    };
    shards_.push_back(
        std::make_unique<BatchPipeline>(ctx_, std::move(shard_hooks)));
  }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

const ShardedPipeline::ShardPlan& ShardedPipeline::PlanFor(
    const Transaction& txn) const {
  if (plan_.valid && plan_.txn_id == txn.id) return plan_;
  plan_.txn_id = txn.id;
  plan_.read_shards.clear();
  plan_.write_shards.clear();
  plan_.touched.clear();
  auto add = [&](const Key& key, std::vector<uint32_t>* out) {
    uint32_t s = router_.ShardOf(key);
    out->push_back(s);
    if (std::find(plan_.touched.begin(), plan_.touched.end(), s) ==
        plan_.touched.end()) {
      plan_.touched.push_back(s);
    }
  };
  for (const ReadOp& r : txn.read_set) add(r.key, &plan_.read_shards);
  for (const WriteOp& w : txn.write_set) add(w.key, &plan_.write_shards);
  if (plan_.touched.empty()) plan_.touched.push_back(0);
  std::sort(plan_.touched.begin(), plan_.touched.end());
  plan_.valid = true;
  return plan_;
}

Transaction ShardedPipeline::SliceToShard(const Transaction& txn,
                                          uint32_t shard) const {
  const ShardPlan& plan = PlanFor(txn);
  Transaction out;
  out.id = txn.id;
  for (size_t i = 0; i < txn.read_set.size(); ++i) {
    if (plan.read_shards[i] == shard) out.read_set.push_back(txn.read_set[i]);
  }
  for (size_t i = 0; i < txn.write_set.size(); ++i) {
    if (plan.write_shards[i] == shard) {
      out.write_set.push_back(txn.write_set[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Admission entry points
// ---------------------------------------------------------------------------

void ShardedPipeline::HandleCommitRequest(sim::ActorId from,
                                          const wire::CommitRequest& msg) {
  if (shards_[HomeShardOf(msg.txn)]->HandleCommitRequest(from, msg)) {
    MaybeProposeOnSize();
  }
}

Status ShardedPipeline::AdmitPrepared(const Transaction& txn) {
  return shards_[HomeShardOf(txn)]->AdmitPrepared(txn);
}

bool ShardedPipeline::AlreadySeen(TxnId txn_id) const {
  for (const auto& shard : shards_) {
    if (shard->AlreadySeen(txn_id)) return true;
  }
  return false;
}

bool ShardedPipeline::HasIndexed(TxnId txn_id) const {
  for (const auto& shard : shards_) {
    if (shard->HasIndexed(txn_id)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Proposal loop
// ---------------------------------------------------------------------------

void ShardedPipeline::OnStart() {
  ArmBatchTimer();
  // The genesis batch certifies the preloaded state right away so that
  // read-only transactions have a certificate to verify against.
  if (ctx_->byzantine() != ByzantineBehavior::kCrash && ShouldPropose()) {
    ProposeBatch();
  }
}

void ShardedPipeline::ArmBatchTimer() {
  ctx_->Schedule(ctx_->config().batch_interval, [this] {
    if (ctx_->byzantine() != ByzantineBehavior::kCrash && ShouldPropose()) {
      ProposeBatch();
    }
    ArmBatchTimer();
  });
}

bool ShardedPipeline::ShouldPropose() const {
  if (!ctx_->IsLeader() || ctx_->ReproposalPending()) return false;
  const bool decoupled = ctx_->DecoupledApply();
  if (decoupled) {
    // Pipelined gate: up to EffectivePipelineDepth consensus instances may
    // run concurrently. `proposing_` (cleared only when a batch *applies*)
    // would re-serialize proposals on the storage stack.
    if (ctx_->ConsensusInFlight() >= ctx_->EffectivePipelineDepth()) {
      return false;
    }
  } else if (proposing_) {
    return false;
  }
  if (ctx_->mutable_log().empty()) {
    // Genesis batch, certifies preload state — once; with decoupled
    // proposals the genesis instance may already be in flight.
    return !decoupled || ctx_->ConsensusInFlight() == 0;
  }
  if (in_progress_size() > 0) return true;
  // A ready prepare group justifies a batch only if no in-flight
  // predecessor already committed it (else the batch would be empty).
  return HasUncommittedReadyGroup(ctx_, ctx_->proposal_chain());
}

void ShardedPipeline::MaybeProposeOnSize() {
  bool slot_free =
      ctx_->DecoupledApply()
          ? ctx_->ConsensusInFlight() < ctx_->EffectivePipelineDepth()
          : !proposing_;
  if (ctx_->IsLeader() && slot_free && !ctx_->ReproposalPending() &&
      in_progress_size() >= ctx_->config().max_batch_size) {
    ProposeBatch();
  }
}

void ShardedPipeline::ProposeBatch() {
  proposing_ = true;
  // Deterministic merge: by shard index, then admission order within the
  // shard (DrainSegments preserves queue order).
  std::vector<Transaction> local;
  std::vector<Transaction> prepared;
  std::vector<size_t> shard_sizes;
  shard_sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard_sizes.push_back(shard->in_progress_size());
    shard->DrainSegments(&local, &prepared);
  }
  storage::Batch batch =
      BuildBatchFromSegments(ctx_, std::move(local), std::move(prepared));
  // The committed segment is assembled with shard 0's segments: one shard
  // pays the superlinear term on the whole batch.
  shard_sizes[0] += batch.committed.size();
  ctx_->Charge(ctx_->ShardedBatchComputeCost(
                   shard_sizes, ctx_->config().cost.admit_per_txn / 4) +
               ctx_->config().cost.signature_op);

  // Compute the post-state Merkle root on a structural-sharing clone of
  // the chain head: the newest in-flight post-state when pipelining, the
  // decided tree otherwise (identical to the applied tree under
  // synchronous apply).
  ProposalChain chain = ctx_->proposal_chain();
  merkle::MerkleTree post_tree = chain.head_tree->Clone();
  const txn::PreparedBatches& prepared_batches = ctx_->prepared_batches();
  post_tree.PutBatch(
      storage::AppliedWrites(
          batch, ctx_->partition_map(), ctx_->partition(),
          [&](TxnId id) { return prepared_batches.FindTxn(id); }),
      batch.id);
  batch.ro.merkle_root = post_tree.RootDigest();

  hooks_.propose(std::move(batch), std::move(post_tree));
}

// ---------------------------------------------------------------------------
// Post-apply / view-change fan-out
// ---------------------------------------------------------------------------

void ShardedPipeline::OnBatchApplied(const storage::Batch& logged) {
  proposing_ = false;
  // Release the footprint slices a cross-shard admission recorded in its
  // peer shards (a follower applying the leader's batch recorded none).
  if (!peer_slices_.empty()) {
    auto release = [&](const Transaction& t) {
      auto it = peer_slices_.find(t.id);
      if (it == peer_slices_.end()) return;
      for (const auto& [shard, slice] : it->second) {
        shards_[shard]->ReleasePeerFootprint(slice);
      }
      peer_slices_.erase(it);
    };
    for (const Transaction& t : logged.local) release(t);
    for (const Transaction& t : logged.prepared) release(t);
  }
  // Each shard acts only on the ids it admitted: footprint release,
  // dedup drain, and its local clients' replies, in shard order.
  for (const auto& shard : shards_) shard->OnBatchApplied(logged);
}

void ShardedPipeline::OnViewChange() {
  proposing_ = false;
  // Every shard drops its whole index, peer slices included.
  peer_slices_.clear();
  for (const auto& shard : shards_) shard->OnViewChange();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t ShardedPipeline::in_progress_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->in_progress_size();
  return total;
}

size_t ShardedPipeline::seen_txn_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->seen_txn_count();
  return total;
}

ShardedPipeline::Stats ShardedPipeline::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const Stats& s = shard->stats();
    total.local_committed += s.local_committed;
    total.local_aborted += s.local_aborted;
    total.dist_aborted += s.dist_aborted;
    total.rw_aborted_by_ro_locks += s.rw_aborted_by_ro_locks;
  }
  return total;
}

}  // namespace transedge::core
