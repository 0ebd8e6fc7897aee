#ifndef TRANSEDGE_CORE_BATCH_PIPELINE_H_
#define TRANSEDGE_CORE_BATCH_PIPELINE_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/node_context.h"
#include "storage/batch.h"
#include "wire/message.h"

namespace transedge::core {

/// One admission shard of the leader (Definition 3.1): the in-progress
/// transaction queues, the conflict footprint of everything in flight,
/// the waiting local clients and the 2PC dedup set for the transactions
/// homed to it.
///
/// A shard never proposes and never talks to consensus or 2PC directly:
/// ShardedPipeline hosts one instance per key-range shard
/// (SystemConfig::pipeline_shards, one by default) and owns the batch
/// timer, the size trigger and the proposal, which drains every shard's
/// segments. Distributed transactions that pass admission are handed to
/// `begin_coordination`.
class BatchPipeline {
 public:
  struct Stats {
    uint64_t local_committed = 0;
    uint64_t local_aborted = 0;
    uint64_t dist_aborted = 0;
    uint64_t rw_aborted_by_ro_locks = 0;  // Augustus interference (Table 1).
  };

  struct Hooks {
    /// A distributed transaction passed admission with us as coordinator.
    std::function<void(const Transaction&, sim::ActorId)> begin_coordination;
    /// Consulted before dedup/admission of a commit request: true when a
    /// live (possibly handover-resumed) coordination already owns the
    /// transaction id — the 2PC layer attached the retrying client or
    /// answered it, and the request must not be re-admitted.
    std::function<bool(TxnId, sim::ActorId)> reattach_client;
    /// Augustus-baseline interference: true if a shared read lock blocks
    /// this (partition-restricted) writer.
    std::function<bool(const Transaction&)> ro_locks_block_writer;

    // --- Shard hooks (set by ShardedPipeline) ---------------------------
    /// Definition 3.1 rule-2 check against the in-progress indexes of the
    /// other shards a cross-shard transaction touches.
    std::function<Status(const Transaction&)> peer_admit;
    /// A transaction passed admission here: record its footprint slices
    /// in the other touched shards.
    std::function<void(const Transaction&)> on_admitted;
  };

  BatchPipeline(NodeContext* ctx, Hooks hooks);

  /// Client commit request (leader only; the node routes). True when the
  /// transaction joined this shard's queues, so the size trigger is due.
  bool HandleCommitRequest(sim::ActorId from, const wire::CommitRequest& msg);

  /// 2PC participant path: admission for a transaction another cluster
  /// coordinates. Marks the transaction seen and, on success, enqueues it
  /// for the next batch. AlreadyExists for duplicates.
  Status AdmitPrepared(const Transaction& txn);

  /// 2PC dedup across commit requests and coordinator prepares.
  bool AlreadySeen(TxnId txn_id) const { return seen_txns_.count(txn_id) > 0; }

  /// True while `txn_id`'s footprint is held in this pipeline's
  /// in-progress index (admitted here and not yet applied or abandoned).
  bool HasIndexed(TxnId txn_id) const { return indexed_.count(txn_id) > 0; }

  /// Post-apply bookkeeping for a decided batch `logged`: releases the
  /// footprints and dedup entries of transactions this shard admitted
  /// (on every replica — a demoted leader must not keep stale state) and
  /// answers its local clients when leader. Ids this shard never held
  /// are ignored, so every shard is handed the whole batch.
  void OnBatchApplied(const storage::Batch& logged);

  /// A new view was adopted: abandon undecided admissions and abort-reply
  /// the local clients waiting on them (retryable — the client re-issues
  /// against the new leader).
  void OnViewChange();

  // --- Cross-shard API (used by ShardedPipeline) -------------------------
  /// Definition 3.1 rule-2 check of `txn` against this shard's index.
  bool FootprintConflicts(const Transaction& txn) const {
    return inprog_index_.ConflictsWith(txn);
  }
  /// Records / releases the slice of a cross-shard transaction's
  /// footprint that falls in this shard's key range. The slice must be
  /// released with exactly the keys it was recorded with.
  void RecordPeerFootprint(const Transaction& slice) {
    inprog_index_.Add(slice);
  }
  void ReleasePeerFootprint(const Transaction& slice) {
    inprog_index_.Remove(slice);
  }
  /// Moves this shard's admitted segments onto the proposed batch (the
  /// footprints stay indexed until the decided batch applies).
  void DrainSegments(std::vector<Transaction>* local,
                     std::vector<Transaction>* prepared);

  size_t in_progress_size() const {
    return inprog_local_.size() + inprog_prepared_.size();
  }
  /// Dedup entries currently held. Applied and view-change-abandoned
  /// admissions drain out (tests assert it); only rejected coordinator
  /// prepares are retained, as the permanent no-vote record for the f+1
  /// fan-out.
  size_t seen_txn_count() const { return seen_txns_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  /// Definition 3.1 admission check for `txn` (full footprint; store
  /// checks restricted to this partition's keys).
  Status AdmitCheck(const Transaction& txn);

  /// Indexes an admitted transaction's footprint and fans the slices
  /// out to the peer shards it touches.
  void RecordAdmitted(const Transaction& txn);

  NodeContext* ctx_;
  Hooks hooks_;

  std::vector<Transaction> inprog_local_;
  std::vector<Transaction> inprog_prepared_;
  FootprintIndex inprog_index_;  // In-progress + in-flight batches.
  std::unordered_map<TxnId, sim::ActorId> local_waiting_clients_;
  std::unordered_set<TxnId> seen_txns_;  // 2PC dedup.
  /// Ids whose footprints are currently in `inprog_index_` — admitted
  /// here, neither applied nor abandoned. Kept apart from the dedup set
  /// (rejected prepares are seen but never indexed; dedup survives
  /// longer than the footprint) so the post-apply release removes
  /// exactly what this pipeline added.
  std::unordered_set<TxnId> indexed_;
  /// Ids drained out of the queues into a proposed-but-undecided batch;
  /// their footprints are still indexed, so a view change must forget
  /// them from `seen_txns_` together with the queued ids.
  std::vector<TxnId> proposed_inflight_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_PIPELINE_H_
