#include "core/batch_pipeline.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

namespace transedge::core {

BatchPipeline::BatchPipeline(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

Status BatchPipeline::AdmitCheck(const Transaction& txn) {
  // Rule 1 of Definition 3.1 applies to the keys this partition owns.
  Transaction restricted = ctx_->RestrictToPartition(txn);
  TE_RETURN_IF_ERROR(ctx_->CheckReadVersions(restricted));
  // Rules 2 and 3 use the full footprint: a conflict on a remote key is a
  // conflict the remote partition would reject anyway; catching it here
  // aborts earlier and keeps prepare groups conflict-free.
  if (inprog_index_.ConflictsWith(txn)) {
    return Status::Conflict("conflicts with in-progress batch");
  }
  // Rule 2 continues across the other shards this transaction's
  // footprint touches.
  TE_RETURN_IF_ERROR(hooks_.peer_admit(txn));
  if (ctx_->pending_footprint().ConflictsWith(txn)) {
    return Status::Conflict("conflicts with a prepared transaction");
  }
  // Augustus baseline: shared read locks block writers (Table 1's
  // interference). TransEdge's own read-only path never takes locks.
  if (!txn.write_set.empty() && hooks_.ro_locks_block_writer(restricted)) {
    ++stats_.rw_aborted_by_ro_locks;
    return Status::Conflict("write key is read-locked (Augustus baseline)");
  }
  return Status::OK();
}

void BatchPipeline::RecordAdmitted(const Transaction& txn) {
  inprog_index_.Add(txn);
  indexed_.insert(txn.id);
  hooks_.on_admitted(txn);
}

bool BatchPipeline::HandleCommitRequest(sim::ActorId from,
                                        const wire::CommitRequest& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  const Transaction& txn = msg.txn;
  // A retry of a transaction a (possibly handover-resumed) coordination
  // entry already owns: hand the client back to 2PC instead of dedup-
  // swallowing or — worse — re-admitting it against its own pending
  // footprint.
  if (hooks_.reattach_client && hooks_.reattach_client(txn.id, client)) {
    return false;
  }
  if (seen_txns_.count(txn.id) > 0) return false;  // Duplicate / retry.

  sim::Time done = ctx_->Charge(ctx_->config().cost.admit_per_txn);
  Status admit = AdmitCheck(txn);

  if (txn.IsLocal()) {
    if (!admit.ok()) {
      ++stats_.local_aborted;
      ctx_->ReplyCommit(client, txn.id, false, admit.message(), done);
      return false;
    }
    seen_txns_.insert(txn.id);
    inprog_local_.push_back(txn);
    RecordAdmitted(txn);
    local_waiting_clients_[txn.id] = client;
  } else {
    if (txn.coordinator != ctx_->partition()) {
      ctx_->ReplyCommit(client, txn.id, false, "wrong coordinator cluster",
                        done);
      return false;
    }
    if (!admit.ok()) {
      ++stats_.dist_aborted;
      ctx_->ReplyCommit(client, txn.id, false, admit.message(), done);
      return false;
    }
    seen_txns_.insert(txn.id);
    inprog_prepared_.push_back(txn);
    RecordAdmitted(txn);
    hooks_.begin_coordination(txn, client);
  }
  return true;
}

Status BatchPipeline::AdmitPrepared(const Transaction& txn) {
  if (seen_txns_.count(txn.id) > 0) {
    return Status::AlreadyExists("duplicate coordinator prepare");
  }
  // Marked seen even when the check below rejects: the no-vote we sent
  // is final for this transaction, and the id must keep absorbing the
  // f+1 fan-out duplicates (and byzantine replays of the proof-carrying
  // prepare) — a replayed prepare admitted after the coordinator already
  // decided abort would sit undecided in its prepare group forever.
  // Rejected ids are never in `indexed_`, so the footprint release
  // stays exact.
  seen_txns_.insert(txn.id);
  ctx_->Charge(ctx_->config().cost.admit_per_txn);
  TE_RETURN_IF_ERROR(AdmitCheck(txn));
  inprog_prepared_.push_back(txn);
  RecordAdmitted(txn);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Draining into a proposal
// ---------------------------------------------------------------------------

void BatchPipeline::DrainSegments(std::vector<Transaction>* local,
                                  std::vector<Transaction>* prepared) {
  for (const Transaction& t : inprog_local_) proposed_inflight_.push_back(t.id);
  for (const Transaction& t : inprog_prepared_) {
    proposed_inflight_.push_back(t.id);
  }
  local->insert(local->end(), std::make_move_iterator(inprog_local_.begin()),
                std::make_move_iterator(inprog_local_.end()));
  prepared->insert(prepared->end(),
                   std::make_move_iterator(inprog_prepared_.begin()),
                   std::make_move_iterator(inprog_prepared_.end()));
  inprog_local_.clear();
  inprog_prepared_.clear();
}

// ---------------------------------------------------------------------------
// Post-apply / view-change bookkeeping
// ---------------------------------------------------------------------------

void BatchPipeline::OnBatchApplied(const storage::Batch& logged) {
  // Footprint release and dedup drain run on every replica, not just the
  // current leader: a demoted leader would otherwise keep stale
  // footprints for its in-flight batches, and seen_txns_ would grow
  // unboundedly with every transaction a replica ever admitted. The
  // release is keyed on `indexed_`, the exact record of what this
  // pipeline added (removing a foreign transaction could decrement
  // counts another in-flight admission still owns). Dedup lifetimes
  // differ by kind: a local id drains when its batch applies (the commit
  // reply goes out here), but a distributed id must keep absorbing
  // client retries and prepare-fan-out duplicates until its 2PC decision
  // is applied — i.e. until its commit record lands — or a retry during
  // the pending window would be re-admitted and abort against the
  // transaction's own pending footprint.
  for (const Transaction& t : logged.local) {
    if (indexed_.erase(t.id) > 0) inprog_index_.Remove(t);
    seen_txns_.erase(t.id);
  }
  for (const Transaction& t : logged.prepared) {
    if (indexed_.erase(t.id) > 0) inprog_index_.Remove(t);
  }
  for (const storage::CommitRecord& rec : logged.committed) {
    seen_txns_.erase(rec.txn_id);
  }
  // Release only the applied batch's ids from the proposed-in-flight set:
  // with pipelined proposals, later batches are still undecided and their
  // ids must survive a view change (OnViewChange un-dedups them).
  if (!proposed_inflight_.empty()) {
    std::unordered_set<TxnId> applied_ids;
    for (const Transaction& t : logged.local) applied_ids.insert(t.id);
    for (const Transaction& t : logged.prepared) applied_ids.insert(t.id);
    proposed_inflight_.erase(
        std::remove_if(proposed_inflight_.begin(), proposed_inflight_.end(),
                       [&](TxnId id) { return applied_ids.count(id) > 0; }),
        proposed_inflight_.end());
  }

  // Local transactions are now committed — answer clients.
  sim::Time at = ctx_->busy_until();
  for (const Transaction& t : logged.local) {
    auto it = local_waiting_clients_.find(t.id);
    if (it != local_waiting_clients_.end()) {
      ++stats_.local_committed;
      ctx_->ReplyCommit(it->second, t.id, true, "", at);
      local_waiting_clients_.erase(it);
    }
  }
}

void BatchPipeline::OnViewChange() {
  // Undecided admissions are abandoned — answer the waiting local clients
  // with a retryable abort (they re-issue against the new leader with the
  // same transaction id) instead of leaving them to hang.
  sim::Time at = ctx_->busy_until();
  // Drain in TxnId order: local_waiting_clients_ is an unordered_map, and
  // the abort replies are externally visible messages — iterating the map
  // directly would make reply order (and thus the whole downstream event
  // schedule) depend on the hash implementation.
  std::vector<std::pair<TxnId, sim::ActorId>> waiting(
      local_waiting_clients_.begin(), local_waiting_clients_.end());
  std::sort(waiting.begin(), waiting.end());
  for (const auto& [txn_id, client] : waiting) {
    ctx_->ReplyCommit(client, txn_id, false, "view change", at,
                      /*retryable=*/true);
  }
  local_waiting_clients_.clear();
  // Forget the abandoned ids — queued local *and* prepared, plus the
  // proposed-but-undecided batch — so a retry that lands back here after
  // a re-election is not swallowed by dedup. (Rejected prepares are NOT
  // forgotten: their no-vote is final.)
  for (const Transaction& t : inprog_local_) seen_txns_.erase(t.id);
  for (const Transaction& t : inprog_prepared_) seen_txns_.erase(t.id);
  for (TxnId id : proposed_inflight_) seen_txns_.erase(id);
  proposed_inflight_.clear();
  inprog_local_.clear();
  inprog_prepared_.clear();
  indexed_.clear();
  inprog_index_ = FootprintIndex();
}

}  // namespace transedge::core
