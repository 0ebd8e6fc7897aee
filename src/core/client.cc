#include "core/client.h"

#include <algorithm>
#include <cassert>

#include "merkle/merkle_tree.h"

namespace transedge::core {

namespace {
template <typename T>
std::shared_ptr<const T> Share(T msg) {
  return std::make_shared<const T>(std::move(msg));
}
}  // namespace

Client::Client(const SystemConfig& config, crypto::NodeId id,
               sim::Environment* env, const crypto::Verifier* verifier)
    : config_(config),
      id_(id),
      env_(env),
      verifier_(verifier),
      partition_map_(config.num_partitions),
      view_hint_(config.num_partitions, 0),
      // Request ids are globally unique (client id in the high bits):
      // nodes key per-request state (Augustus locks, parked reads) by
      // them, so two clients must never collide.
      next_request_id_((static_cast<uint64_t>(id) << 32) | 1) {}

void Client::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  (void)from;
  using wire::MessageType;
  switch (static_cast<MessageType>(msg->type())) {
    case MessageType::kClientReadReply:
      HandleClientReadReply(static_cast<const wire::ClientReadReply&>(*msg));
      break;
    case MessageType::kCommitReply:
      HandleCommitReply(static_cast<const wire::CommitReply&>(*msg));
      break;
    case MessageType::kRoReply:
      HandleRoReply(static_cast<const wire::RoReply&>(*msg));
      break;
    case MessageType::kAugustusRoReply:
      HandleAugustusRoReply(static_cast<const wire::AugustusRoReply&>(*msg));
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Read-write transactions
// ---------------------------------------------------------------------------

void Client::ExecuteReadWrite(std::vector<Key> read_keys,
                              std::vector<WriteOp> writes, RwCallback done) {
  uint64_t op_id = next_request_id_++;
  RwOp& op = rw_ops_[op_id];
  op.read_keys = std::move(read_keys);
  op.writes = std::move(writes);
  op.done = std::move(done);
  op.start = env_->now();
  op.txn_id = MakeTxnId(id_, next_txn_seq_++);
  txn_op_[op.txn_id] = op_id;
  StartRw(op_id, &op);
}

void Client::StartRw(uint64_t op_id, RwOp* op) {
  if (op->read_keys.empty()) {
    SendCommit(op);
  } else {
    for (const Key& key : op->read_keys) {
      uint64_t req = next_request_id_++;
      request_op_[req] = op_id;
      op->read_request_keys[req] = key;
      ++op->reads_outstanding;
      wire::ClientReadRequest msg;
      msg.request_id = req;
      msg.reply_to = id_;
      msg.key = key;
      env_->network().Send(id_, LeaderOf(partition_map_.OwnerOf(key)),
                           Share(std::move(msg)));
    }
  }
  ArmRwTimeout(op_id);
}

void Client::ExecuteReadOnlyAsRegular(std::vector<Key> keys, RwCallback done) {
  // The 2PC/BFT baseline (§3.5): the same reads, committed as a regular
  // transaction with an empty write set through BFT consensus + 2PC.
  ExecuteReadWrite(std::move(keys), {}, std::move(done));
}

void Client::HandleClientReadReply(const wire::ClientReadReply& msg) {
  auto req_it = request_op_.find(msg.request_id);
  if (req_it == request_op_.end()) return;
  uint64_t op_id = req_it->second;
  request_op_.erase(req_it);
  auto op_it = rw_ops_.find(op_id);
  if (op_it == rw_ops_.end()) return;
  RwOp& op = op_it->second;

  op.reads[msg.key] = {msg.found ? std::optional<Value>(msg.value)
                                 : std::nullopt,
                       msg.version};
  if (--op.reads_outstanding == 0 && !op.commit_sent) {
    SendCommit(&op);
  }
}

void Client::SendCommit(RwOp* op) {
  op->commit_sent = true;
  Transaction txn;
  txn.id = op->txn_id;
  for (const Key& key : op->read_keys) {
    auto it = op->reads.find(key);
    BatchId version = it != op->reads.end() ? it->second.second : kNoBatch;
    txn.read_set.push_back(ReadOp{key, version});
  }
  txn.write_set = op->writes;
  txn.participants =
      partition_map_.ParticipantsOf(txn.read_set, txn.write_set);
  // The client picks one accessed cluster as coordinator (§3.3.1);
  // spread the choice deterministically across participants.
  txn.coordinator =
      txn.participants[op->txn_id % txn.participants.size()];

  auto msg = std::make_shared<const wire::CommitRequest>([&] {
    wire::CommitRequest m;
    m.reply_to = id_;
    m.txn = txn;
    return m;
  }());
  if (op->retries_left < 3) {
    // Retry path: the leader may be faulty. Send to every replica of the
    // coordinator cluster (§3.3.1's f+1 fan-out, widened so that 2f+1
    // honest replicas arm progress timers); followers forward to their
    // leader and the leader deduplicates.
    for (crypto::NodeId member : config_.ClusterMembers(txn.coordinator)) {
      env_->network().Send(id_, member, msg);
    }
  } else {
    env_->network().Send(id_, LeaderOf(txn.coordinator), msg);
  }
}

void Client::HandleCommitReply(const wire::CommitReply& msg) {
  auto txn_it = txn_op_.find(msg.txn_id);
  if (txn_it == txn_op_.end()) return;
  uint64_t op_id = txn_it->second;
  auto op_it = rw_ops_.find(op_id);
  if (op_it == rw_ops_.end()) return;
  RwOp& op = op_it->second;

  if (!msg.committed && msg.retryable) {
    // A view change abandoned the admission; the transaction was never
    // decided, so re-issue it against the new leader instead of
    // surfacing an abort. A reply can only answer a sent commit: if this
    // attempt has not sent one yet (a timeout already re-issued and the
    // old leader's abort arrived late), the abort belongs to a
    // superseded attempt — drop it and let the live attempt proceed.
    if (!op.commit_sent) return;
    if (RetryRw(op_id)) return;
    // Retries exhausted. The abort may still be stale (a delayed reply
    // to an earlier attempt while the live one is deciding), and a
    // retryable abort never carries a final decision — never surface it
    // as one. The live attempt's own reply or the timeout resolves the
    // op.
    return;
  }

  RwResult result;
  result.txn_id = msg.txn_id;
  result.committed = msg.committed;
  result.reason = msg.reason;
  result.latency = env_->now() - op.start;
  for (const auto& [key, read] : op.reads) result.reads[key] = read.first;
  FinishRw(op_id, std::move(result));
}

void Client::FinishRw(uint64_t op_id, RwResult result) {
  auto op_it = rw_ops_.find(op_id);
  if (op_it == rw_ops_.end()) return;
  RwOp op = std::move(op_it->second);
  rw_ops_.erase(op_it);
  txn_op_.erase(op.txn_id);
  // check:allow(unordered-iter): only erases point entries from
  // request_op_; no externally visible effect depends on iteration order.
  for (const auto& [req, key] : op.read_request_keys) request_op_.erase(req);
  if (result.committed) {
    ++stats_.rw_committed;
  } else {
    ++stats_.rw_aborted;
  }
  if (op.done) op.done(std::move(result));
}

bool Client::RetryRw(uint64_t op_id) {
  auto it = rw_ops_.find(op_id);
  if (it == rw_ops_.end()) return false;
  RwOp& op = it->second;
  if (op.retries_left-- <= 0) return false;
  // Rotate the leader hint for every touched partition and retry.
  for (uint64_t& hint : view_hint_) ++hint;
  op.commit_sent = false;
  op.reads.clear();
  op.reads_outstanding = 0;
  // check:allow(unordered-iter): only erases point entries from
  // request_op_; no externally visible effect depends on iteration order.
  for (const auto& [req, key] : op.read_request_keys) {
    request_op_.erase(req);
  }
  op.read_request_keys.clear();
  std::vector<Key> read_keys = op.read_keys;
  std::vector<WriteOp> writes = op.writes;
  RwCallback done = std::move(op.done);
  TxnId txn_id = op.txn_id;
  sim::Time start = op.start;
  int retries = op.retries_left;
  rw_ops_.erase(it);
  txn_op_.erase(txn_id);
  // Re-issue with the same transaction id (the new leader has not
  // seen it; dedup protects against the old one).
  uint64_t new_op = next_request_id_++;
  RwOp& fresh = rw_ops_[new_op];
  fresh.read_keys = std::move(read_keys);
  fresh.writes = std::move(writes);
  fresh.done = std::move(done);
  fresh.start = start;
  fresh.txn_id = txn_id;
  fresh.retries_left = retries;
  txn_op_[txn_id] = new_op;
  StartRw(new_op, &fresh);
  return true;
}

void Client::ArmRwTimeout(uint64_t op_id) {
  auto op_it = rw_ops_.find(op_id);
  if (op_it == rw_ops_.end()) return;
  uint64_t epoch = ++op_it->second.epoch;
  env_->Schedule(config_.client_timeout, [this, op_id, epoch] {
    auto it = rw_ops_.find(op_id);
    if (it == rw_ops_.end() || it->second.epoch != epoch) return;
    if (RetryRw(op_id)) return;
    ++stats_.timeouts;
    RwOp& op = rw_ops_.find(op_id)->second;
    RwResult result;
    result.txn_id = op.txn_id;
    result.committed = false;
    result.reason = "client timeout";
    result.latency = env_->now() - op.start;
    FinishRw(op_id, std::move(result));
  });
}

// ---------------------------------------------------------------------------
// Read-only transactions (TransEdge protocol)
// ---------------------------------------------------------------------------

void Client::ExecuteReadOnly(std::vector<Key> keys, RoCallback done) {
  uint64_t op_id = next_request_id_++;
  RoOp& op = ro_ops_[op_id];
  op.keys = std::move(keys);
  op.done = std::move(done);
  op.start = env_->now();
  for (const Key& key : op.keys) {
    op.by_partition[partition_map_.OwnerOf(key)].push_back(key);
  }
  for (const auto& [partition, part_keys] : op.by_partition) {
    uint64_t req = next_request_id_++;
    request_op_[req] = op_id;
    ++op.outstanding;
    wire::RoRequest msg;
    msg.request_id = req;
    msg.reply_to = id_;
    msg.keys = part_keys;
    env_->network().Send(id_, LeaderOf(partition), Share(std::move(msg)));
  }
  ArmRoTimeout(op_id);
}

Status VerifyCertifiedReads(const crypto::Verifier& verifier,
                            const SystemConfig& config, PartitionId partition,
                            BatchId batch_id,
                            const std::vector<wire::AuthenticatedRead>& entries,
                            const storage::BatchCertificate& certificate) {
  // 1. Certificate: f+1 distinct replica signatures over
  //    (partition, batch, digest, root, ro-segment digest).
  if (certificate.partition != partition || certificate.batch_id != batch_id) {
    return Status::VerificationFailed("certificate does not match payload");
  }
  TE_RETURN_IF_ERROR(certificate.Verify(verifier, config.certificate_size(),
                                        config.ClusterMembers(partition)));
  // 2. Every value against the Merkle root.
  for (const wire::AuthenticatedRead& read : entries) {
    if (read.found) {
      TE_RETURN_IF_ERROR(merkle::MerkleTree::VerifyProof(
          read.proof, read.key, read.value, read.version,
          certificate.merkle_root));
    } else {
      TE_RETURN_IF_ERROR(merkle::MerkleTree::VerifyAbsence(
          read.proof, read.key, certificate.merkle_root));
    }
  }
  return Status::OK();
}

Status Client::VerifyRoReply(const wire::RoReply& reply) {
  TE_RETURN_IF_ERROR(VerifyCertifiedReads(*verifier_, config_, reply.partition,
                                          reply.batch_id, reply.entries,
                                          reply.certificate));
  // Read-only segment authenticity: CD vector, LCE, and timestamp must
  // hash to the digest covered by the certificate.
  storage::ReadOnlySegment segment;
  segment.cd_vector = reply.cd_vector;
  segment.lce = reply.lce;
  segment.merkle_root = reply.certificate.merkle_root;
  segment.timestamp_us = reply.timestamp_us;
  if (segment.ComputeDigest() != reply.certificate.ro_digest) {
    return Status::VerificationFailed("read-only segment tampered");
  }
  return Status::OK();
}

std::map<PartitionId, BatchId> Client::VerifyDependencies(
    const std::map<PartitionId, wire::RoReply>& replies) const {
  // Algorithm 2: for every pair of accessed partitions (i, j), the
  // dependency V_i[j] must be covered by partition j's LCE.
  std::map<PartitionId, txn::RoPartitionView> views;
  for (const auto& [partition, reply] : replies) {
    views[partition] = txn::RoPartitionView{reply.cd_vector, reply.lce};
  }
  return txn::ComputeUnsatisfiedDependencies(views);
}

void Client::HandleRoReply(const wire::RoReply& msg) {
  auto req_it = request_op_.find(msg.request_id);
  if (req_it == request_op_.end()) return;
  uint64_t op_id = req_it->second;
  request_op_.erase(req_it);
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp& op = op_it->second;

  if (msg.batch_id == kNoBatch) {
    // Partition has no certified batch yet; retry shortly.
    env_->Schedule(sim::Millis(5), [this, op_id, partition = msg.partition] {
      auto it = ro_ops_.find(op_id);
      if (it == ro_ops_.end()) return;
      uint64_t req = next_request_id_++;
      request_op_[req] = op_id;
      wire::RoRequest retry;
      retry.request_id = req;
      retry.reply_to = id_;
      retry.keys = it->second.by_partition[partition];
      env_->network().Send(id_, LeaderOf(partition), Share(std::move(retry)));
    });
    return;
  }

  Status verified = VerifyRoReply(msg);
  if (!verified.ok()) {
    ++stats_.ro_verification_failures;
    RoResult result;
    result.status = verified;
    result.latency = env_->now() - op.start;
    result.rounds = op.rounds;
    FinishRo(op_id, std::move(result));
    return;
  }

  if (check_freshness_) {
    int64_t age = env_->now() - msg.timestamp_us;
    if (age > config_.freshness_window || age < -config_.freshness_window) {
      op.fresh = false;
    }
  }

  op.replies[msg.partition] = msg;
  if (--op.outstanding > 0) return;

  if (op.rounds == 1) op.round1_done = env_->now();
  std::map<PartitionId, BatchId> needed;
  if (verify_dependencies_) needed = VerifyDependencies(op.replies);
  if (!needed.empty()) {
    // The paper's protocol runs exactly one corrective round (Theorem
    // 4.6); strict mode keeps iterating until the check passes — see
    // SystemConfig::strict_ro_rounds for why the corner exists.
    bool may_continue =
        op.rounds < 2 ||
        (config_.strict_ro_rounds && op.rounds < config_.max_ro_rounds);
    if (may_continue) {
      StartRoRound2(op_id, needed);
      return;
    }
  }

  // Assemble the final snapshot.
  RoResult result;
  result.status = Status::OK();
  result.rounds = op.rounds;
  result.latency = env_->now() - op.start;
  result.round1_latency =
      (op.round1_done != 0 ? op.round1_done : env_->now()) - op.start;
  result.fresh = op.fresh;
  for (const auto& [partition, reply] : op.replies) {
    for (const wire::AuthenticatedRead& read : reply.entries) {
      result.values[read.key] =
          read.found ? std::optional<Value>(read.value) : std::nullopt;
    }
  }
  if (!needed.empty()) {
    // Residual unsatisfied dependency after the paper's two rounds — the
    // diagnostic Theorem 4.6 claims is impossible (see ARCHITECTURE.md
    // §Design notes).
    result.needed_third_round = true;
    ++stats_.ro_third_round_would_be_needed;
  }
  FinishRo(op_id, std::move(result));
}

void Client::StartRoRound2(uint64_t op_id,
                           const std::map<PartitionId, BatchId>& needed) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp& op = op_it->second;
  ++op.rounds;
  for (const auto& [partition, min_lce] : needed) {
    uint64_t req = next_request_id_++;
    request_op_[req] = op_id;
    ++op.outstanding;
    wire::RoBatchRequest msg;
    msg.request_id = req;
    msg.reply_to = id_;
    msg.keys = op.by_partition[partition];
    msg.min_lce = min_lce;
    env_->network().Send(id_, LeaderOf(partition), Share(std::move(msg)));
  }
}

void Client::FinishRo(uint64_t op_id, RoResult result) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp op = std::move(op_it->second);
  ro_ops_.erase(op_it);
  if (result.status.ok()) {
    ++stats_.ro_completed;
    if (result.rounds > 1) ++stats_.ro_two_round;
  }
  if (op.done) op.done(std::move(result));
}

void Client::ArmRoTimeout(uint64_t op_id) {
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  uint64_t epoch = ++op_it->second.epoch;
  env_->Schedule(config_.client_timeout, [this, op_id, epoch] {
    auto it = ro_ops_.find(op_id);
    if (it == ro_ops_.end() || it->second.epoch != epoch) return;
    ++stats_.timeouts;
    RoResult result;
    result.status = Status::Timeout("read-only transaction timed out");
    result.latency = env_->now() - it->second.start;
    result.rounds = it->second.rounds;
    FinishRo(op_id, std::move(result));
  });
}

// ---------------------------------------------------------------------------
// Augustus baseline
// ---------------------------------------------------------------------------

void Client::ExecuteAugustusReadOnly(std::vector<Key> keys, RoCallback done) {
  uint64_t op_id = next_request_id_++;
  RoOp& op = ro_ops_[op_id];
  op.keys = std::move(keys);
  op.done = std::move(done);
  op.start = env_->now();
  for (const Key& key : op.keys) {
    op.by_partition[partition_map_.OwnerOf(key)].push_back(key);
  }
  for (const auto& [partition, part_keys] : op.by_partition) {
    uint64_t req = next_request_id_++;
    request_op_[req] = op_id;
    op.augustus_request_ids[partition] = req;
    ++op.outstanding;
    wire::AugustusRoRequest msg;
    msg.request_id = req;
    msg.reply_to = id_;
    msg.keys = part_keys;
    env_->network().Send(id_, LeaderOf(partition), Share(std::move(msg)));
  }
  ArmRoTimeout(op_id);
}

void Client::HandleAugustusRoReply(const wire::AugustusRoReply& msg) {
  auto req_it = request_op_.find(msg.request_id);
  if (req_it == request_op_.end()) return;
  uint64_t op_id = req_it->second;
  request_op_.erase(req_it);
  auto op_it = ro_ops_.find(op_id);
  if (op_it == ro_ops_.end()) return;
  RoOp& op = op_it->second;

  op.augustus_replies[msg.partition] = msg;
  if (--op.outstanding > 0) return;

  // Locks are held until the whole transaction finishes — that is what
  // makes Augustus read-only transactions interfere with writers. Only
  // now release every partition's shared locks.
  for (const auto& [partition, req] : op.augustus_request_ids) {
    wire::AugustusRelease release;
    release.request_id = req;
    env_->network().Send(id_, LeaderOf(partition), Share(std::move(release)));
  }

  RoResult result;
  result.status = Status::OK();
  result.rounds = 1;
  result.latency = env_->now() - op.start;
  result.round1_latency = result.latency;
  for (const auto& [partition, reply] : op.augustus_replies) {
    for (const wire::AuthenticatedRead& read : reply.entries) {
      result.values[read.key] =
          read.found ? std::optional<Value>(read.value) : std::nullopt;
    }
  }
  FinishRo(op_id, std::move(result));
}

}  // namespace transedge::core
