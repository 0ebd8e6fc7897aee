#include "core/consensus/consensus_core.h"

#include <algorithm>
#include <utility>

#include "core/consensus/batch_validation.h"

namespace transedge::core {

ConsensusCore::ConsensusCore(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void ConsensusCore::SendCounted(crypto::NodeId to, const sim::MessagePtr& msg,
                                sim::Time at) {
  ++stats_.messages_sent;
  ctx_->Send(to, msg, at);
}

void ConsensusCore::BroadcastCounted(const sim::MessagePtr& msg,
                                     sim::Time at) {
  stats_.messages_sent += ctx_->cluster_members().size() - 1;
  ctx_->BroadcastToCluster(msg, at);
}

bool ConsensusCore::OnMessage(sim::ActorId from, const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kLinearViewChange:
      HandleViewChange(from,
                       static_cast<const wire::LinearViewChangeMsg&>(msg));
      return true;
    case wire::MessageType::kLinearNewView:
      HandleNewView(static_cast<const wire::LinearNewViewMsg&>(msg));
      return true;
    case wire::MessageType::kLinearCatchUp:
      HandleCatchUp(from, static_cast<const wire::LinearCatchUpMsg&>(msg));
      return true;
    default:
      return OnVotingMessage(from, msg);
  }
}

Bytes ConsensusCore::ViewBindPayload(BatchId batch_id,
                                     const crypto::Digest& digest,
                                     uint64_t view) const {
  Encoder enc;
  enc.PutString("transedge-linear-qc-view");
  enc.PutU32(ctx_->partition());
  enc.PutI64(batch_id);
  enc.PutRaw(digest.bytes.data(), digest.bytes.size());
  enc.PutU64(view);
  return enc.Take();
}

Bytes ConsensusCore::ViewChangePayload(uint64_t new_view) const {
  Encoder enc;
  enc.PutString("transedge-linear-view-change");
  enc.PutU32(ctx_->partition());
  enc.PutU64(new_view);
  return enc.Take();
}

// ---------------------------------------------------------------------------
// Instances: proposing, intake, voting helpers, deciding
// ---------------------------------------------------------------------------

size_t ConsensusCore::InFlight() const {
  BatchId tail = ctx_->mutable_log().LastBatchId();
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst.has_batch && id > tail) ++n;
  }
  return n;
}

bool ConsensusCore::HasPendingReproposal() const {
  return reproposed_id_ != kNoBatch &&
         reproposed_id_ > ctx_->mutable_log().LastBatchId();
}

ProposalChain ConsensusCore::ChainUpTo(BatchId id) {
  ProposalChain chain;
  chain.next_id = id;
  for (BatchId p = ctx_->mutable_log().LastBatchId() + 1; p < id; ++p) {
    auto it = instances_.find(p);
    if (it == instances_.end() || !it->second.has_batch ||
        !it->second.validated) {
      // Broken chain below `id`; callers only ask about slots whose
      // predecessors are all live and validated.
      chain.pending.clear();
      chain.head_tree = nullptr;
      return chain;
    }
    chain.pending.push_back(&it->second.batch);
    chain.head_tree = &it->second.post_tree;
  }
  return chain;
}

void ConsensusCore::Propose(storage::Batch batch,
                            merkle::MerkleTree post_tree) {
  crypto::Digest digest = batch.ComputeDigest();
  // A slot we hold a conflicting lock on belongs to the locked batch —
  // it may already be decided on another replica. Re-propose it instead
  // of the fresh batch (covers locks adopted past a gap, which AdoptView
  // could not re-propose when the gap was still open).
  PruneStaleLocks();
  auto lk = locks_.find(batch.id);
  if (lk != locks_.end() && !(lk->second.digest == digest)) {
    ReproposeLocked();
    return;
  }
  // Defensive: the pipeline is gated off a slot held by a view-change
  // re-proposal (NodeContext::ReproposalPending), but a competing batch
  // must never displace it — the locked batch may already be decided on
  // another replica. First proposal wins.
  auto [it, inserted] =
      instances_.try_emplace(batch.id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
  if (inst.has_batch && !(inst.digest == digest)) return;
  inst.has_batch = true;
  inst.post_tree = std::move(post_tree);
  inst.digest = digest;
  inst.batch = std::move(batch);
  inst.validated = true;
  // The leader's own certificate share doubles as its prepare vote.
  CastOwnPrepareVote(inst);

  sim::Time done = ctx_->busy_until();
  if (ctx_->byzantine() == ByzantineBehavior::kEquivocate) {
    // Conflicting variants, alternately to every other member: same
    // transactions, different timestamp => different digest. Votes carry
    // the digest the voter saw, so neither variant gathers a quorum.
    storage::Batch alt = inst.batch;
    alt.ro.timestamp_us += 1;
    const sim::MessagePtr variants[] = {
        MakeProposal(inst.batch, inst.digest, nullptr),
        MakeProposal(alt, alt.ComputeDigest(), nullptr)};
    size_t sent = 0;
    for (crypto::NodeId member : ctx_->cluster_members()) {
      if (member != ctx_->id()) SendCounted(member, variants[sent++ % 2], done);
    }
    return;
  }

  BroadcastCounted(MakeProposal(inst.batch, inst.digest, nullptr), done);
  StartViewChangeTimer(inst.batch.id);
  AdvanceConsensus();
}

ConsensusCore::Instance* ConsensusCore::OpenSlot(
    sim::ActorId from, uint64_t view, const storage::Batch& batch,
    const crypto::Signature& leader_signature) {
  if (view != view_) return nullptr;
  if (from != ctx_->config().LeaderOf(ctx_->partition(), view_)) {
    return nullptr;
  }
  if (batch.id <= ctx_->mutable_log().LastBatchId()) {
    return nullptr;  // Already decided.
  }
  auto [it, inserted] =
      instances_.try_emplace(batch.id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
  if (inst.has_batch) return nullptr;  // First proposal wins.

  crypto::Digest digest = batch.ComputeDigest();
  if (!ctx_->verifier().Verify(ProposalSignPayload(digest),
                               leader_signature) ||
      leader_signature.signer != from) {
    return nullptr;  // Forged or corrupted proposal.
  }
  inst.has_batch = true;
  inst.batch = batch;
  inst.digest = digest;
  return &inst;
}

bool ConsensusCore::ProvesLock(BatchId id, const crypto::Digest& digest,
                               uint64_t view,
                               const storage::BatchCertificate& cert,
                               const crypto::SignatureSet& view_sigs) const {
  const SystemConfig& config = ctx_->config();
  return cert.batch_id == id && cert.batch_digest == digest &&
         cert.Verify(ctx_->verifier(), config.quorum_size(),
                     ctx_->cluster_members())
             .ok() &&
         view_sigs
             .VerifyQuorum(ctx_->verifier(), ViewBindPayload(id, digest, view),
                           config.quorum_size(), ctx_->cluster_members())
             .ok();
}

void ConsensusCore::CastOwnPrepareVote(Instance& inst) {
  // The view-bind share rides along with the certificate share: one
  // batched signing pass, no extra signature_op charged.
  storage::BatchCertificate payload =
      CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest);
  inst.prepare_votes[ctx_->id()] = inst.digest;
  inst.prepare_shares[ctx_->id()] = ctx_->Sign(payload.SignedPayload());
  inst.view_shares[ctx_->id()] =
      ctx_->Sign(ViewBindPayload(inst.batch.id, inst.digest, view_));
  inst.sent_prepare_vote = true;
}

bool ConsensusCore::AssemblePrepareCertificate(Instance& inst) {
  const size_t quorum = ctx_->config().quorum_size();
  inst.certificate = AssembleCertificateFromShares(
      ctx_, inst.batch, inst.digest, inst.prepare_votes, inst.prepare_shares,
      quorum);
  if (inst.certificate.signatures.size() < quorum) return false;
  crypto::SignatureSet view_sigs = CollectVerifiedShares(
      ctx_, ViewBindPayload(inst.batch.id, inst.digest, view_),
      inst.prepare_votes, inst.view_shares, inst.digest, quorum);
  if (view_sigs.size() < quorum) return false;
  inst.qc_view_sigs = std::move(view_sigs);
  return true;
}

void ConsensusCore::Decide(BatchId batch_id) {
  auto it = instances_.find(batch_id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  Decided decided{std::move(inst.batch), std::move(inst.certificate),
                  std::move(inst.post_tree)};
  instances_.erase(it);
  locks_.erase(batch_id);
  ++stats_.batches_decided;
  // The hook applies the batch, drives 2PC / read-only follow-ups, and
  // re-enters AdvanceConsensus for the next queued instance.
  hooks_.on_decided(std::move(decided));
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void ConsensusCore::PruneStaleLocks() {
  locks_.erase(locks_.begin(),
               locks_.upper_bound(ctx_->mutable_log().LastBatchId()));
}

void ConsensusCore::MaybeLockOn(uint64_t view, const Instance& inst) {
  auto [it, inserted] = locks_.try_emplace(inst.batch.id);
  Lock& lock = it->second;
  if (!inserted && lock.view > view) return;
  lock.view = view;
  lock.batch = inst.batch;
  lock.digest = inst.digest;
  lock.cert = inst.certificate;
  lock.view_sigs = inst.qc_view_sigs;
}

bool ConsensusCore::LockBlocksVote(const Instance& inst) const {
  auto it = locks_.find(inst.batch.id);
  if (it == locks_.end() || it->second.digest == inst.digest) return false;
  return !(inst.has_justify && inst.justify_view >= it->second.view);
}

bool ConsensusCore::ReproposeLockAtFreeSlot() {
  if (!IsLeaderSelf()) return false;
  PruneStaleLocks();
  BatchId free_slot = ctx_->mutable_log().LastBatchId() + 1;
  while (true) {
    auto it = instances_.find(free_slot);
    if (it == instances_.end() || !it->second.has_batch) break;
    ++free_slot;
  }
  if (locks_.count(free_slot) == 0) return false;
  ReproposeLocked();  // Creates the instance; re-enters AdvanceConsensus.
  return true;
}

void ConsensusCore::ReproposeLocked() {
  const SystemConfig& config = ctx_->config();
  PruneStaleLocks();

  // Re-propose the contiguous locked prefix from the first undecided
  // slot, skipping slots a live validated instance already owns (e.g. a
  // re-proposal in flight). Stop at the first slot with neither: a lock
  // past a gap stays adopted but waits — the Propose() conflicting-lock
  // guard re-proposes it when the chain reaches its slot.
  bool proposed_any = false;
  BatchId last = kNoBatch;
  for (BatchId id = ctx_->mutable_log().LastBatchId() + 1;; ++id) {
    auto it = instances_.find(id);
    if (it != instances_.end() && it->second.has_batch) {
      if (!it->second.validated) break;
      last = id;
      continue;  // Slot already owned; keep walking the prefix.
    }
    auto lk = locks_.find(id);
    if (lk == locks_.end()) break;
    const Lock& lock = lk->second;

    auto [slot, inserted] = instances_.try_emplace(id, config.merkle_depth);
    Instance& inst = slot->second;
    inst.has_batch = true;
    inst.batch = lock.batch;
    inst.digest = lock.digest;
    ProposalChain chain = ChainUpTo(id);
    Status s =
        ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree, &chain);
    if (!s.ok()) {
      // Deterministic re-validation of a quorum-certified batch against
      // the same log prefix cannot fail; treat it like any other invalid
      // proposal (silence + timer) if it somehow does.
      inst.validation_failed = true;
      break;
    }
    inst.validated = true;
    CastOwnPrepareVote(inst);
    BroadcastCounted(MakeProposal(inst.batch, inst.digest, &lock),
                     ctx_->Charge(config.cost.signature_op));
    proposed_any = true;
    last = id;
  }
  if (!proposed_any) return;
  // Gate the pipeline until the whole re-proposed prefix decides.
  if (reproposed_id_ == kNoBatch || last > reproposed_id_) {
    reproposed_id_ = last;
  }
  StartViewChangeTimer(last);
  AdvanceConsensus();
}

// ---------------------------------------------------------------------------
// View changes (requests to the prospective leader, new-view broadcast)
// ---------------------------------------------------------------------------

void ConsensusCore::StartViewChangeTimer(BatchId batch_id) {
  uint64_t view_at_start = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, batch_id, view_at_start] {
                   if (view_ != view_at_start) return;
                   if (ctx_->mutable_log().LastBatchId() >= batch_id) {
                     return;  // Decided in time.
                   }
                   RequestViewChange(view_ + 1, batch_id);
                 });
}

void ConsensusCore::RequestViewChange(uint64_t target, BatchId demanded) {
  if (target <= view_) return;
  // Every forwarded commit request or 2PC leg arms a progress timer, so
  // the same demand can fire many times. Send it once per target view and
  // log position; the escalation below carries it further.
  BatchId tail = ctx_->mutable_log().LastBatchId();
  if (target <= requested_view_ && tail == requested_tail_) return;
  requested_view_ = target;
  requested_tail_ = tail;
  crypto::Signature sig = ctx_->Sign(ViewChangePayload(target));
  crypto::NodeId prospective =
      ctx_->config().LeaderOf(ctx_->partition(), target);
  if (prospective == ctx_->id()) {
    auto& votes = view_change_votes_[target];
    votes[ctx_->id()] = sig;
    if (votes.size() >= ctx_->config().quorum_size()) {
      // Quorum already collected from earlier requests; announce.
      AnnounceNewView(target);
      return;
    }
  } else {
    wire::LinearViewChangeMsg msg;
    msg.new_view = target;
    msg.last_committed = tail;
    msg.signature = sig;
    // Report every live lock so the prospective leader re-proposes
    // batches that may already be decided elsewhere (safety across the
    // view change) — one report per in-flight slot when pipelining.
    PruneStaleLocks();
    for (const auto& [id, lock] : locks_) {
      wire::LinearLockReport report;
      report.view = lock.view;
      report.batch = lock.batch;
      report.cert = lock.cert;
      report.view_sigs = lock.view_sigs;
      if (ctx_->byzantine() == ByzantineBehavior::kInflateLockView) {
        // Claim the lock formed in a much later view, trying to make the
        // new leader prefer it over a genuinely newer honest lock. The
        // view-bind quorum certifies the real view, so honest leaders
        // drop the report.
        report.view += 16;
      }
      msg.locks.push_back(std::move(report));
    }
    SendCounted(prospective, ShareMsg(std::move(msg)),
                ctx_->Charge(ctx_->config().cost.signature_op));
  }
  // If the prospective leader is faulty too, escalate past it after
  // another timeout. Stop as soon as any view change lands or the
  // demanded position decides (e.g. catch-up filled the gap).
  uint64_t view_at_request = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, target, demanded, view_at_request] {
                   if (view_ != view_at_request) return;
                   if (ctx_->mutable_log().LastBatchId() >= demanded) return;
                   RequestViewChange(target + 1, demanded);
                 });
}

void ConsensusCore::HandleViewChange(sim::ActorId from,
                                     const wire::LinearViewChangeMsg& msg) {
  uint64_t target = msg.new_view;
  if (ctx_->config().LeaderOf(ctx_->partition(), target) != ctx_->id()) {
    return;  // Misrouted; only the prospective leader aggregates.
  }
  if (!IsClusterMember(ctx_, from) ||
      !ctx_->verifier().Verify(ViewChangePayload(target), msg.signature) ||
      msg.signature.signer != from) {
    return;  // Forged request or outsider.
  }
  // State transfer for a lagging requester — even when its demanded view
  // is stale: a replica that merely missed decided batches goes quiet
  // once the log (and our latest new-view proof) reach it, with no view
  // change at all.
  ServeCatchUp(from, msg.last_committed);
  if (target <= view_) return;

  // Adopt reported locks that supersede ours, slot by slot. Each report
  // must carry a genuine prepare certificate whose view-bind quorum
  // certifies the claimed view — a kInflateLockView replica's
  // exaggerated claim dies here. The re-proposal in AdoptView then
  // carries, per slot, the highest lock seen across the 2f+1 requests.
  PruneStaleLocks();
  for (const wire::LinearLockReport& report : msg.locks) {
    BatchId id = report.batch.id;
    if (id <= ctx_->mutable_log().LastBatchId()) continue;
    auto lk = locks_.find(id);
    if (lk != locks_.end() && report.view < lk->second.view) continue;
    crypto::Digest digest = report.batch.ComputeDigest();
    if (!ProvesLock(id, digest, report.view, report.cert, report.view_sigs)) {
      continue;
    }
    locks_[id] = Lock{report.view, report.batch, digest, report.cert,
                      report.view_sigs};
  }

  auto& votes = view_change_votes_[target];
  votes[from] = msg.signature;
  // Join once f+1 distinct replicas demand the change (at least one of
  // them is honest); our own signature completes or advances the quorum.
  if (votes.count(ctx_->id()) == 0 && votes.size() > ctx_->config().f) {
    votes[ctx_->id()] = ctx_->Sign(ViewChangePayload(target));
  }
  if (votes.size() < ctx_->config().quorum_size()) return;
  AnnounceNewView(target);
}

void ConsensusCore::AnnounceNewView(uint64_t target) {
  wire::LinearNewViewMsg announce;
  announce.new_view = target;
  for (const auto& [node, s] : view_change_votes_[target]) {
    announce.proof.Add(s);
  }
  RecordNewViewProof(target, announce.proof);
  BroadcastCounted(ShareMsg(std::move(announce)),
                   ctx_->Charge(ctx_->config().cost.signature_op));
  AdoptView(target);
}

void ConsensusCore::HandleNewView(const wire::LinearNewViewMsg& msg) {
  // The proof quorum, not the sender, legitimises the change.
  if (msg.new_view <= view_) return;
  Status quorum = msg.proof.VerifyQuorum(
      ctx_->verifier(), ViewChangePayload(msg.new_view),
      ctx_->config().quorum_size(), ctx_->cluster_members());
  if (!quorum.ok()) return;
  RecordNewViewProof(msg.new_view, msg.proof);
  AdoptView(msg.new_view);
}

void ConsensusCore::RecordNewViewProof(uint64_t new_view,
                                       const crypto::SignatureSet& proof) {
  if (new_view <= proven_view_) return;
  proven_view_ = new_view;
  view_proof_ = proof;
}

void ConsensusCore::AdoptView(uint64_t target) {
  if (target <= view_) return;
  view_ = target;
  ++stats_.view_changes;
  reproposed_id_ = kNoBatch;
  requested_view_ = 0;
  // Undecided proposals from the old view are abandoned (clients retry
  // against the new leader), but the locks survive: they are what lets
  // a batch the old leader may already have decided win again in this
  // view.
  instances_.clear();
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(target));
  hooks_.on_view_adopted();
  if (IsLeaderSelf()) ReproposeLocked();
}

// ---------------------------------------------------------------------------
// Catch-up (decided-batch state transfer to lagging replicas)
// ---------------------------------------------------------------------------

void ConsensusCore::ServeCatchUp(crypto::NodeId to, BatchId peer_last) {
  const storage::SmrLog& log = ctx_->mutable_log();
  if (to == ctx_->id() || peer_last >= log.LastBatchId()) return;
  sim::Time at = ctx_->busy_until();
  // The log only reaches back to the history horizon (TruncateHistory
  // drops entries below the snapshot base): serve the retained suffix
  // and stamp every message with the floor, so a peer lagging below it
  // learns the gap is unfillable by transfer and must recover from
  // durable storage.
  BatchId start = std::max(peer_last + 1, log.FirstBatchId());
  for (BatchId id = start; id <= log.LastBatchId(); ++id) {
    auto entry = log.Get(id);
    if (!entry.ok()) return;
    wire::LinearCatchUpMsg msg;
    msg.batch = entry.value()->batch;
    msg.cert = entry.value()->certificate;
    msg.view = proven_view_;
    msg.view_proof = view_proof_;
    msg.first_retained = log.FirstBatchId();
    SendCounted(to, ShareMsg(std::move(msg)), at);
  }
}

bool ConsensusCore::CertifiesEntry(
    const storage::Batch& batch, const storage::BatchCertificate& cert) const {
  return cert.batch_id == batch.id &&
         cert.batch_digest == batch.ComputeDigest() &&
         cert.Verify(ctx_->verifier(), ctx_->config().quorum_size(),
                     ctx_->cluster_members())
             .ok();
}

bool ConsensusCore::ApplyCatchUpEntry(const storage::Batch& batch,
                                      const storage::BatchCertificate& cert) {
  const SystemConfig& config = ctx_->config();
  // Quorum certification replaces the Definition 3.1 re-checks (and the
  // freshness window, which old batches legitimately fail by now), but
  // the Merkle root must still reproduce from our own state.
  ctx_->Charge(config.cost.signature_op +
               ctx_->BatchComputeCost(batch.TotalTransactions(),
                                      config.cost.validate_per_txn));
  // Replay against the decided tree, not the applied one: under async
  // apply the log tail is ahead of storage, and this entry chains off
  // the last *decided* batch's post-state.
  merkle::MerkleTree post_tree = ctx_->decided_tree().Clone();
  const txn::PreparedBatches& prepared = ctx_->prepared_batches();
  post_tree.PutBatch(
      storage::AppliedWrites(batch, ctx_->partition_map(), ctx_->partition(),
                             [&](TxnId id) { return prepared.FindTxn(id); }),
      batch.id);
  if (post_tree.RootDigest() != batch.ro.merkle_root) return false;

  auto [it, inserted] = instances_.try_emplace(batch.id, config.merkle_depth);
  Instance& inst = it->second;
  inst.has_batch = true;
  inst.batch = batch;
  inst.digest = cert.batch_digest;
  inst.certificate = cert;
  inst.post_tree = std::move(post_tree);
  inst.validated = true;
  Decide(batch.id);
  return true;
}

void ConsensusCore::HandleCatchUp(sim::ActorId from,
                                  const wire::LinearCatchUpMsg& msg) {
  // Only cluster members serve transfers; the certificate, not the
  // sender, carries the authority for each entry.
  if (!IsClusterMember(ctx_, from)) return;
  // Adopt the sender's view first when its proof checks out, so voting
  // resumes in the view the cluster actually runs.
  if (msg.view > view_ &&
      msg.view_proof
          .VerifyQuorum(ctx_->verifier(), ViewChangePayload(msg.view),
                        ctx_->config().quorum_size(), ctx_->cluster_members())
          .ok()) {
    RecordNewViewProof(msg.view, msg.view_proof);
    AdoptView(msg.view);
  }
  BatchId next = ctx_->mutable_log().LastBatchId() + 1;
  if (msg.batch.id < next) return;  // Already decided.
  if (msg.batch.id > next && msg.first_retained > next) {
    // The sender truncated below our gap: no transfer can ever fill it,
    // so parking this entry would leak it forever. Recovery from durable
    // storage (System::RestartReplica) is the only way back.
    return;
  }
  // Verify before parking: an uncertified entry must neither grow the
  // parking lot nor shadow the genuine entry for its slot.
  if (!CertifiesEntry(msg.batch, msg.cert)) return;
  if (msg.batch.id > next) {
    // Jitter reordered the transfer; hold until predecessors arrive.
    pending_catchup_.emplace(msg.batch.id,
                             std::make_pair(msg.batch, msg.cert));
    return;
  }
  if (!ApplyCatchUpEntry(msg.batch, msg.cert)) return;
  for (auto it = pending_catchup_.begin(); it != pending_catchup_.end();) {
    BatchId want = ctx_->mutable_log().LastBatchId() + 1;
    if (it->first < want) {
      it = pending_catchup_.erase(it);
    } else if (it->first == want &&
               ApplyCatchUpEntry(it->second.first, it->second.second)) {
      it = pending_catchup_.erase(it);
    } else {
      break;
    }
  }
  // Proposal instances the transfer overtook are settled; drop them.
  instances_.erase(instances_.begin(),
                   instances_.upper_bound(ctx_->mutable_log().LastBatchId()));
  AdvanceConsensus();
}

}  // namespace transedge::core
