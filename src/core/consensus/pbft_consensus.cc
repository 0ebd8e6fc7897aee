#include "core/consensus/pbft_consensus.h"

#include <utility>

#include "core/consensus/batch_validation.h"

namespace transedge::core {

PbftConsensus::PbftConsensus(NodeContext* ctx, Hooks hooks)
    : ConsensusCore(ctx, std::move(hooks)) {}

bool PbftConsensus::OnVotingMessage(sim::ActorId from,
                                    const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kPrePrepare:
      HandlePrePrepare(from, static_cast<const wire::PrePrepareMsg&>(msg));
      return true;
    case wire::MessageType::kPrepare:
      HandlePrepare(from, static_cast<const wire::PrepareMsg&>(msg));
      return true;
    case wire::MessageType::kCommit:
      HandleCommit(from, static_cast<const wire::CommitMsg&>(msg));
      return true;
    default:
      return false;
  }
}

sim::MessagePtr PbftConsensus::MakeProposal(const storage::Batch& batch,
                                            const crypto::Digest& digest,
                                            const Lock* justify) {
  wire::PrePrepareMsg msg;
  msg.view = view_;
  msg.batch = batch;
  msg.leader_signature = ctx_->Sign(ProposalSignPayload(digest));
  // The leader's prepare vote travels with its proposal.
  msg.leader_cert_share = ctx_->Sign(
      CertificatePayloadFor(ctx_->partition(), batch, digest).SignedPayload());
  msg.leader_view_share = ctx_->Sign(ViewBindPayload(batch.id, digest, view_));
  if (justify != nullptr) Justify(*justify, &msg);
  return ShareMsg(std::move(msg));
}

void PbftConsensus::HandlePrePrepare(sim::ActorId from,
                                     const wire::PrePrepareMsg& msg) {
  Instance* inst = AcceptProposal(from, msg);
  if (inst == nullptr) return;
  inst->prepare_votes[from] = inst->digest;
  inst->prepare_shares[from] = msg.leader_cert_share;
  inst->view_shares[from] = msg.leader_view_share;
  StartViewChangeTimer(inst->batch.id);
  AdvanceConsensus();
}

void PbftConsensus::HandlePrepare(sim::ActorId from,
                                  const wire::PrepareMsg& msg) {
  if (msg.view != view_) return;
  if (!IsClusterMember(ctx_, from)) return;
  if (msg.batch_id <= ctx_->mutable_log().LastBatchId()) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  it->second.prepare_votes[from] = msg.batch_digest;
  it->second.prepare_shares[from] = msg.cert_share;
  it->second.view_shares[from] = msg.view_share;
  AdvanceConsensus();
}

void PbftConsensus::HandleCommit(sim::ActorId from,
                                 const wire::CommitMsg& msg) {
  if (msg.view != view_) return;
  if (!IsClusterMember(ctx_, from)) return;
  if (msg.batch_id <= ctx_->mutable_log().LastBatchId()) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  it->second.commit_votes[from] = msg.batch_digest;
  AdvanceConsensus();
}

void PbftConsensus::AdvanceConsensus() {
  if (ReproposeLockAtFreeSlot()) return;
  const SystemConfig& config = ctx_->config();
  BatchId next = ctx_->mutable_log().LastBatchId() + 1;
  auto it = instances_.find(next);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (!inst.has_batch) return;

  if (!inst.validated && !inst.validation_failed) {
    Status s = ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree);
    if (!s.ok()) {
      // A correct replica stays silent on an invalid proposal; the
      // progress timer will trigger a view change.
      inst.validation_failed = true;
      return;
    }
    inst.validated = true;
  }
  if (inst.validation_failed) return;

  if (!inst.sent_prepare_vote) {
    // A lock on a conflicting batch at this id forbids the vote unless
    // the proposal is adequately justified. Stay silent: the progress
    // timer carries the lock into the next view change.
    if (LockBlocksVote(inst)) return;
    CastOwnPrepareVote(inst);
    wire::PrepareMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    msg.cert_share = inst.prepare_shares[ctx_->id()];
    msg.view_share = inst.view_shares[ctx_->id()];
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
  }

  if (!inst.sent_commit_vote &&
      CountMatchingVotes(inst.prepare_votes, inst.digest) >=
          config.quorum_size()) {
    // Lock on the prepared certificate before committing: a commit
    // quorum then implies 2f+1 locked replicas, whose view-change
    // reports force the next leader to re-propose this batch. A share
    // that fails verification means waiting for more prepares.
    if (!AssemblePrepareCertificate(inst)) return;
    MaybeLockOn(view_, inst);
    inst.commit_votes[ctx_->id()] = inst.digest;
    inst.sent_commit_vote = true;
    wire::CommitMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    BroadcastCounted(ShareMsg(std::move(msg)), ctx_->busy_until());
  }

  if (inst.sent_commit_vote &&
      CountMatchingVotes(inst.commit_votes, inst.digest) >=
          config.quorum_size()) {
    // The hook applies the batch, drives 2PC / read-only follow-ups, and
    // re-enters AdvanceConsensus for the next queued instance.
    Decide(next);
  }
}

}  // namespace transedge::core
