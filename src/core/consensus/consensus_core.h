#ifndef TRANSEDGE_CORE_CONSENSUS_CONSENSUS_CORE_H_
#define TRANSEDGE_CORE_CONSENSUS_CONSENSUS_CORE_H_

#include <map>
#include <utility>

#include "core/consensus/consensus.h"
#include "wire/message.h"

namespace transedge::core {

/// The engine-independent half of both consensus engines: the instance
/// table, proposing, deciding in log order, prepare-QC locks, view
/// changes and log catch-up. An engine adds only its voting phases
/// (proposal intake, votes, quorum detection) and its proposal message.
///
/// Locks (safety across view changes): a replica *locks* on a verified
/// 2f+1 prepare certificate before it casts a commit vote, and the lock
/// survives view adoption. Prepare votes carry a second signature over
/// the view-bind payload (partition, batch id, digest, view), and a lock
/// keeps a quorum of those, so the view it formed in is certified: a
/// byzantine replica inflating its reported lock view
/// (ByzantineBehavior::kInflateLockView), or a byzantine leader
/// inflating a re-proposal justification, fails the view-bind quorum
/// check and the claim is dropped. A locked replica refuses to
/// prepare-vote a conflicting batch at the locked id unless the
/// proposal is justified by a prepare certificate from a view >= its
/// lock view. Locks are per slot, so a pipelined engine holds one per
/// in-flight slot; a slot's lock is dropped when the slot decides.
///
/// View changes are linear: a replica whose progress timer fires sends
/// a signed LinearViewChangeMsg, reporting every live lock, to the
/// *prospective* leader of the next view. That leader adopts the
/// highest verified lock per slot, joins once f+1 replicas demand the
/// change, and at 2f+1 signatures broadcasts LinearNewViewMsg, which
/// every replica adopts on verification. The new leader then
/// re-proposes the contiguous locked prefix from the first undecided
/// slot, each batch with its lock as justification, before the pipeline
/// may propose fresh batches. A commit quorum implies 2f+1 locked
/// replicas, so every view-change quorum holds an honest report of that
/// lock and a batch decided anywhere is the only batch a later view can
/// decide at its position. Locks past a gap in the prefix are kept but
/// not re-proposed (a slot decided anywhere implies locks on it *and*
/// its decided predecessors, so no gap sits below a decided slot); they
/// are re-proposed when the chain reaches them. If the prospective
/// leader is faulty too, the requester escalates to the following view
/// after another timeout, and stops once the demanded position decides.
///
/// Catch-up: a view-change request whose `last_committed` trails the
/// recipient's log is answered with one LinearCatchUpMsg per missing
/// entry (decided batch + 2f+1 certificate + the sender's new-view
/// proof), so a replica that missed decisions or whole views rejoins
/// without forcing a view change.
class ConsensusCore : public Consensus {
 public:
  uint64_t view() const final { return view_; }
  void Propose(storage::Batch batch, merkle::MerkleTree post_tree) final;
  bool OnMessage(sim::ActorId from, const sim::Message& msg) final;
  void StartViewChangeTimer(BatchId batch_id) final;
  bool HasPendingReproposal() const final;
  size_t InFlight() const final;
  const Stats& stats() const final { return stats_; }

 protected:
  struct Instance {
    bool has_batch = false;
    storage::Batch batch;
    crypto::Digest digest;
    bool validated = false;
    bool validation_failed = false;
    merkle::MerkleTree post_tree;  // Tree with the batch's writes applied.

    // Vote collection. Votes carry the digest the voter saw, so an
    // equivocating leader's two variants split the vote.
    std::map<crypto::NodeId, crypto::Digest> prepare_votes;
    std::map<crypto::NodeId, crypto::Signature> prepare_shares;
    /// View-bind shares riding on the prepare votes.
    std::map<crypto::NodeId, crypto::Signature> view_shares;
    std::map<crypto::NodeId, crypto::Digest> commit_votes;
    bool sent_prepare_vote = false;
    bool sent_commit_vote = false;

    /// Verified re-proposal justification (prepare certificate for this
    /// batch from `justify_view`); unlocks conflicting-lock replicas.
    bool has_justify = false;
    uint64_t justify_view = 0;
    /// The 2f+1 prepare certificate (own assembly or a received QC); it
    /// is also the certificate the decided batch is logged with.
    storage::BatchCertificate certificate;
    /// Verified view-bind quorum of that certificate; copied into the
    /// lock so view claims stay provable.
    crypto::SignatureSet qc_view_sigs;

    // Linear-vote engine only: leader aggregation of commit shares and
    // the replica-side QC progress.
    std::map<crypto::NodeId, crypto::Signature> commit_shares;
    bool prepare_qc_sent = false;
    bool commit_qc_sent = false;
    bool have_prepare_qc = false;
    /// Commit QC received before the batch finished validating; replayed
    /// by AdvanceConsensus.
    bool have_commit_qc = false;
    crypto::SignatureSet commit_qc_sigs;

    explicit Instance(int merkle_depth) : post_tree(merkle_depth) {}
  };

  /// A prepare-certificate lock: set before any commit vote is cast,
  /// kept across view adoptions (unlike `instances_`), superseded only
  /// by a higher-view certificate for the same slot. `view_sigs` is the
  /// certificate's view-bind quorum, proving `view` to third parties.
  struct Lock {
    uint64_t view = 0;
    storage::Batch batch;
    crypto::Digest digest;
    storage::BatchCertificate cert;
    crypto::SignatureSet view_sigs;
  };

  ConsensusCore(NodeContext* ctx, Hooks hooks);
  // Scheduled timers hold `this`.
  ConsensusCore(const ConsensusCore&) = delete;
  ConsensusCore& operator=(const ConsensusCore&) = delete;

  /// Handles the engine's voting-phase messages; same contract as
  /// OnMessage, which routes the shared view-change messages itself.
  virtual bool OnVotingMessage(sim::ActorId from, const sim::Message& msg) = 0;
  /// The engine's signed proposal of `batch`, whose digest is `digest`.
  /// A view-change re-proposal passes its lock as `justify`; fresh
  /// proposals pass nullptr.
  virtual sim::MessagePtr MakeProposal(const storage::Batch& batch,
                                       const crypto::Digest& digest,
                                       const Lock* justify) = 0;

  bool IsLeaderSelf() const {
    return ctx_->config().LeaderOf(ctx_->partition(), view_) == ctx_->id();
  }

  /// Proposal intake: accepts `msg` from the current view's leader when
  /// its slot is open and the leader signature checks out, and records
  /// a justification that verifies. Returns the new instance, or
  /// nullptr when the proposal is dropped.
  template <typename ProposalMsg>
  Instance* AcceptProposal(sim::ActorId from, const ProposalMsg& msg) {
    Instance* inst = OpenSlot(from, msg.view, msg.batch, msg.leader_signature);
    if (inst != nullptr && msg.has_justify &&
        ProvesLock(msg.batch.id, inst->digest, msg.justify_view,
                   msg.justify_cert, msg.justify_view_sigs)) {
      inst->has_justify = true;
      inst->justify_view = msg.justify_view;
    }
    return inst;
  }
  /// Copies `lock` into a proposal as its re-proposal justification.
  template <typename ProposalMsg>
  static void Justify(const Lock& lock, ProposalMsg* msg) {
    msg->has_justify = true;
    msg->justify_view = lock.view;
    msg->justify_cert = lock.cert;
    msg->justify_view_sigs = lock.view_sigs;
  }

  /// Bytes a view-bind share signs: ties a prepare certificate to the
  /// view it formed in.
  Bytes ViewBindPayload(BatchId batch_id, const crypto::Digest& digest,
                        uint64_t view) const;
  /// True when `cert` is a 2f+1 prepare certificate for (id, digest)
  /// whose view-bind quorum certifies that it formed in `view`.
  bool ProvesLock(BatchId id, const crypto::Digest& digest, uint64_t view,
                  const storage::BatchCertificate& cert,
                  const crypto::SignatureSet& view_sigs) const;
  /// Signs our prepare share and view-bind share for `inst` and records
  /// them as our prepare vote.
  void CastOwnPrepareVote(Instance& inst);
  /// Assembles the 2f+1 prepare certificate and its view-bind quorum
  /// from verified shares; false while too few shares verify.
  bool AssemblePrepareCertificate(Instance& inst);
  /// Adopts (view, inst) as the slot's lock when it is at least as
  /// recent as the current one.
  void MaybeLockOn(uint64_t view, const Instance& inst);
  /// True when a conflicting lock forbids prepare-voting `inst` and the
  /// proposal carries no adequate justification.
  bool LockBlocksVote(const Instance& inst) const;
  /// Leader: re-proposes a lock held for the first slot past the live
  /// instance chain (e.g. adopted from a view-change report after a gap
  /// filled). Returns true when it did; the re-proposal re-entered
  /// AdvanceConsensus, so the caller returns.
  bool ReproposeLockAtFreeSlot();
  /// Chain context for validating/building slot `id`: the validated
  /// in-flight predecessors in (tail, id) and the newest post-tree.
  ProposalChain ChainUpTo(BatchId id);
  /// Hands the decided batch to the node (exactly once, in log order)
  /// and drops the slot's lock.
  void Decide(BatchId batch_id);

  void SendCounted(crypto::NodeId to, const sim::MessagePtr& msg,
                   sim::Time at);
  void BroadcastCounted(const sim::MessagePtr& msg, sim::Time at);

  NodeContext* ctx_;
  uint64_t view_ = 0;
  std::map<BatchId, Instance> instances_;
  Stats stats_;

 private:
  Instance* OpenSlot(sim::ActorId from, uint64_t view,
                     const storage::Batch& batch,
                     const crypto::Signature& leader_signature);
  /// Drops locks for slots the log has already decided.
  void PruneStaleLocks();
  /// Leader: re-proposes (with each lock as justification) the locked
  /// slots reachable from the first undecided position, skipping slots
  /// already owned by a live instance and stopping at the first slot
  /// with neither.
  void ReproposeLocked();

  /// `demanded` is the log position whose lack of progress triggered the
  /// request; escalation past a faulty prospective leader stops once the
  /// log reaches it.
  void RequestViewChange(uint64_t target, BatchId demanded);
  void HandleViewChange(sim::ActorId from,
                        const wire::LinearViewChangeMsg& msg);
  void HandleNewView(const wire::LinearNewViewMsg& msg);
  void AnnounceNewView(uint64_t target);
  void AdoptView(uint64_t target);
  /// Remembers the most recent verified new-view proof for catch-up.
  void RecordNewViewProof(uint64_t new_view,
                          const crypto::SignatureSet& proof);

  /// Sends the log entries past `peer_last` (plus our new-view proof) to
  /// a lagging replica.
  void ServeCatchUp(crypto::NodeId to, BatchId peer_last);
  void HandleCatchUp(sim::ActorId from, const wire::LinearCatchUpMsg& msg);
  /// True when `cert` is a 2f+1 certificate for `batch`.
  bool CertifiesEntry(const storage::Batch& batch,
                      const storage::BatchCertificate& cert) const;
  /// Decides one certified transferred log entry; false when the
  /// replayed Merkle root does not check out.
  bool ApplyCatchUpEntry(const storage::Batch& batch,
                         const storage::BatchCertificate& cert);

  Bytes ViewChangePayload(uint64_t new_view) const;

  Hooks hooks_;
  /// Highest view this replica has requested since adopting the current
  /// one, and its log tail then: each demand goes out once per position.
  uint64_t requested_view_ = 0;
  BatchId requested_tail_ = kNoBatch;
  /// Prospective-leader aggregation of view-change signatures.
  std::map<uint64_t, std::map<crypto::NodeId, crypto::Signature>>
      view_change_votes_;
  /// Per-slot prepare-certificate locks (slot id -> lock).
  std::map<BatchId, Lock> locks_;
  /// Newest position of an in-flight view-change re-proposal; the
  /// pipeline is gated off new proposals until the whole re-proposed
  /// prefix decides (NodeContext::ReproposalPending).
  BatchId reproposed_id_ = kNoBatch;
  /// Most recent verified new-view proof, piggybacked on catch-up so a
  /// replica that missed the announcement can adopt the view.
  uint64_t proven_view_ = 0;
  crypto::SignatureSet view_proof_;
  /// Certified catch-up entries that arrived ahead of their predecessors.
  std::map<BatchId, std::pair<storage::Batch, storage::BatchCertificate>>
      pending_catchup_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_CONSENSUS_CORE_H_
