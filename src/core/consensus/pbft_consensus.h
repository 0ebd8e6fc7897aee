#ifndef TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_

#include "core/consensus/consensus_core.h"
#include "wire/message.h"

namespace transedge::core {

/// PBFT-style intra-cluster consensus on batches (§3.2) — the paper's
/// protocol and the default `ConsensusKind::kPbft` engine: PrePrepare /
/// Prepare / Commit voting on one batch at a time with all-to-all vote
/// broadcasts (O(n²) messages per decided batch) and batch re-validation
/// against Definition 3.1 and the read-only segment rules. A replica
/// assembles the 2f+1 prepared certificate (with its view-bind quorum)
/// from the broadcast prepare shares, locks on it before it broadcasts
/// Commit, and logs the decided batch with it. View changes, lock
/// reports, re-proposal and catch-up come from ConsensusCore, shared
/// with the linear-vote engine.
class PbftConsensus : public ConsensusCore {
 public:
  PbftConsensus(NodeContext* ctx, Hooks hooks);

  /// PBFT does not chain proposals: it keeps the Consensus defaults
  /// (MaxPipelineDepth() == 1, empty Chain()) and advances only the
  /// instance at the log tail + 1.
  void AdvanceConsensus() override;

 private:
  bool OnVotingMessage(sim::ActorId from, const sim::Message& msg) override;
  sim::MessagePtr MakeProposal(const storage::Batch& batch,
                               const crypto::Digest& digest,
                               const Lock* justify) override;

  void HandlePrePrepare(sim::ActorId from, const wire::PrePrepareMsg& msg);
  void HandlePrepare(sim::ActorId from, const wire::PrepareMsg& msg);
  void HandleCommit(sim::ActorId from, const wire::CommitMsg& msg);
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
