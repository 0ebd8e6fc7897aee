// Byzantine fault-injection tests: the client-side defenses (Merkle
// verification, certificates, freshness) and the cluster-side defenses
// (re-validation, equivocation resistance) against a malicious leader.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/consensus/batch_validation.h"
#include "core/system.h"
#include "wire/message.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RoResult;
using core::RwResult;
using core::System;
using core::SystemConfig;

struct Fixture {
  SystemConfig config;
  std::unique_ptr<System> system;
  std::vector<std::pair<Key, Value>> data;
  storage::PartitionMap pmap;

  explicit Fixture(uint32_t partitions = 2, uint64_t seed = 77,
                   sim::Time freshness_window = sim::Seconds(30),
                   uint32_t f = 1, ConsensusKind kind = ConsensusKind::kPbft)
      : pmap(partitions) {
    config.num_partitions = partitions;
    config.f = f;
    config.consensus_kind = kind;
    config.batch_interval = sim::Millis(5);
    config.view_change_timeout = sim::Millis(80);
    config.merkle_depth = 8;
    config.freshness_window = freshness_window;
    sim::EnvironmentOptions env_opts;
    env_opts.seed = seed;
    env_opts.inter_site_latency = sim::Millis(1);
    system = std::make_unique<System>(config, env_opts);
    workload::WorkloadOptions wopts;
    wopts.num_keys = 200;
    wopts.value_size = 8;
    data = workload::KeySpace(wopts, partitions).InitialData();
    system->Preload(data);
    system->Start();
  }

  Key KeyIn(PartitionId p) {
    for (const auto& [key, value] : data) {
      if (pmap.OwnerOf(key) == p) return key;
    }
    ADD_FAILURE();
    return "";
  }
};

TEST(ByzantineTest, TamperedReadValueIsDetectedByMerkleVerification) {
  Fixture fx;
  // The leader of partition 0 lies about values in read-only responses.
  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kTamperReadValue);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({fx.KeyIn(0)},
                            [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));

  ASSERT_TRUE(ro.has_value());
  EXPECT_FALSE(ro->status.ok());
  EXPECT_TRUE(ro->status.IsVerificationFailed()) << ro->status;
  EXPECT_EQ(client->stats().ro_verification_failures, 1u);
}

TEST(ByzantineTest, HonestPartitionStillServesWhileAnotherLies) {
  Fixture fx;
  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kTamperReadValue);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> honest;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadOnly({fx.KeyIn(1)},  // Only the honest partition.
                            [&](RoResult r) { honest = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(honest.has_value());
  EXPECT_TRUE(honest->status.ok()) << honest->status;
}

TEST(ByzantineTest, StaleSnapshotIsConsistentButFlaggedByFreshness) {
  // Tight 500 ms freshness window so a 64-batch-old snapshot (several
  // seconds of history) is flagged as stale by the client.
  Fixture fx(2, 77, sim::Millis(500));
  Client* client = fx.system->AddClient();
  client->set_check_freshness(true);
  Key k = fx.KeyIn(0);
  Client* writer = fx.system->AddClient();

  // Generate enough batches that "latest - 64" exists and is old.
  int committed = 0;
  // `write_loop` outlives the run, so closures hold a raw self-pointer
  // (a self-owning shared_ptr capture would be a leaked cycle).
  auto write_loop = std::make_shared<std::function<void()>>();
  auto* write_fn = write_loop.get();
  *write_loop = [&, write_fn] {
    if (committed >= 80) return;
    writer->ExecuteReadWrite({}, {WriteOp{k, ToBytes("w")}},
                             [&, write_fn](RwResult r) {
                               if (r.committed) ++committed;
                               (*write_fn)();
                             });
  };
  fx.system->env().Schedule(sim::Millis(30), *write_loop);
  fx.system->env().RunUntil(sim::Seconds(5));
  ASSERT_GE(committed, 80);

  fx.system->leader(0)->SetByzantineBehavior(
      core::ByzantineBehavior::kStaleSnapshot);
  std::optional<RoResult> ro;
  client->ExecuteReadOnly({k}, [&](RoResult r) { ro = std::move(r); });
  fx.system->env().RunUntil(fx.system->env().now() + sim::Seconds(2));

  ASSERT_TRUE(ro.has_value());
  // The stale response is *consistent* (it verifies — old but certified),
  // exactly as §4.4.2 describes...
  EXPECT_TRUE(ro->status.ok()) << ro->status;
  // ...but the freshness timestamp gives it away.
  EXPECT_FALSE(ro->fresh);
}

TEST(ByzantineTest, EquivocatingLeaderCannotCertifyAndIsReplaced) {
  // f = 2 (7 replicas): a half-split equivocation reaches at most
  // 1 + 3 = 4 matching votes < the 2f+1 = 5 quorum, so neither variant
  // certifies and the cluster must change views. (With f = 1, 4 replicas,
  // one variant can still legitimately reach quorum — and safety holds —
  // which is why this test uses the larger cluster.)
  Fixture fx(/*partitions=*/1, /*seed=*/77,
             /*freshness_window=*/sim::Seconds(30), /*f=*/2);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);
  Client* client = fx.system->AddClient();

  std::optional<RwResult> result;
  fx.system->env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("safe")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(30));

  // Safety: no two replicas ever certified different batches at the same
  // log position. (A replica may lag — BFT guarantees agreement for the
  // 2f+1 quorum, and catch-up runs only when a lagging replica's own
  // view-change request reveals its gap — so compare common prefixes.)
  size_t longest = 0;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    longest = std::max(longest, fx.system->node(0, i)->log().size());
  }
  EXPECT_GT(longest, 0u);
  size_t caught_up = 0;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    if (fx.system->node(0, i)->log().size() == longest) ++caught_up;
  }
  EXPECT_GE(caught_up, fx.config.quorum_size() - 1);  // Leader is faulty.
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    for (uint32_t j = i + 1; j < fx.config.replicas_per_cluster(); ++j) {
      const auto& a = fx.system->node(0, i)->log();
      const auto& b = fx.system->node(0, j)->log();
      size_t common = std::min(a.size(), b.size());
      for (size_t k = 0; k < common; ++k) {
        EXPECT_EQ(a.Get(static_cast<BatchId>(k)).value()->batch
                      .ComputeDigest(),
                  b.Get(static_cast<BatchId>(k)).value()->batch
                      .ComputeDigest());
      }
    }
  }
  // The cluster moved to a new view and committed the client's write.
  bool view_advanced = false;
  for (uint32_t i = 1; i < fx.config.replicas_per_cluster(); ++i) {
    if (fx.system->node(0, i)->view() > 0) view_advanced = true;
  }
  EXPECT_TRUE(view_advanced);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
}

TEST(ByzantineTest, CrashedFollowersDoNotBlockReadOnly) {
  Fixture fx;
  // Crash f followers in each cluster.
  fx.system->node(0, 3)->SetByzantineBehavior(
      core::ByzantineBehavior::kCrash);
  fx.system->node(1, 3)->SetByzantineBehavior(
      core::ByzantineBehavior::kCrash);
  Client* client = fx.system->AddClient();

  std::optional<RoResult> ro;
  fx.system->env().Schedule(sim::Millis(50), [&] {
    client->ExecuteReadOnly({fx.KeyIn(0), fx.KeyIn(1)},
                            [&](RoResult r) { ro = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(2));
  ASSERT_TRUE(ro.has_value());
  EXPECT_TRUE(ro->status.ok()) << ro->status;
}

TEST(ByzantineTest, ForgedCertificateRejectedByClientLogic) {
  // Unit-style check against the exact verification a client runs: a
  // byzantine node fabricates a batch and signs it only with itself.
  SystemConfig config;
  config.num_partitions = 1;
  config.f = 1;
  crypto::HmacSignatureScheme scheme(config.total_replicas() + 1, 9);

  storage::Batch fake;
  fake.partition = 0;
  fake.id = 3;
  fake.ro.cd_vector = txn::CdVector(1);
  fake.ro.lce = 2;
  fake.ro.merkle_root = crypto::Sha256::Hash(std::string_view("fake"));
  storage::BatchCertificate cert;
  cert.partition = 0;
  cert.batch_id = 3;
  cert.batch_digest = fake.ComputeDigest();
  cert.merkle_root = fake.ro.merkle_root;
  cert.ro_digest = fake.ro.ComputeDigest();
  // Only one signature — f+1 = 2 required.
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));
  Status s = cert.Verify(scheme.verifier(), config.certificate_size(),
                         config.ClusterMembers(0));
  EXPECT_TRUE(s.IsVerificationFailed());

  // Even duplicating its own signature does not help.
  cert.signatures.Add(scheme.MakeSigner(0)->Sign(cert.SignedPayload()));
  EXPECT_TRUE(cert.Verify(scheme.verifier(), config.certificate_size(),
                          config.ClusterMembers(0))
                  .IsVerificationFailed());
}

TEST(ByzantineTest, InvalidLeaderProposalIsNotCertified) {
  // An equivocating leader sends conflicting proposals (different
  // digests) to the two halves of the cluster, so neither variant can
  // gather a quorum. Every batch any replica did decide must carry a
  // certificate over its own digest. The wrong-root proposal is
  // covered by WrongRootProposalTest below.
  Fixture fx(/*partitions=*/1);
  fx.system->node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);
  fx.system->env().Schedule(sim::Millis(30), [&] {
    Client* client = fx.system->AddClient();
    client->ExecuteReadWrite({}, {WriteOp{fx.KeyIn(0), ToBytes("v")}},
                             [](RwResult) {});
  });
  fx.system->env().RunUntil(sim::Seconds(20));

  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    const auto& log = fx.system->node(0, i)->log();
    for (BatchId b = 0; log.size() > 0 && b <= log.LastBatchId(); ++b) {
      const storage::LogEntry* entry = log.Get(b).value();
      EXPECT_EQ(entry->certificate.batch_digest,
                entry->batch.ComputeDigest());
      EXPECT_TRUE(entry->certificate
                      .Verify(fx.system->verifier(),
                              fx.config.certificate_size(),
                              fx.config.ClusterMembers(0))
                      .ok());
    }
  }
}

// A leader-signed proposal whose Merkle root disagrees with its writes.
// The link filter drops the leader's genuine proposals and sends each
// follower a copy with a corrupted `ro.merkle_root`, re-signed with the
// leader's key (derived from the same seed System uses). Root
// recomputation during validation is the only check that catches it:
// no honest replica may vote for, certify or apply such a batch, and
// the cluster must replace the leader and commit the write anyway.
class WrongRootProposalTest : public ::testing::TestWithParam<ConsensusKind> {
};

INSTANTIATE_TEST_SUITE_P(
    Engines, WrongRootProposalTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(WrongRootProposalTest, WrongRootProposalIsNeverCertified) {
  const uint64_t seed = 77;
  Fixture fx(/*partitions=*/1, seed, sim::Seconds(30), /*f=*/1, GetParam());
  const crypto::NodeId leader = fx.config.LeaderOf(0, 0);
  crypto::HmacSignatureScheme scheme(fx.config.total_replicas(),
                                     seed ^ 0x5ed);
  std::unique_ptr<crypto::Signer> leader_signer = scheme.MakeSigner(leader);

  sim::Network& net = fx.system->env().network();
  std::set<sim::MessagePtr> injected;  // Held, so no address is reused.
  std::set<crypto::Digest> wrong_digests;
  int tampered_votes = 0;

  // Counts a vote for a corrupted proposal; the vote itself travels.
  auto count_vote = [&](const crypto::Digest& digest) {
    tampered_votes += static_cast<int>(wrong_digests.count(digest));
    return true;
  };
  // Sends `to` a copy of the leader's proposal with a corrupted root,
  // re-signed as the leader, in place of the original.
  auto send_corrupted = [&](auto proposal, sim::ActorId to) {
    proposal->batch.ro.merkle_root.bytes[0] ^= 0xff;
    crypto::Digest digest = proposal->batch.ComputeDigest();
    wrong_digests.insert(digest);
    proposal->leader_signature =
        leader_signer->Sign(core::ProposalSignPayload(digest));
    if constexpr (requires { proposal->leader_cert_share; }) {
      proposal->leader_cert_share = leader_signer->Sign(
          core::CertificatePayloadFor(0, proposal->batch, digest)
              .SignedPayload());
    }
    injected.insert(proposal);
    net.Send(leader, to, std::move(proposal));
    return false;
  };
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    if (injected.count(msg) > 0) return true;
    switch (static_cast<wire::MessageType>(msg->type())) {
      case wire::MessageType::kPrepare:
        return count_vote(
            static_cast<const wire::PrepareMsg&>(*msg).batch_digest);
      case wire::MessageType::kLinearVote:
        return count_vote(
            static_cast<const wire::LinearVoteMsg&>(*msg).batch_digest);
      case wire::MessageType::kPrePrepare:
        if (from != leader) return true;
        return send_corrupted(
            std::make_shared<wire::PrePrepareMsg>(
                static_cast<const wire::PrePrepareMsg&>(*msg)),
            to);
      case wire::MessageType::kLinearPropose:
        if (from != leader) return true;
        return send_corrupted(
            std::make_shared<wire::LinearProposeMsg>(
                static_cast<const wire::LinearProposeMsg&>(*msg)),
            to);
      default:
        return true;
    }
  });

  std::optional<RwResult> result;
  const Key key = fx.KeyIn(0);
  fx.system->env().Schedule(sim::Millis(30), [&] {
    Client* client = fx.system->AddClient();
    client->ExecuteReadWrite({}, {WriteOp{key, ToBytes("v")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  fx.system->env().RunUntil(sim::Seconds(20));
  net.SetLinkFilter(nullptr);

  ASSERT_FALSE(wrong_digests.empty());  // The fault was injected.
  EXPECT_EQ(tampered_votes, 0);
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    const auto* node = fx.system->node(0, i);
    EXPECT_GT(node->view(), 0u) << "replica " << i;
    const auto& log = node->log();
    for (BatchId b = 0; log.size() > 0 && b <= log.LastBatchId(); ++b) {
      const storage::LogEntry* entry = log.Get(b).value();
      EXPECT_EQ(wrong_digests.count(entry->batch.ComputeDigest()), 0u)
          << "replica " << i << " batch " << b;
    }
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
}

// Votes count only from cluster members. f+1 replicas of partition 1
// each send every replica of partition 0 a view-change demand for view
// 1, correctly signed with their own keys. Under either engine that
// would be enough to start a view change if outsiders counted (f+1
// demands make a replica join; its own and the joiners' votes reach
// 2f+1). Partition 0 must ignore them; the same demands from f+1 of its
// own members then do change the view, so the injection path is live.
class OutsiderViewChangeTest
    : public ::testing::TestWithParam<ConsensusKind> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, OutsiderViewChangeTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(OutsiderViewChangeTest, NonMembersCannotForceAViewChange) {
  const uint64_t seed = 77;
  Fixture fx(/*partitions=*/2, seed, sim::Seconds(30), /*f=*/1, GetParam());
  crypto::HmacSignatureScheme scheme(fx.config.total_replicas(),
                                     seed ^ 0x5ed);
  sim::Network& net = fx.system->env().network();

  // The demand `sender` signs for view 1 (both engines share the
  // view-change message).
  auto demand = [&](crypto::NodeId sender) -> sim::MessagePtr {
    Encoder payload;
    payload.PutString("transedge-linear-view-change");
    payload.PutU32(0);  // Partition.
    payload.PutU64(1);
    auto msg = std::make_shared<wire::LinearViewChangeMsg>();
    msg->new_view = 1;
    msg->signature = scheme.MakeSigner(sender)->Sign(payload.buffer());
    return msg;
  };
  // Senders are the last f+1 replicas of their cluster, so neither the
  // current leader nor view 1's leader is among them.
  auto send_demands = [&](PartitionId from_partition) {
    const uint32_t n = fx.config.replicas_per_cluster();
    for (uint32_t s = n - 1 - fx.config.f; s < n; ++s) {
      crypto::NodeId sender = fx.config.ReplicaNode(from_partition, s);
      for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
        net.Send(sender, fx.config.ReplicaNode(0, i), demand(sender));
      }
    }
  };
  auto view_changes = [&] {
    uint64_t total = 0;
    for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
      total += fx.system->node(0, i)->stats().view_changes;
    }
    return total;
  };

  fx.system->env().Schedule(sim::Millis(30), [&] { send_demands(1); });
  fx.system->env().RunUntil(sim::Seconds(1));
  EXPECT_EQ(view_changes(), 0u);
  for (uint32_t i = 0; i < fx.config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(fx.system->node(0, i)->view(), 0u) << "replica " << i;
  }

  fx.system->env().Schedule(sim::Millis(10), [&] { send_demands(0); });
  fx.system->env().RunUntil(sim::Seconds(2));
  EXPECT_GT(view_changes(), 0u);
}

// Catch-up intake: a forged log entry for a future slot, sent to a
// lagging replica ahead of the genuine transfer, must be dropped on
// receipt. Parked unchecked, it would shadow the genuine entry for its
// slot and stall the replica until someone served the transfer again.
// The lagging replica gets exactly one transfer here: its later
// view-change requests (which would trigger another) are dropped.
class ForgedCatchUpTest : public ::testing::TestWithParam<ConsensusKind> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, ForgedCatchUpTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(ForgedCatchUpTest, ForgedFutureEntryDoesNotBlockCatchUp) {
  const uint64_t seed = 77;
  Fixture fx(/*partitions=*/1, seed, sim::Seconds(30), /*f=*/1, GetParam());
  crypto::HmacSignatureScheme scheme(fx.config.total_replicas(),
                                     seed ^ 0x5ed);
  sim::Network& net = fx.system->env().network();
  fx.system->env().RunUntil(sim::Millis(50));  // Genesis decided everywhere.

  const crypto::NodeId lagging = fx.config.ReplicaNode(0, 2);
  net.Disconnect(lagging);
  Client* client = fx.system->AddClient();
  int committed = 0;
  auto write = [&](size_t key, const char* value) {
    client->ExecuteReadWrite({}, {WriteOp{fx.data[key].first, ToBytes(value)}},
                             [&](RwResult r) {
                               if (r.committed) ++committed;
                             });
  };
  // Spaced writes, so the lagging replica misses several batches.
  for (size_t i = 0; i < 5; ++i) {
    fx.system->env().Schedule(sim::Millis(10 + 20 * static_cast<int>(i)),
                              [&, i] { write(i, "gap"); });
  }
  fx.system->env().RunUntil(sim::Millis(400));
  ASSERT_EQ(committed, 5);
  const storage::SmrLog& leader_log = fx.system->node(0, 0)->log();
  const storage::SmrLog& lag_log = fx.system->node(0, 2)->log();
  const BatchId next = lag_log.LastBatchId() + 1;
  ASSERT_GE(leader_log.LastBatchId(), next + 1);  // A future slot exists.

  int requests = 0;
  net.SetLinkFilter([&](sim::ActorId from, sim::ActorId,
                        const sim::MessagePtr& msg) {
    if (from != lagging || static_cast<wire::MessageType>(msg->type()) !=
                               wire::MessageType::kLinearViewChange) {
      return true;
    }
    return ++requests == 1;
  });
  net.Reconnect(lagging);

  // A cluster member forges every future entry: a variant of the real
  // batch whose certificate carries only the forger's own signature.
  const crypto::NodeId forger = fx.config.ReplicaNode(0, 3);
  std::unique_ptr<crypto::Signer> signer = scheme.MakeSigner(forger);
  for (BatchId id = next + 1; id <= leader_log.LastBatchId(); ++id) {
    auto forged = std::make_shared<wire::LinearCatchUpMsg>();
    forged->batch = leader_log.Get(id).value()->batch;
    forged->batch.ro.timestamp_us += 1;
    forged->cert = core::CertificatePayloadFor(
        0, forged->batch, forged->batch.ComputeDigest());
    forged->cert.signatures.Add(signer->Sign(forged->cert.SignedPayload()));
    net.Send(forger, lagging, std::move(forged));
  }

  // One more write shows the lagging replica a proposal past its log;
  // its progress timer then requests a view change, which the
  // prospective leader answers with the genuine transfer.
  fx.system->env().Schedule(sim::Millis(10), [&] { write(10, "after"); });
  fx.system->env().RunUntil(fx.system->env().now() + sim::Seconds(2));
  net.SetLinkFilter(nullptr);

  EXPECT_EQ(committed, 6);
  EXPECT_GE(requests, 1);
  ASSERT_EQ(lag_log.size(), leader_log.size());
  for (BatchId id = 0; id <= leader_log.LastBatchId(); ++id) {
    EXPECT_EQ(lag_log.Get(id).value()->batch.ComputeDigest(),
              leader_log.Get(id).value()->batch.ComputeDigest())
        << "batch " << id;
  }
}

}  // namespace
}  // namespace transedge
