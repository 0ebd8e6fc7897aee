// The Consensus interface seam: every engine behind
// SystemConfig::consensus_kind must produce the same committed store
// state for the same workload/seed, valid f+1 certificates, and live
// view changes. Every live replica's store must hash to the Merkle root
// certified for its applied watermark. Also pins the message-complexity
// contrast the linear engine exists for (O(n) vs O(n²) per decided batch).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "merkle/merkle_tree.h"
#include "storage/partition_map.h"
#include "storage/storage_kind.h"
#include "wire/message.h"
#include "workload/generator.h"

namespace transedge {
namespace {

using core::Client;
using core::ConsensusKind;
using core::RwResult;
using core::System;
using core::SystemConfig;

SystemConfig BaseConfig(ConsensusKind kind, uint32_t partitions = 2,
                        uint32_t f = 1) {
  SystemConfig config;
  config.num_partitions = partitions;
  config.f = f;
  config.consensus_kind = kind;
  config.batch_interval = sim::Millis(5);
  config.view_change_timeout = sim::Millis(100);
  config.merkle_depth = 8;
  return config;
}

sim::EnvironmentOptions FastEnv(uint64_t seed = 7) {
  sim::EnvironmentOptions opts;
  opts.seed = seed;
  opts.inter_site_latency = sim::Millis(1);
  return opts;
}

std::vector<std::pair<Key, Value>> TestData(uint32_t partitions) {
  workload::WorkloadOptions wopts;
  wopts.num_keys = 200;
  wopts.value_size = 8;
  return workload::KeySpace(wopts, partitions).InitialData();
}

/// Runs the same mixed workload (independent local writes, a contended
/// read-modify-write chain, distributed cross-partition writes) under
/// `kind` and returns the final committed state of every touched key,
/// after asserting all replicas of the owning cluster agree on it.
/// `inspect` sees the system once the workload has drained.
std::map<Key, std::string> RunWorkload(
    ConsensusKind kind, uint64_t seed, uint32_t pipeline_depth = 1,
    bool async_apply = false, uint32_t apply_shards = 1,
    storage::StorageKind storage_kind = storage::StorageKind::kInMemory,
    const std::function<void(const System&)>& inspect = {}) {
  SystemConfig config = BaseConfig(kind);
  config.pipeline_depth = pipeline_depth;
  config.async_apply = async_apply;
  config.apply_shards = apply_shards;
  config.storage_kind = storage_kind;
  System system(config, FastEnv(seed));
  auto data = TestData(config.num_partitions);
  system.Preload(data);
  system.Start();

  storage::PartitionMap pmap(config.num_partitions);
  std::vector<Key> part0_keys, part1_keys;
  for (const auto& [key, value] : data) {
    (pmap.OwnerOf(key) == 0 ? part0_keys : part1_keys).push_back(key);
  }

  std::vector<Key> touched;
  int pending = 0;
  auto done = [&](RwResult r) {
    EXPECT_TRUE(r.committed) << r.reason;
    --pending;
  };

  // (a) Independent local writers on each partition.
  for (int c = 0; c < 4; ++c) {
    Client* client = system.AddClient();
    Key k0 = part0_keys[static_cast<size_t>(c)];
    Key k1 = part1_keys[static_cast<size_t>(c)];
    touched.push_back(k0);
    touched.push_back(k1);
    system.env().Schedule(sim::Millis(20), [&, client, k0, k1, c] {
      pending += 2;
      client->ExecuteReadWrite(
          {}, {WriteOp{k0, ToBytes("l" + std::to_string(c))}}, done);
      client->ExecuteReadWrite(
          {}, {WriteOp{k1, ToBytes("l" + std::to_string(c))}}, done);
    });
  }

  // (b) A contended chain on one hot key: sequential read-modify-writes.
  // `chain` lives in this frame, which outlives every simulated event.
  std::function<void(int)> chain;
  {
    Client* client = system.AddClient();
    Key hot = part0_keys[10];
    touched.push_back(hot);
    chain = [&, client, hot](int step) {
      if (step >= 4) return;
      ++pending;
      client->ExecuteReadWrite(
          {hot}, {WriteOp{hot, ToBytes("chain" + std::to_string(step))}},
          [&, step](RwResult r) {
            EXPECT_TRUE(r.committed) << r.reason;
            --pending;
            chain(step + 1);
          });
    };
    system.env().Schedule(sim::Millis(20), [&chain] { chain(0); });
  }

  // (c) Distributed writers over disjoint cross-partition pairs.
  for (int c = 0; c < 3; ++c) {
    Client* client = system.AddClient();
    Key a = part0_keys[static_cast<size_t>(13 + c)];
    Key b = part1_keys[static_cast<size_t>(c + 5)];
    touched.push_back(a);
    touched.push_back(b);
    system.env().Schedule(sim::Millis(25), [&, client, a, b, c] {
      ++pending;
      client->ExecuteReadWrite(
          {}, {WriteOp{a, ToBytes("d" + std::to_string(c))},
               WriteOp{b, ToBytes("d" + std::to_string(c))}},
          done);
    });
  }

  system.env().RunUntil(sim::Seconds(5));
  EXPECT_EQ(pending, 0) << "workload did not drain under "
                        << core::ConsensusKindName(kind);

  if (inspect) inspect(system);

  std::map<Key, std::string> state;
  for (const Key& key : touched) {
    PartitionId p = pmap.OwnerOf(key);
    auto value = system.node(p, 0)->store().Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (!value.ok()) continue;
    state[key] = ToString(value->value);
    for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
      auto other = system.node(p, i)->store().Get(key);
      EXPECT_TRUE(other.ok()) << key;
      if (!other.ok()) continue;
      EXPECT_EQ(ToString(other->value), state[key])
          << "replica " << i << " diverges on " << key << " under "
          << core::ConsensusKindName(kind);
    }
  }
  return state;
}

// ---------------------------------------------------------------------------
// Engine invariance: identical committed state across engines
// ---------------------------------------------------------------------------

TEST(ConsensusInterfaceTest, CommittedStateIsIdenticalAcrossEngines) {
  for (uint64_t seed : {7u, 21u}) {
    std::map<Key, std::string> pbft = RunWorkload(ConsensusKind::kPbft, seed);
    ASSERT_FALSE(pbft.empty());
    std::map<Key, std::string> linear =
        RunWorkload(ConsensusKind::kLinearVote, seed);
    EXPECT_EQ(linear, pbft) << "engines diverged at seed " << seed;
  }
}

// Pipelining and asynchronous/sharded apply are pure scheduling changes:
// whatever combination of consensus_kind × pipeline_depth × apply mode
// runs the workload, the committed state must match the strictly
// sequential PBFT baseline.
TEST(ConsensusInterfaceTest, CommittedStateIsInvariantAcrossDepthsAndApplyModes) {
  const uint64_t seed = 7;
  std::map<Key, std::string> reference =
      RunWorkload(ConsensusKind::kPbft, seed);
  ASSERT_FALSE(reference.empty());

  struct Case {
    uint32_t depth;
    bool async;
    uint32_t shards;
  };
  for (const Case& c : {Case{1, false, 1}, Case{1, true, 1}, Case{2, true, 1},
                        Case{4, true, 1}, Case{4, true, 4}}) {
    std::map<Key, std::string> state = RunWorkload(
        ConsensusKind::kLinearVote, seed, c.depth, c.async, c.shards);
    EXPECT_EQ(state, reference)
        << "linear diverged at depth=" << c.depth << " async=" << c.async
        << " shards=" << c.shards;
  }

  // The PBFT engine pins MaxPipelineDepth at 1: a config asking for a
  // deep pipeline must degrade to the sequential schedule, not misbehave.
  EXPECT_EQ(RunWorkload(ConsensusKind::kPbft, seed, /*pipeline_depth=*/4,
                        /*async_apply=*/true),
            reference);
}

// ---------------------------------------------------------------------------
// Live stores agree with the certified roots
// ---------------------------------------------------------------------------

struct StoreRootCase {
  ConsensusKind consensus;
  storage::StorageKind storage;
  bool async_apply;
};

class StoreMatchesCertifiedRootTest
    : public ::testing::TestWithParam<StoreRootCase> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, StoreMatchesCertifiedRootTest,
    ::testing::ValuesIn([] {
      std::vector<StoreRootCase> cases;
      for (ConsensusKind consensus :
           {ConsensusKind::kPbft, ConsensusKind::kLinearVote}) {
        for (storage::StorageKind storage :
             {storage::StorageKind::kInMemory, storage::StorageKind::kPaged}) {
          for (bool async_apply : {false, true}) {
            cases.push_back({consensus, storage, async_apply});
          }
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<StoreRootCase>& info) {
      return std::string(core::ConsensusKindName(info.param.consensus)) +
             "_" + storage::StorageKindName(info.param.storage) +
             (info.param.async_apply ? "_async" : "_sync");
    });

// The root check otherwise runs only on recovery. Here every replica of
// a live deployment, after local and 2PC traffic, must rebuild from its
// store exactly the Merkle root certified for the batch it last applied.
TEST_P(StoreMatchesCertifiedRootTest, EveryReplicaStoreHashesToItsRoot) {
  const StoreRootCase& c = GetParam();
  // Async apply also pipelines linear-vote instances (PBFT pins depth 1)
  // and carves the apply over four Merkle shards.
  const uint32_t depth = c.async_apply ? 4 : 1;
  const uint32_t shards = c.async_apply ? 4 : 1;
  size_t checked = 0;
  RunWorkload(
      c.consensus, /*seed=*/7, depth, c.async_apply, shards, c.storage,
      [&](const System& system) {
        const SystemConfig& config = system.config();
        for (PartitionId p = 0; p < config.num_partitions; ++p) {
          for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
            const core::TransEdgeNode* node = system.node(p, i);
            ASSERT_NE(node->last_applied(), kNoBatch);
            auto entry = node->log().Get(node->last_applied());
            ASSERT_TRUE(entry.ok()) << entry.status();
            merkle::MerkleTree rebuilt(config.merkle_depth);
            node->store().ForEachLatest(
                [&](const Key& key, const Value& value, BatchId version) {
                  rebuilt.Put(key, value, version);
                });
            EXPECT_TRUE(rebuilt.RootDigest() ==
                        entry.value()->certificate.merkle_root)
                << "partition " << p << " replica " << i
                << " diverges from the root certified for batch "
                << node->last_applied();
            ++checked;
          }
        }
      });
  EXPECT_EQ(checked, 8u);
}

// ---------------------------------------------------------------------------
// Linear-vote engine basics
// ---------------------------------------------------------------------------

class LinearVoteTest : public ::testing::Test {};

TEST_F(LinearVoteTest, ReplicasConvergeOnIdenticalLogs) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  Client* client = system.AddClient();

  int committed = 0;
  system.env().Schedule(sim::Millis(30), [&] {
    for (int i = 0; i < 20; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Seconds(2));
  EXPECT_EQ(committed, 20);

  const auto& reference = system.node(0, 0)->log();
  ASSERT_GT(reference.size(), 0u);
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    const auto& log = system.node(0, i)->log();
    ASSERT_EQ(log.size(), reference.size()) << "replica " << i;
    for (BatchId b = 0; b <= reference.LastBatchId(); ++b) {
      EXPECT_EQ(log.Get(b).value()->batch.ComputeDigest(),
                reference.Get(b).value()->batch.ComputeDigest())
          << "batch " << b << " replica " << i;
    }
  }
}

TEST_F(LinearVoteTest, CertificatesCarryQuorumOfValidSignatures) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  system.Preload(TestData(1));
  system.Start();
  system.env().RunUntil(sim::Millis(100));

  const auto& log = system.node(0, 0)->log();
  ASSERT_GE(log.size(), 1u);
  const storage::LogEntry* genesis = log.Get(0).value();
  Status s = genesis->certificate.Verify(system.verifier(),
                                         config.certificate_size(),
                                         config.ClusterMembers(0));
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(genesis->certificate.batch_digest,
            genesis->batch.ComputeDigest());
  EXPECT_EQ(genesis->certificate.merkle_root, genesis->batch.ro.merkle_root);
  EXPECT_EQ(genesis->certificate.ro_digest, genesis->batch.ro.ComputeDigest());
  // Followers verify the same certificate object they logged.
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    const auto& flog = system.node(0, i)->log();
    ASSERT_GE(flog.size(), 1u) << "replica " << i;
    EXPECT_TRUE(flog.Get(0)
                    .value()
                    ->certificate
                    .Verify(system.verifier(), config.certificate_size(),
                            config.ClusterMembers(0))
                    .ok())
        << "replica " << i;
  }
}

TEST_F(LinearVoteTest, ViewChangeElectsNewLeaderAfterLeaderCrash) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  // Let genesis commit under the original leader first.
  system.env().RunUntil(sim::Millis(50));
  ASSERT_GE(system.node(0, 0)->log().size(), 1u);

  system.env().network().Disconnect(config.ReplicaNode(0, 0));
  system.node(0, 0)->SetByzantineBehavior(core::ByzantineBehavior::kCrash);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(100), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("post-vc")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  bool view_advanced = false;
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    if (system.node(0, i)->view() > 0) view_advanced = true;
  }
  EXPECT_TRUE(view_advanced);
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    auto v = system.node(0, i)->store().Get(data[0].first);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(ToString(v->value), "post-vc");
  }
}

// ---------------------------------------------------------------------------
// View-change safety and catch-up, under both engines
// ---------------------------------------------------------------------------

/// Withholds the view-0 decision from every replica but the view-0
/// leader: the linear engine's commit QCs never leave that leader, and
/// PBFT's view-0 Commit votes reach only it. The leader decides alone;
/// the others hold a prepare-certificate lock but no decision when
/// their progress timers fire.
sim::Network::LinkFilter WithholdCommitsFromAllButLeader(
    crypto::NodeId first_leader) {
  return [first_leader](sim::ActorId from, sim::ActorId to,
                        const sim::MessagePtr& msg) {
    switch (static_cast<wire::MessageType>(msg->type())) {
      case wire::MessageType::kLinearQc:
        return from != first_leader ||
               static_cast<const wire::LinearQcMsg&>(*msg).phase !=
                   wire::kLinearPhaseCommit;
      case wire::MessageType::kCommit:
        return to == first_leader ||
               static_cast<const wire::CommitMsg&>(*msg).view != 0;
      default:
        return true;
    }
  };
}

/// Every pair of replica logs of partition 0 agrees on its common prefix.
void ExpectNoFork(const System& system) {
  const uint32_t n = system.config().replicas_per_cluster();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const auto& a = system.node(0, i)->log();
      const auto& b = system.node(0, j)->log();
      BatchId common = std::min(a.LastBatchId(), b.LastBatchId());
      for (BatchId id = 0; id <= common; ++id) {
        EXPECT_EQ(a.Get(id).value()->batch.ComputeDigest(),
                  b.Get(id).value()->batch.ComputeDigest())
            << "fork at batch " << id << " between replicas " << i << " and "
            << j;
      }
    }
  }
}

class EngineSafetyTest : public ::testing::TestWithParam<ConsensusKind> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineSafetyTest,
    ::testing::Values(ConsensusKind::kPbft, ConsensusKind::kLinearVote),
    [](const ::testing::TestParamInfo<ConsensusKind>& info) {
      return std::string(core::ConsensusKindName(info.param));
    });

TEST_P(EngineSafetyTest, DelayedCommitQcDoesNotForkTheLog) {
  // Regression for the view-change safety hole: the view-0 leader
  // decides locally, but the decision never reaches the replicas before
  // their progress timers fire. Without the prepare-certificate lock
  // carried through the view change, the new leader would propose a
  // *different* batch at the same id and permanently fork the old
  // leader's log.
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.env().network().SetLinkFilter(
      WithholdCommitsFromAllButLeader(config.ReplicaNode(0, 0)));
  system.Start();

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("survive")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;

  // The old leader decided batches the others only saw after the view
  // change; every pair of logs must still agree on their common prefix
  // (in particular at id 0, which node 0 decided alone in view 0).
  bool view_advanced = false;
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    if (system.node(0, i)->view() > 0) view_advanced = true;
    ASSERT_GT(system.node(0, i)->log().size(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(view_advanced);
  ExpectNoFork(system);
}

// The pipelined generalisation of DelayedCommitQcDoesNotForkTheLog: with
// depth k the view-0 leader may have decided *several* batches whose
// commit QCs never reached the replicas. The per-slot locks carried
// through the view change must make the new leader re-propose the whole
// in-flight prefix — any slot it fabricated instead would fork the old
// leader's log.
class PipelinedForkTest : public ::testing::TestWithParam<uint32_t> {};
INSTANTIATE_TEST_SUITE_P(Depths, PipelinedForkTest, ::testing::Values(2u, 4u));

TEST_P(PipelinedForkTest, DelayedCommitQcMidWindowDoesNotFork) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  config.pipeline_depth = GetParam();
  config.async_apply = true;
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);

  system.env().network().SetLinkFilter(
      WithholdCommitsFromAllButLeader(config.ReplicaNode(0, 0)));
  system.Start();

  // Enough independent writers that the leader keeps the pipeline full
  // while the commit QCs silently vanish.
  Client* client = system.AddClient();
  int committed = 0;
  system.env().Schedule(sim::Millis(30), [&] {
    for (int i = 0; i < 8; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("mw")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Seconds(30));

  EXPECT_GT(committed, 0);
  const uint32_t n = config.replicas_per_cluster();
  bool view_advanced = false;
  for (uint32_t i = 0; i < n; ++i) {
    if (system.node(0, i)->view() > 0) view_advanced = true;
    ASSERT_GT(system.node(0, i)->log().size(), 0u) << "replica " << i;
  }
  EXPECT_TRUE(view_advanced);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      const auto& a = system.node(0, i)->log();
      const auto& b = system.node(0, j)->log();
      BatchId common = std::min(a.LastBatchId(), b.LastBatchId());
      for (BatchId id = 0; id <= common; ++id) {
        EXPECT_EQ(a.Get(id).value()->batch.ComputeDigest(),
                  b.Get(id).value()->batch.ComputeDigest())
            << "fork at batch " << id << " between replicas " << i << " and "
            << j << " at depth " << GetParam();
      }
    }
  }
}

// A byzantine replica reports its (real) locks with inflated view
// numbers during the view change, trying to outrank genuinely newer
// locks. The view-bind quorum embedded in each prepare certificate
// certifies the true view, so the new leader drops the inflated reports
// and the cluster converges on the honestly locked batches.
TEST_P(EngineSafetyTest, InflatedLockViewReportCannotHijackViewChange) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  config.pipeline_depth = 2;  // PBFT pins its depth to 1.
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);

  // Replicas lock but never decide in view 0, so the view change
  // happens with live locks to report.
  system.env().network().SetLinkFilter(
      WithholdCommitsFromAllButLeader(config.ReplicaNode(0, 0)));
  system.Start();
  system.node(0, 2)->SetByzantineBehavior(
      core::ByzantineBehavior::kInflateLockView);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("honest")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
  const uint32_t n = config.replicas_per_cluster();
  bool view_advanced = false;
  for (uint32_t i = 0; i < n; ++i) {
    if (system.node(0, i)->view() > 0) view_advanced = true;
  }
  EXPECT_TRUE(view_advanced);
  // No fork, and every logged certificate still verifies.
  ExpectNoFork(system);
  for (uint32_t i = 1; i < n; ++i) {
    const auto& log = system.node(0, i)->log();
    for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
      EXPECT_TRUE(log.Get(b)
                      .value()
                      ->certificate
                      .Verify(system.verifier(), config.certificate_size(),
                              config.ClusterMembers(0))
                      .ok());
    }
  }
}

TEST_P(EngineSafetyTest, LaggingReplicaCatchesUpWithoutViewChange) {
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  system.env().RunUntil(sim::Millis(50));  // Genesis decided everywhere.

  const crypto::NodeId lagging = config.ReplicaNode(0, 2);
  system.env().network().Disconnect(lagging);

  Client* client = system.AddClient();
  int committed = 0;
  system.env().Schedule(sim::Millis(10), [&] {
    for (int i = 0; i < 5; ++i) {
      client->ExecuteReadWrite(
          {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("gap")}},
          [&](RwResult r) {
            if (r.committed) ++committed;
          });
    }
  });
  system.env().RunUntil(sim::Millis(400));
  EXPECT_EQ(committed, 5);
  EXPECT_LT(system.node(0, 2)->log().size(), system.node(0, 0)->log().size());

  system.env().network().Reconnect(lagging);
  // One more write makes the lagging replica see a proposal beyond its
  // log; its progress timer then requests a view change whose
  // last_committed triggers the catch-up transfer instead.
  system.env().Schedule(sim::Millis(10), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[10].first, ToBytes("after")}},
                             [&](RwResult r) {
                               if (r.committed) ++committed;
                             });
  });
  system.env().RunUntil(sim::Seconds(2));

  EXPECT_EQ(committed, 6);
  const auto& reference = system.node(0, 0)->log();
  const auto& lag_log = system.node(0, 2)->log();
  ASSERT_EQ(lag_log.size(), reference.size());
  for (BatchId id = 0; id <= reference.LastBatchId(); ++id) {
    EXPECT_EQ(lag_log.Get(id).value()->batch.ComputeDigest(),
              reference.Get(id).value()->batch.ComputeDigest())
        << "batch " << id;
  }
  // The transfer sufficed; nobody had to change views.
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
  auto v = system.node(0, 2)->store().Get(data[10].first);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToString(v->value), "after");
}

// Counts the read-only replies a hand-driven client receives.
struct RoReplyCounter : sim::Actor {
  int replies = 0;
  void OnMessage(sim::ActorId, const sim::MessagePtr& msg) override {
    if (static_cast<wire::MessageType>(msg->type()) ==
        wire::MessageType::kRoReply) {
      ++replies;
    }
  }
};

TEST_P(EngineSafetyTest, ReadsAtAnIdleFollowerDemandNoViewChange) {
  // A follower forwards leader-bound reads and watch requests, but only
  // forwards that owe a batch (commit requests and 2PC legs) may arm its
  // progress timer: a fault-free partition with no writes decides no
  // batch for a read, so a timer armed by one would depose a healthy
  // leader.
  SystemConfig config = BaseConfig(GetParam(), /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  int view_change_msgs = 0;
  system.env().network().SetLinkFilter(
      [&](sim::ActorId, sim::ActorId, const sim::MessagePtr& msg) {
        auto type = static_cast<wire::MessageType>(msg->type());
        if (type == wire::MessageType::kLinearViewChange ||
            type == wire::MessageType::kLinearNewView) {
          ++view_change_msgs;
        }
        return true;
      });
  system.Start();
  system.env().RunUntil(sim::Millis(50));  // Genesis decided everywhere.

  RoReplyCounter probe;
  const sim::ActorId probe_id = config.ClientNode(1000);
  system.env().network().Register(probe_id, /*site=*/0, &probe);
  const crypto::NodeId follower = config.ReplicaNode(0, 1);
  auto send = [&](auto msg) {
    system.env().network().Send(probe_id, follower,
                                core::ShareMsg(std::move(msg)));
  };
  // Ten view-change timeouts of reads, watches and unwatches.
  const int rounds = 50;
  const sim::Time every = config.view_change_timeout / 5;
  for (int i = 0; i < rounds; ++i) {
    system.env().Schedule(every * i, [&, i] {
      const uint64_t id = static_cast<uint64_t>(i);
      wire::RoRequest ro;
      ro.request_id = 2 * id;
      ro.reply_to = probe_id;
      ro.keys = {data[0].first};
      send(std::move(ro));
      wire::RoBatchRequest round2;
      round2.request_id = 2 * id + 1;
      round2.reply_to = probe_id;
      round2.keys = {data[1].first};
      round2.min_lce = kNoBatch;
      send(std::move(round2));
      wire::WatchSubscribeRequest watch;
      watch.watch_id = id;
      watch.reply_to = probe_id;
      watch.range_lo = "k";
      watch.range_hi = "k~";
      send(std::move(watch));
      wire::WatchUnsubscribe unwatch;
      unwatch.watch_id = id;
      unwatch.reply_to = probe_id;
      send(std::move(unwatch));
    });
  }
  system.env().RunUntil(system.env().now() + every * rounds +
                        2 * config.view_change_timeout);

  // The forwards reached the leader, which answered every read.
  EXPECT_EQ(probe.replies, 2 * rounds);
  EXPECT_EQ(view_change_msgs, 0);
  for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
    EXPECT_EQ(system.node(0, i)->view(), 0u) << "replica " << i;
  }
}

TEST_F(LinearVoteTest, EquivocatingLeaderCannotCertifyEitherVariant) {
  SystemConfig config = BaseConfig(ConsensusKind::kLinearVote,
                                   /*partitions=*/1);
  System system(config, FastEnv());
  auto data = TestData(1);
  system.Preload(data);
  system.Start();
  // Equivocate from the start: not even genesis can gather a quorum of
  // matching votes, and the cluster elects an honest leader instead.
  system.node(0, 0)->SetByzantineBehavior(
      core::ByzantineBehavior::kEquivocate);

  Client* client = system.AddClient();
  std::optional<RwResult> result;
  system.env().Schedule(sim::Millis(30), [&] {
    client->ExecuteReadWrite({}, {WriteOp{data[0].first, ToBytes("honest")}},
                             [&](RwResult r) { result = std::move(r); });
  });
  system.env().RunUntil(sim::Seconds(30));

  // No batch proposed by the equivocator was certified on any honest
  // replica; once an honest leader takes over the write commits.
  for (uint32_t i = 1; i < config.replicas_per_cluster(); ++i) {
    const auto& log = system.node(0, i)->log();
    for (BatchId b = 0; b <= log.LastBatchId(); ++b) {
      EXPECT_TRUE(log.Get(b)
                      .value()
                      ->certificate
                      .Verify(system.verifier(), config.certificate_size(),
                              config.ClusterMembers(0))
                      .ok());
    }
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->committed) << result->reason;
}

// ---------------------------------------------------------------------------
// Message complexity: the reason the linear engine exists
// ---------------------------------------------------------------------------

TEST(ConsensusInterfaceTest, LinearVoteSendsFewerMessagesPerBatch) {
  auto msgs_per_batch = [](ConsensusKind kind) {
    SystemConfig config = BaseConfig(kind, /*partitions=*/1, /*f=*/2);
    System system(config, FastEnv());
    auto data = TestData(1);
    system.Preload(data);
    system.Start();
    Client* client = system.AddClient();
    system.env().Schedule(sim::Millis(30), [&] {
      for (int i = 0; i < 30; ++i) {
        client->ExecuteReadWrite(
            {}, {WriteOp{data[static_cast<size_t>(i)].first, ToBytes("w")}},
            [](RwResult) {});
      }
    });
    system.env().RunUntil(sim::Seconds(2));

    uint64_t msgs = 0;
    uint64_t batches = system.node(0, 0)->stats().batches_decided;
    for (uint32_t i = 0; i < config.replicas_per_cluster(); ++i) {
      msgs += system.node(0, i)->stats().consensus_msgs_sent;
    }
    EXPECT_GT(batches, 0u);
    return static_cast<double>(msgs) / static_cast<double>(batches);
  };

  double pbft = msgs_per_batch(ConsensusKind::kPbft);
  double linear = msgs_per_batch(ConsensusKind::kLinearVote);
  // n = 7: PBFT ≈ n-1 + 2·n·(n-1) ≈ 90 per batch; linear ≈ 5·(n-1) = 30.
  EXPECT_LT(linear, pbft / 2.0)
      << "linear=" << linear << " pbft=" << pbft;
}

}  // namespace
}  // namespace transedge
