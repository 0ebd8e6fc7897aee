#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "merkle/merkle_tree.h"

namespace transedge::merkle {
namespace {

Bytes V(const std::string& s) { return ToBytes(s); }

TEST(MerkleTreeTest, EmptyTreeHasStableRoot) {
  MerkleTree a(8), b(8);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  EXPECT_FALSE(a.RootDigest().IsZero());
}

TEST(MerkleTreeTest, RootChangesOnPut) {
  MerkleTree tree(8);
  crypto::Digest before = tree.RootDigest();
  tree.Put("k1", V("v1"), 0);
  EXPECT_NE(tree.RootDigest(), before);
}

TEST(MerkleTreeTest, SameContentSameRoot) {
  MerkleTree a(8), b(8);
  a.Put("k1", V("v1"), 0);
  a.Put("k2", V("v2"), 0);
  b.Put("k2", V("v2"), 0);  // Insertion order must not matter.
  b.Put("k1", V("v1"), 0);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTreeTest, OverwriteChangesRootDeterministically) {
  MerkleTree a(8);
  a.Put("k", V("v1"), 0);
  crypto::Digest v1_root = a.RootDigest();
  a.Put("k", V("v2"), 1);
  EXPECT_NE(a.RootDigest(), v1_root);
  MerkleTree b(8);
  b.Put("k", V("v2"), 1);
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
}

TEST(MerkleTreeTest, ProofVerifies) {
  MerkleTree tree(8);
  for (int i = 0; i < 50; ++i) {
    tree.Put("key" + std::to_string(i), V("value" + std::to_string(i)), i);
  }
  for (int i = 0; i < 50; ++i) {
    std::string key = "key" + std::to_string(i);
    Result<MerkleProof> proof = tree.Prove(key);
    ASSERT_TRUE(proof.ok()) << key;
    EXPECT_TRUE(MerkleTree::VerifyProof(*proof, key,
                                        V("value" + std::to_string(i)), i,
                                        tree.RootDigest())
                    .ok())
        << key;
  }
}

TEST(MerkleTreeTest, ProofRejectsWrongValue) {
  MerkleTree tree(8);
  tree.Put("k", V("genuine"), 3);
  MerkleProof proof = tree.Prove("k").value();
  Status s = MerkleTree::VerifyProof(proof, "k", V("forged"), 3,
                                     tree.RootDigest());
  EXPECT_TRUE(s.IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsWrongVersion) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 3);
  MerkleProof proof = tree.Prove("k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("v"), 4,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsWrongRoot) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 0);
  MerkleProof proof = tree.Prove("k").value();
  tree.Put("other", V("x"), 1);  // Root moves on.
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("v"), 0,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, ProofRejectsTamperedSibling) {
  MerkleTree tree(8);
  tree.Put("k1", V("v1"), 0);
  tree.Put("k2", V("v2"), 0);
  MerkleProof proof = tree.Prove("k1").value();
  ASSERT_FALSE(proof.siblings.empty());
  proof.siblings[0].bytes[0] ^= 1;
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k1", V("v1"), 0,
                                      tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, AbsenceProof) {
  MerkleTree tree(8);
  tree.Put("exists", V("v"), 0);
  MerkleProof proof = tree.Prove("missing").value();
  EXPECT_TRUE(
      MerkleTree::VerifyAbsence(proof, "missing", tree.RootDigest()).ok());
  // And an absence claim about a present key must fail.
  MerkleProof present = tree.Prove("exists").value();
  EXPECT_TRUE(MerkleTree::VerifyAbsence(present, "exists", tree.RootDigest())
                  .IsVerificationFailed());
}

TEST(MerkleTreeTest, SnapshotsServeHistoricalProofs) {
  MerkleTree tree(8);
  tree.Put("k", V("old"), 0);
  MerkleTree::Snapshot snap0 = tree.GetSnapshot();
  crypto::Digest root0 = tree.RootDigest();

  tree.Put("k", V("new"), 1);
  ASSERT_NE(tree.RootDigest(), root0);

  // The old version still proves against the old root.
  MerkleProof proof = MerkleTree::ProveAt(snap0, "k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("old"), 0, root0).ok());
  EXPECT_EQ(snap0.RootDigest(), root0);

  // And the new version against the new root.
  MerkleProof fresh = tree.Prove("k").value();
  EXPECT_TRUE(MerkleTree::VerifyProof(fresh, "k", V("new"), 1,
                                      tree.RootDigest())
                  .ok());
}

TEST(MerkleTreeTest, CloneSharesStateThenDiverges) {
  MerkleTree a(8);
  a.Put("k", V("v"), 0);
  MerkleTree b = a.Clone();
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  b.Put("k2", V("v2"), 1);
  EXPECT_NE(a.RootDigest(), b.RootDigest());
  // The original is untouched.
  EXPECT_TRUE(
      MerkleTree::VerifyAbsence(a.Prove("k2").value(), "k2", a.RootDigest())
          .ok());
}

TEST(MerkleTreeTest, BucketCollisionsKeepBothKeys) {
  // Depth 2 => 4 buckets; 40 keys force collisions in every bucket.
  MerkleTree tree(2);
  for (int i = 0; i < 40; ++i) {
    tree.Put("k" + std::to_string(i), V("v" + std::to_string(i)), i);
  }
  for (int i = 0; i < 40; ++i) {
    std::string key = "k" + std::to_string(i);
    MerkleProof proof = tree.Prove(key).value();
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, V("v" + std::to_string(i)),
                                        i, tree.RootDigest())
                    .ok())
        << key;
  }
}

TEST(MerkleTreeTest, ProofEncodeDecodeRoundTrip) {
  MerkleTree tree(8);
  tree.Put("k1", V("v1"), 5);
  tree.Put("k2", V("v2"), 6);
  MerkleProof proof = tree.Prove("k1").value();

  Encoder enc;
  codec::Encode(&enc, proof);
  Decoder dec(enc.buffer());
  MerkleProof decoded = codec::Decode<MerkleProof>(&dec).value();
  EXPECT_EQ(decoded.leaf_index, proof.leaf_index);
  EXPECT_EQ(decoded.bucket, proof.bucket);
  EXPECT_EQ(decoded.siblings.size(), proof.siblings.size());
  EXPECT_TRUE(MerkleTree::VerifyProof(decoded, "k1", V("v1"), 5,
                                      tree.RootDigest())
                  .ok());
}

// The sibling count of an untrusted proof sets the depth the verifier
// derives the leaf index at; depths outside 1..32 must be rejected, not
// shifted by.
TEST(MerkleTreeTest, ProofWithOutOfRangeDepthIsRejected) {
  MerkleTree tree(8);
  tree.Put("k", V("v"), 0);
  MerkleProof genuine = tree.Prove("k").value();
  MerkleProof absent = tree.Prove("missing").value();
  for (size_t siblings : {size_t{0}, size_t{33}}) {
    MerkleProof proof = genuine;
    MerkleProof absence = absent;
    proof.siblings.resize(siblings);
    absence.siblings.resize(siblings);
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, "k", V("v"), 0,
                                        tree.RootDigest())
                    .IsVerificationFailed())
        << siblings;
    EXPECT_TRUE(
        MerkleTree::VerifyAbsence(absence, "missing", tree.RootDigest())
            .IsVerificationFailed())
        << siblings;
  }
}

TEST(MerkleTreeTest, PutBatchLastWriteToAKeyWins) {
  MerkleTree batched(4);
  batched.PutBatch({{"k", V("v1")}, {"other", V("o")}, {"k", V("v2")}}, 7);
  MerkleTree sequential(4);
  sequential.Put("other", V("o"), 7);
  sequential.Put("k", V("v2"), 7);
  EXPECT_EQ(batched.RootDigest(), sequential.RootDigest());
  EXPECT_TRUE(MerkleTree::VerifyProof(batched.Prove("k").value(), "k",
                                      V("v2"), 7, batched.RootDigest())
                  .ok());
}

TEST(MerkleTreeTest, EmptyPutBatchLeavesRootUnchanged) {
  MerkleTree tree(8);
  crypto::Digest empty_root = tree.RootDigest();
  tree.PutBatch({}, 0);
  EXPECT_EQ(tree.RootDigest(), empty_root);
  tree.Put("k", V("v"), 0);
  crypto::Digest root = tree.RootDigest();
  tree.PutBatch({}, 1);
  EXPECT_EQ(tree.RootDigest(), root);
}

TEST(MerkleTreeTest, SnapshotBeforePutBatchKeepsOldValues) {
  MerkleTree tree(4);
  tree.PutBatch({{"a", V("a0")}, {"b", V("b0")}}, 0);
  MerkleTree::Snapshot snap0 = tree.GetSnapshot();
  crypto::Digest root0 = tree.RootDigest();

  tree.PutBatch({{"a", V("a1")}, {"c", V("c1")}}, 1);
  ASSERT_NE(tree.RootDigest(), root0);
  EXPECT_EQ(snap0.RootDigest(), root0);
  EXPECT_TRUE(MerkleTree::VerifyProof(MerkleTree::ProveAt(snap0, "a").value(),
                                      "a", V("a0"), 0, root0)
                  .ok());
  EXPECT_TRUE(MerkleTree::VerifyProof(MerkleTree::ProveAt(snap0, "b").value(),
                                      "b", V("b0"), 0, root0)
                  .ok());
  EXPECT_TRUE(MerkleTree::VerifyAbsence(MerkleTree::ProveAt(snap0, "c").value(),
                                        "c", root0)
                  .ok());
}

// PutBatch against one Put per write, over random batches (with repeated
// keys) applied on top of each other. Depth 4 packs the 64-key space into
// 16 buckets, so batches share leaves as well as interior nodes.
class MerklePutBatchTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MerklePutBatchTest, MatchesSequentialPuts) {
  auto [seed, depth] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  MerkleTree batched(depth);
  MerkleTree sequential(depth);
  std::map<std::string, std::pair<Bytes, int64_t>> model;
  const int kKeys = 64;
  for (int64_t version = 0; version < 20; ++version) {
    std::vector<WriteOp> writes;
    size_t n = rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      writes.push_back({"key" + std::to_string(rng.NextBounded(kKeys)),
                        V("v" + std::to_string(rng.Next()))});
    }
    batched.PutBatch(writes, version);
    for (const WriteOp& w : writes) {
      sequential.Put(w.key, w.value, version);
      model[w.key] = {w.value, version};
    }
    ASSERT_EQ(batched.RootDigest(), sequential.RootDigest())
        << "version " << version;
  }
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "key" + std::to_string(i);
    MerkleProof proof = batched.Prove(key).value();
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(
          MerkleTree::VerifyAbsence(proof, key, batched.RootDigest()).ok())
          << key;
    } else {
      EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, it->second.first,
                                          it->second.second,
                                          batched.RootDigest())
                      .ok())
          << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDepths, MerklePutBatchTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 4, 8, 13)));

// Property sweep: proofs verify across tree depths and key counts.
class MerkleDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleDepthTest, AllProofsVerifyAtDepth) {
  int depth = GetParam();
  MerkleTree tree(depth);
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    tree.Put("key" + std::to_string(i), V(std::to_string(i * i)), i);
  }
  for (int i = 0; i < n; ++i) {
    std::string key = "key" + std::to_string(i);
    MerkleProof proof = tree.Prove(key).value();
    EXPECT_EQ(static_cast<int>(proof.siblings.size()), depth);
    EXPECT_TRUE(MerkleTree::VerifyProof(proof, key, V(std::to_string(i * i)),
                                        i, tree.RootDigest())
                    .ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, MerkleDepthTest,
                         ::testing::Values(1, 2, 4, 8, 12, 16, 20));

}  // namespace
}  // namespace transedge::merkle
