// Wire-format re-serialization tests: for every message type that
// crosses the simulated network, serialize -> deserialize -> serialize
// again must be byte-identical, over randomized field values from the
// seeded common/rng.h generator. Byte identity is a stronger check than
// field-by-field equality: it catches codec asymmetries (a field read
// with a different width than it was written, order drift between the
// encode and decode paths) that happen to survive an == comparison.
// Every seed also folds all the encodings it builds into one SHA-256
// that is compared with a pinned constant, so any change to the byte
// format itself (a field moved, resized or dropped on both paths at
// once) fails here too.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"
#include "wire/serialize.h"

namespace transedge::wire {
namespace {

Key RandKey(Rng& rng) {
  return "key-" + std::to_string(rng.NextBounded(10000));
}

Bytes RandBytes(Rng& rng) {
  Bytes b(rng.NextBounded(24));
  for (uint8_t& c : b) c = static_cast<uint8_t>(rng.Next());
  return b;
}

crypto::Digest RandDigest(Rng& rng) {
  return crypto::Sha256::Hash("digest-" + std::to_string(rng.Next()));
}

crypto::Signature RandSignature(Rng& rng) {
  return crypto::Signature{static_cast<crypto::NodeId>(rng.NextBounded(7)),
                           RandDigest(rng)};
}

crypto::SignatureSet RandSignatureSet(Rng& rng) {
  crypto::SignatureSet set;
  size_t n = rng.NextBounded(4);
  for (size_t i = 0; i < n; ++i) set.Add(RandSignature(rng));
  return set;
}

txn::CdVector RandCdVector(Rng& rng) {
  size_t parts = 1 + rng.NextBounded(5);
  txn::CdVector v(parts);
  for (PartitionId p = 0; p < static_cast<PartitionId>(parts); ++p) {
    if (rng.NextBounded(2) == 0) {
      v.Set(p, static_cast<BatchId>(rng.NextBounded(100)));
    }
  }
  return v;
}

Transaction RandTxn(Rng& rng) {
  Transaction txn;
  txn.id = MakeTxnId(static_cast<uint32_t>(rng.NextBounded(1000)),
                     static_cast<uint32_t>(rng.NextBounded(1000)));
  size_t reads = rng.NextBounded(4);
  for (size_t i = 0; i < reads; ++i) {
    txn.read_set.push_back(
        ReadOp{RandKey(rng), rng.NextInRange(-1, 100)});
  }
  size_t writes = rng.NextBounded(4);
  for (size_t i = 0; i < writes; ++i) {
    txn.write_set.push_back(WriteOp{RandKey(rng), RandBytes(rng)});
  }
  size_t parts = 1 + rng.NextBounded(3);
  for (PartitionId p = 0; p < static_cast<PartitionId>(parts); ++p) {
    txn.participants.push_back(p);
  }
  txn.coordinator = txn.participants[rng.NextBounded(parts)];
  return txn;
}

storage::PreparedInfo RandPreparedInfo(Rng& rng) {
  storage::PreparedInfo info;
  info.partition = static_cast<PartitionId>(rng.NextBounded(4));
  info.prepared_in_batch = static_cast<BatchId>(rng.NextBounded(50));
  info.vote = rng.NextBounded(2) == 0;
  info.cd_vector = RandCdVector(rng);
  return info;
}

storage::Batch RandBatch(Rng& rng) {
  storage::Batch batch;
  batch.partition = static_cast<PartitionId>(rng.NextBounded(4));
  batch.id = static_cast<BatchId>(rng.NextBounded(50));
  size_t local = rng.NextBounded(3);
  for (size_t i = 0; i < local; ++i) batch.local.push_back(RandTxn(rng));
  size_t prepared = rng.NextBounded(2);
  for (size_t i = 0; i < prepared; ++i) {
    batch.prepared.push_back(RandTxn(rng));
  }
  size_t committed = rng.NextBounded(2);
  for (size_t i = 0; i < committed; ++i) {
    storage::CommitRecord record;
    record.txn_id = MakeTxnId(static_cast<uint32_t>(rng.NextBounded(100)),
                              static_cast<uint32_t>(rng.NextBounded(100)));
    record.committed = rng.NextBounded(2) == 0;
    record.prepared_in_batch = static_cast<BatchId>(rng.NextBounded(50));
    size_t infos = rng.NextBounded(3);
    for (size_t j = 0; j < infos; ++j) {
      record.participant_info.push_back(RandPreparedInfo(rng));
    }
    batch.committed.push_back(std::move(record));
  }
  batch.ro.cd_vector = RandCdVector(rng);
  batch.ro.lce = static_cast<BatchId>(rng.NextBounded(50));
  batch.ro.merkle_root = RandDigest(rng);
  batch.ro.timestamp_us = rng.NextInRange(0, 1'000'000'000);
  return batch;
}

storage::BatchCertificate RandCert(Rng& rng) {
  storage::BatchCertificate cert;
  cert.partition = static_cast<PartitionId>(rng.NextBounded(4));
  cert.batch_id = static_cast<BatchId>(rng.NextBounded(50));
  cert.batch_digest = RandDigest(rng);
  cert.merkle_root = RandDigest(rng);
  cert.ro_digest = RandDigest(rng);
  cert.signatures = RandSignatureSet(rng);
  return cert;
}

/// A structurally real Merkle proof (random raw proofs would need to
/// know BucketEntry internals; proving against a real tree does not).
AuthenticatedRead RandAuthenticatedRead(Rng& rng) {
  merkle::MerkleTree tree(6);
  Key key = RandKey(rng);
  Bytes value = RandBytes(rng);
  BatchId version = static_cast<BatchId>(rng.NextBounded(50));
  tree.Put(key, value, version);
  for (size_t i = rng.NextBounded(3); i > 0; --i) {
    tree.Put(RandKey(rng), RandBytes(rng), version);
  }
  AuthenticatedRead read;
  read.key = key;
  read.found = true;
  read.value = value;
  read.version = version;
  read.proof = tree.Prove(key).value();
  return read;
}

/// serialize -> deserialize -> serialize again; the two encodings must
/// match byte for byte. The first encoding is folded into `fold`.
template <typename T>
void CheckRoundTrip(const T& msg, crypto::Sha256* fold) {
  Bytes first = EncodeMessage(msg);
  fold->Update(first);
  Result<sim::MessagePtr> decoded = DecodeMessage(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ((*decoded)->type(), msg.type());
  Bytes second = EncodeMessage(**decoded);
  EXPECT_EQ(first, second) << "re-serialization of " << MessageTypeName(T::kMessageType)
                           << " is not byte-identical";
}

void ClientMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed);
  for (int i = 0; i < 20; ++i) {
    ClientReadRequest read;
    read.request_id = rng.Next();
    read.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    read.key = RandKey(rng);
    CheckRoundTrip(read, fold);

    ClientReadReply reply;
    reply.request_id = rng.Next();
    reply.key = RandKey(rng);
    reply.found = rng.NextBounded(2) == 0;
    reply.value = RandBytes(rng);
    reply.version = static_cast<BatchId>(rng.NextBounded(100));
    CheckRoundTrip(reply, fold);

    CommitRequest commit;
    commit.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    commit.txn = RandTxn(rng);
    CheckRoundTrip(commit, fold);

    CommitReply commit_reply;
    commit_reply.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                                    static_cast<uint32_t>(rng.Next()));
    commit_reply.committed = rng.NextBounded(2) == 0;
    commit_reply.reason = "r" + std::to_string(rng.NextBounded(100));
    commit_reply.retryable = rng.NextBounded(2) == 0;
    CheckRoundTrip(commit_reply, fold);
  }
}

void ReadOnlyProtocolMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 7 + 1);
  for (int i = 0; i < 10; ++i) {
    RoRequest req;
    req.request_id = rng.Next();
    req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      req.keys.push_back(RandKey(rng));
    }
    CheckRoundTrip(req, fold);

    RoReply reply;
    reply.request_id = rng.Next();
    reply.partition = static_cast<PartitionId>(rng.NextBounded(4));
    reply.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      reply.entries.push_back(RandAuthenticatedRead(rng));
    }
    reply.certificate = RandCert(rng);
    reply.cd_vector = RandCdVector(rng);
    reply.lce = static_cast<BatchId>(rng.NextBounded(50));
    reply.timestamp_us = rng.NextInRange(0, 1'000'000'000);
    reply.second_round = rng.NextBounded(2) == 0;
    CheckRoundTrip(reply, fold);

    RoBatchRequest batch_req;
    batch_req.request_id = rng.Next();
    batch_req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      batch_req.keys.push_back(RandKey(rng));
    }
    batch_req.min_lce = static_cast<BatchId>(rng.NextBounded(50));
    CheckRoundTrip(batch_req, fold);
  }
}

void PbftConsensusMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 13 + 2);
  for (int i = 0; i < 10; ++i) {
    PrePrepareMsg pre;
    pre.view = rng.NextBounded(10);
    pre.batch = RandBatch(rng);
    pre.leader_signature = RandSignature(rng);
    pre.leader_cert_share = RandSignature(rng);
    pre.leader_view_share = RandSignature(rng);
    pre.has_justify = rng.NextBounded(2) == 0;
    if (pre.has_justify) {
      pre.justify_view = rng.NextBounded(10);
      pre.justify_cert = RandCert(rng);
      pre.justify_view_sigs = RandSignatureSet(rng);
    }
    CheckRoundTrip(pre, fold);

    PrepareMsg prepare;
    prepare.view = rng.NextBounded(10);
    prepare.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    prepare.batch_digest = RandDigest(rng);
    prepare.cert_share = RandSignature(rng);
    prepare.view_share = RandSignature(rng);
    CheckRoundTrip(prepare, fold);

    CommitMsg commit;
    commit.view = rng.NextBounded(10);
    commit.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    commit.batch_digest = RandDigest(rng);
    CheckRoundTrip(commit, fold);
  }
}

void LinearVoteConsensusMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 17 + 3);
  for (int i = 0; i < 10; ++i) {
    LinearProposeMsg propose;
    propose.view = rng.NextBounded(10);
    propose.batch = RandBatch(rng);
    propose.leader_signature = RandSignature(rng);
    propose.has_justify = rng.NextBounded(2) == 0;
    if (propose.has_justify) {
      propose.justify_view = rng.NextBounded(10);
      propose.justify_cert = RandCert(rng);
      propose.justify_view_sigs = RandSignatureSet(rng);
    }
    CheckRoundTrip(propose, fold);

    LinearVoteMsg vote;
    vote.view = rng.NextBounded(10);
    vote.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    vote.phase = rng.NextBounded(2) == 0 ? kLinearPhasePrepare
                                         : kLinearPhaseCommit;
    vote.batch_digest = RandDigest(rng);
    vote.share = RandSignature(rng);
    vote.view_share = RandSignature(rng);
    CheckRoundTrip(vote, fold);

    LinearQcMsg qc;
    qc.view = rng.NextBounded(10);
    qc.phase = rng.NextBounded(2) == 0 ? kLinearPhasePrepare
                                       : kLinearPhaseCommit;
    qc.cert = RandCert(rng);
    qc.commit_sigs = RandSignatureSet(rng);
    qc.view_sigs = RandSignatureSet(rng);
    CheckRoundTrip(qc, fold);

    LinearViewChangeMsg vc;
    vc.new_view = rng.NextBounded(10);
    vc.last_committed = static_cast<BatchId>(rng.NextBounded(50));
    vc.signature = RandSignature(rng);
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      LinearLockReport lock;
      lock.view = rng.NextBounded(10);
      lock.batch = RandBatch(rng);
      lock.cert = RandCert(rng);
      lock.view_sigs = RandSignatureSet(rng);
      vc.locks.push_back(std::move(lock));
    }
    CheckRoundTrip(vc, fold);

    LinearNewViewMsg nv;
    nv.new_view = rng.NextBounded(10);
    nv.proof = RandSignatureSet(rng);
    CheckRoundTrip(nv, fold);

    LinearCatchUpMsg cu;
    cu.batch = RandBatch(rng);
    cu.cert = RandCert(rng);
    cu.view = rng.NextBounded(10);
    cu.view_proof = RandSignatureSet(rng);
    cu.first_retained = static_cast<BatchId>(rng.NextBounded(512));
    CheckRoundTrip(cu, fold);
  }
}

void TwoPcMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 19 + 4);
  for (int i = 0; i < 10; ++i) {
    CoordPrepareMsg coord;
    coord.txn = RandTxn(rng);
    coord.coordinator = static_cast<PartitionId>(rng.NextBounded(4));
    coord.proof = RandCert(rng);
    coord.resend = rng.NextBounded(2) == 1;
    CheckRoundTrip(coord, fold);

    PreparedMsg prepared;
    prepared.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                                static_cast<uint32_t>(rng.Next()));
    prepared.info = RandPreparedInfo(rng);
    prepared.proof = RandCert(rng);
    CheckRoundTrip(prepared, fold);

    CommitRecordMsg record;
    record.txn_id = MakeTxnId(static_cast<uint32_t>(rng.Next()),
                              static_cast<uint32_t>(rng.Next()));
    record.commit = rng.NextBounded(2) == 0;
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      record.participant_info.push_back(RandPreparedInfo(rng));
    }
    record.proof = RandCert(rng);
    CheckRoundTrip(record, fold);
  }
}

void AugustusMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 23 + 5);
  for (int i = 0; i < 10; ++i) {
    AugustusRoRequest req;
    req.request_id = rng.Next();
    req.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      req.keys.push_back(RandKey(rng));
    }
    CheckRoundTrip(req, fold);

    AugustusVoteRequest vote_req;
    vote_req.request_id = rng.Next();
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      vote_req.keys.push_back(RandKey(rng));
    }
    vote_req.snapshot_batch = static_cast<BatchId>(rng.NextBounded(50));
    CheckRoundTrip(vote_req, fold);

    AugustusVoteReply vote;
    vote.request_id = rng.Next();
    vote.vote = rng.NextBounded(2) == 0;
    vote.signature = RandSignature(rng);
    CheckRoundTrip(vote, fold);

    AugustusRoReply reply;
    reply.request_id = rng.Next();
    reply.partition = static_cast<PartitionId>(rng.NextBounded(4));
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      reply.entries.push_back(RandAuthenticatedRead(rng));
    }
    reply.votes = static_cast<uint32_t>(rng.NextBounded(7));
    CheckRoundTrip(reply, fold);

    AugustusRelease release;
    release.request_id = rng.Next();
    CheckRoundTrip(release, fold);
  }
}

void WatchMessages(uint64_t seed, crypto::Sha256* fold) {
  Rng rng(seed * 29 + 6);
  for (int i = 0; i < 10; ++i) {
    WatchSubscribeRequest sub;
    sub.watch_id = rng.Next();
    sub.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    sub.range_lo = RandKey(rng);
    sub.range_hi = RandKey(rng);
    sub.resume_from =
        rng.NextBounded(2) == 0 ? kNoBatch
                                : static_cast<BatchId>(rng.NextBounded(50));
    CheckRoundTrip(sub, fold);

    WatchSubscribeReply reply;
    reply.watch_id = rng.Next();
    reply.partition = static_cast<PartitionId>(rng.NextBounded(4));
    reply.epoch = rng.NextBounded(10) + 1;
    reply.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    reply.resumed = rng.NextBounded(2) == 0;
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      reply.entries.push_back(RandAuthenticatedRead(rng));
    }
    reply.certificate = RandCert(rng);
    CheckRoundTrip(reply, fold);

    WatchDeltaMsg delta;
    delta.watch_id = rng.Next();
    delta.partition = static_cast<PartitionId>(rng.NextBounded(4));
    delta.epoch = rng.NextBounded(10) + 1;
    delta.batch_id = static_cast<BatchId>(rng.NextBounded(50));
    delta.prev_batch_id = delta.batch_id - 1;
    for (size_t k = rng.NextBounded(3); k > 0; --k) {
      delta.entries.push_back(RandAuthenticatedRead(rng));
    }
    delta.certificate = RandCert(rng);
    CheckRoundTrip(delta, fold);

    WatchUnsubscribe unsub;
    unsub.watch_id = rng.Next();
    unsub.reply_to = static_cast<sim::ActorId>(rng.NextBounded(1 << 20));
    CheckRoundTrip(unsub, fold);

    WatchResubscribeRequired resub;
    resub.watch_id = rng.Next();
    resub.partition = static_cast<PartitionId>(rng.NextBounded(4));
    resub.epoch = rng.NextBounded(10) + 1;
    resub.horizon =
        rng.NextBounded(2) == 0 ? kNoBatch
                                : static_cast<BatchId>(rng.NextBounded(50));
    CheckRoundTrip(resub, fold);
  }
}

class WireRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundTripTest, ClientMessages) {
  crypto::Sha256 fold;
  ClientMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, ReadOnlyProtocolMessages) {
  crypto::Sha256 fold;
  ReadOnlyProtocolMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, PbftConsensusMessages) {
  crypto::Sha256 fold;
  PbftConsensusMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, LinearVoteConsensusMessages) {
  crypto::Sha256 fold;
  LinearVoteConsensusMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, TwoPcMessages) {
  crypto::Sha256 fold;
  TwoPcMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, AugustusMessages) {
  crypto::Sha256 fold;
  AugustusMessages(GetParam(), &fold);
}

TEST_P(WireRoundTripTest, WatchMessages) {
  crypto::Sha256 fold;
  WatchMessages(GetParam(), &fold);
}

/// SHA-256 over every encoding one seed builds, in the order above.
/// Recorded after PrePrepareMsg gained the leader's view-bind share and
/// a re-proposal justification, PrepareMsg a view-bind share, and
/// ViewChangeMsg was retired; a change here is a change to the wire
/// format, which breaks signatures over batches and certificates
/// exchanged with older builds.
const char* PinnedDigest(uint64_t seed) {
  switch (seed) {
    case 1: return "5d3e13fa1332ffe77bd66910dc3f2c113e0ee9fb3019a62a876aed599ce116c8";
    case 2: return "5d56469dead9f841ed499c6ad26de96f21d42b5aab593925d0562b8bab31bdfd";
    case 3: return "8c07aa3380a29e0ec29e0a5d82b72b83371593fd8fe6831797bf38bda75c9128";
    case 4: return "5277efe99e04ef9b60ba7f1e61fc1cc68dac92ddf2951dab288d683a736b80df";
    case 5: return "82d7a9d1a6e5b3aca31e75433c3966b6238bba9b4365b59c118c2f2a370c2776";
  }
  return "";
}

TEST_P(WireRoundTripTest, EncodingsMatchPinnedDigest) {
  crypto::Sha256 fold;
  ClientMessages(GetParam(), &fold);
  ReadOnlyProtocolMessages(GetParam(), &fold);
  PbftConsensusMessages(GetParam(), &fold);
  LinearVoteConsensusMessages(GetParam(), &fold);
  TwoPcMessages(GetParam(), &fold);
  AugustusMessages(GetParam(), &fold);
  WatchMessages(GetParam(), &fold);
  EXPECT_EQ(fold.Finish().ToHex(), PinnedDigest(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace transedge::wire
