#include "storage/batch.h"

namespace transedge::storage {

crypto::Digest Batch::ComputeDigest() const {
  Encoder enc;
  codec::Encode(&enc, *this);
  return crypto::Sha256::Hash(enc.buffer());
}

crypto::Digest ReadOnlySegment::ComputeDigest() const {
  Encoder enc;
  codec::Encode(&enc, *this);
  return crypto::Sha256::Hash(enc.buffer());
}

Bytes BatchCertificate::SignedPayload() const {
  Encoder enc;
  enc.PutString("transedge-batch-cert");
  codec::EncodeAll(&enc, partition, batch_id, batch_digest, merkle_root,
                   ro_digest);
  return enc.Take();
}

Status BatchCertificate::Verify(
    const crypto::Verifier& verifier, size_t required,
    const std::vector<crypto::NodeId>& member_ids) const {
  return signatures.VerifyQuorum(verifier, SignedPayload(), required,
                                 member_ids);
}

std::vector<WriteOp> AppliedWrites(const Batch& batch,
                                   const PartitionMap& pmap, PartitionId self,
                                   const TxnResolver& resolve) {
  std::vector<WriteOp> out;
  auto add_owned = [&](const Transaction& t) {
    for (const WriteOp& w : t.write_set) {
      if (pmap.OwnerOf(w.key) == self) out.push_back(w);
    }
  };
  for (const Transaction& t : batch.local) add_owned(t);
  for (const CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;
    if (const Transaction* t = resolve(rec.txn_id)) add_owned(*t);
  }
  return out;
}

}  // namespace transedge::storage
