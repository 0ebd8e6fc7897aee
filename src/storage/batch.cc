#include "storage/batch.h"

namespace transedge::storage {

void PreparedInfo::EncodeTo(Encoder* enc) const {
  enc->PutU32(partition);
  enc->PutI64(prepared_in_batch);
  enc->PutBool(vote);
  cd_vector.EncodeTo(enc);
}

Result<PreparedInfo> PreparedInfo::DecodeFrom(Decoder* dec) {
  PreparedInfo info;
  TE_ASSIGN_OR_RETURN(info.partition, dec->GetU32());
  TE_ASSIGN_OR_RETURN(info.prepared_in_batch, dec->GetI64());
  TE_ASSIGN_OR_RETURN(info.vote, dec->GetBool());
  TE_ASSIGN_OR_RETURN(info.cd_vector, txn::CdVector::DecodeFrom(dec));
  return info;
}

void CommitRecord::EncodeTo(Encoder* enc) const {
  enc->PutU64(txn_id);
  enc->PutBool(committed);
  enc->PutI64(prepared_in_batch);
  enc->PutU32(static_cast<uint32_t>(participant_info.size()));
  for (const PreparedInfo& info : participant_info) info.EncodeTo(enc);
  enc->PutU32(coordinator);
}

Result<CommitRecord> CommitRecord::DecodeFrom(Decoder* dec) {
  CommitRecord rec;
  TE_ASSIGN_OR_RETURN(rec.txn_id, dec->GetU64());
  TE_ASSIGN_OR_RETURN(rec.committed, dec->GetBool());
  TE_ASSIGN_OR_RETURN(rec.prepared_in_batch, dec->GetI64());
  TE_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount());
  rec.participant_info.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TE_ASSIGN_OR_RETURN(PreparedInfo info, PreparedInfo::DecodeFrom(dec));
    rec.participant_info.push_back(std::move(info));
  }
  TE_ASSIGN_OR_RETURN(rec.coordinator, dec->GetU32());
  return rec;
}

void ReadOnlySegment::EncodeTo(Encoder* enc) const {
  cd_vector.EncodeTo(enc);
  enc->PutI64(lce);
  enc->PutRaw(merkle_root.bytes.data(), merkle_root.bytes.size());
  enc->PutI64(timestamp_us);
}

Result<ReadOnlySegment> ReadOnlySegment::DecodeFrom(Decoder* dec) {
  ReadOnlySegment seg;
  TE_ASSIGN_OR_RETURN(seg.cd_vector, txn::CdVector::DecodeFrom(dec));
  TE_ASSIGN_OR_RETURN(seg.lce, dec->GetI64());
  TE_ASSIGN_OR_RETURN(Bytes raw, dec->GetRaw(32));
  std::copy(raw.begin(), raw.end(), seg.merkle_root.bytes.begin());
  TE_ASSIGN_OR_RETURN(seg.timestamp_us, dec->GetI64());
  return seg;
}

void Batch::EncodeTo(Encoder* enc) const {
  enc->PutU32(partition);
  enc->PutI64(id);
  enc->PutU32(static_cast<uint32_t>(local.size()));
  for (const Transaction& t : local) t.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(prepared.size()));
  for (const Transaction& t : prepared) t.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(committed.size()));
  for (const CommitRecord& r : committed) r.EncodeTo(enc);
  ro.EncodeTo(enc);
}

Result<Batch> Batch::DecodeFrom(Decoder* dec) {
  Batch b;
  TE_ASSIGN_OR_RETURN(b.partition, dec->GetU32());
  TE_ASSIGN_OR_RETURN(b.id, dec->GetI64());
  TE_ASSIGN_OR_RETURN(uint32_t nlocal, dec->GetCount());
  b.local.reserve(nlocal);
  for (uint32_t i = 0; i < nlocal; ++i) {
    TE_ASSIGN_OR_RETURN(Transaction t, Transaction::DecodeFrom(dec));
    b.local.push_back(std::move(t));
  }
  TE_ASSIGN_OR_RETURN(uint32_t nprep, dec->GetCount());
  b.prepared.reserve(nprep);
  for (uint32_t i = 0; i < nprep; ++i) {
    TE_ASSIGN_OR_RETURN(Transaction t, Transaction::DecodeFrom(dec));
    b.prepared.push_back(std::move(t));
  }
  TE_ASSIGN_OR_RETURN(uint32_t ncommit, dec->GetCount());
  b.committed.reserve(ncommit);
  for (uint32_t i = 0; i < ncommit; ++i) {
    TE_ASSIGN_OR_RETURN(CommitRecord r, CommitRecord::DecodeFrom(dec));
    b.committed.push_back(std::move(r));
  }
  TE_ASSIGN_OR_RETURN(b.ro, ReadOnlySegment::DecodeFrom(dec));
  return b;
}

crypto::Digest Batch::ComputeDigest() const {
  Encoder enc;
  EncodeTo(&enc);
  return crypto::Sha256::Hash(enc.buffer());
}

crypto::Digest ReadOnlySegment::ComputeDigest() const {
  Encoder enc;
  EncodeTo(&enc);
  return crypto::Sha256::Hash(enc.buffer());
}

Bytes BatchCertificate::SignedPayload() const {
  Encoder enc;
  enc.PutString("transedge-batch-cert");
  enc.PutU32(partition);
  enc.PutI64(batch_id);
  enc.PutRaw(batch_digest.bytes.data(), batch_digest.bytes.size());
  enc.PutRaw(merkle_root.bytes.data(), merkle_root.bytes.size());
  enc.PutRaw(ro_digest.bytes.data(), ro_digest.bytes.size());
  return enc.Take();
}

Status BatchCertificate::Verify(
    const crypto::Verifier& verifier, size_t required,
    const std::vector<crypto::NodeId>& member_ids) const {
  return signatures.VerifyQuorum(verifier, SignedPayload(), required,
                                 member_ids);
}

void BatchCertificate::EncodeTo(Encoder* enc) const {
  enc->PutU32(partition);
  enc->PutI64(batch_id);
  enc->PutRaw(batch_digest.bytes.data(), batch_digest.bytes.size());
  enc->PutRaw(merkle_root.bytes.data(), merkle_root.bytes.size());
  enc->PutRaw(ro_digest.bytes.data(), ro_digest.bytes.size());
  signatures.EncodeTo(enc);
}

Result<BatchCertificate> BatchCertificate::DecodeFrom(Decoder* dec) {
  BatchCertificate cert;
  TE_ASSIGN_OR_RETURN(cert.partition, dec->GetU32());
  TE_ASSIGN_OR_RETURN(cert.batch_id, dec->GetI64());
  TE_ASSIGN_OR_RETURN(Bytes bd, dec->GetRaw(32));
  std::copy(bd.begin(), bd.end(), cert.batch_digest.bytes.begin());
  TE_ASSIGN_OR_RETURN(Bytes mr, dec->GetRaw(32));
  std::copy(mr.begin(), mr.end(), cert.merkle_root.bytes.begin());
  TE_ASSIGN_OR_RETURN(Bytes rd, dec->GetRaw(32));
  std::copy(rd.begin(), rd.end(), cert.ro_digest.bytes.begin());
  TE_ASSIGN_OR_RETURN(cert.signatures, crypto::SignatureSet::DecodeFrom(dec));
  return cert;
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
