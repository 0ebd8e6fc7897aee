#include "wire/serialize.h"

namespace transedge::wire {

namespace {

void PutDigest(Encoder* enc, const crypto::Digest& d) {
  enc->PutRaw(d.bytes.data(), d.bytes.size());
}

Result<crypto::Digest> GetDigest(Decoder* dec) {
  TE_ASSIGN_OR_RETURN(Bytes raw, dec->GetRaw(32));
  crypto::Digest d;
  std::copy(raw.begin(), raw.end(), d.bytes.begin());
  return d;
}

void PutAuthenticatedRead(Encoder* enc, const AuthenticatedRead& read) {
  enc->PutString(read.key);
  enc->PutBool(read.found);
  enc->PutBytes(read.value);
  enc->PutI64(read.version);
  read.proof.EncodeTo(enc);
}

Result<AuthenticatedRead> GetAuthenticatedRead(Decoder* dec) {
  AuthenticatedRead read;
  TE_ASSIGN_OR_RETURN(read.key, dec->GetString());
  TE_ASSIGN_OR_RETURN(read.found, dec->GetBool());
  TE_ASSIGN_OR_RETURN(read.value, dec->GetBytes());
  TE_ASSIGN_OR_RETURN(read.version, dec->GetI64());
  TE_ASSIGN_OR_RETURN(read.proof, merkle::MerkleProof::DecodeFrom(dec));
  return read;
}

void PutKeys(Encoder* enc, const std::vector<Key>& keys) {
  enc->PutU32(static_cast<uint32_t>(keys.size()));
  for (const Key& k : keys) enc->PutString(k);
}

Result<std::vector<Key>> GetKeys(Decoder* dec) {
  TE_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount());
  std::vector<Key> keys;
  keys.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TE_ASSIGN_OR_RETURN(Key k, dec->GetString());
    keys.push_back(std::move(k));
  }
  return keys;
}

void PutInfos(Encoder* enc, const std::vector<storage::PreparedInfo>& infos) {
  enc->PutU32(static_cast<uint32_t>(infos.size()));
  for (const storage::PreparedInfo& info : infos) info.EncodeTo(enc);
}

Result<std::vector<storage::PreparedInfo>> GetInfos(Decoder* dec) {
  TE_ASSIGN_OR_RETURN(uint32_t n, dec->GetCount());
  std::vector<storage::PreparedInfo> infos;
  infos.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TE_ASSIGN_OR_RETURN(storage::PreparedInfo info,
                        storage::PreparedInfo::DecodeFrom(dec));
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace

void EncodeBody(const ClientReadRequest& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.reply_to);
  enc->PutString(msg.key);
}

void EncodeBody(const ClientReadReply& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutString(msg.key);
  enc->PutBool(msg.found);
  enc->PutBytes(msg.value);
  enc->PutI64(msg.version);
}

void EncodeBody(const CommitRequest& msg, Encoder* enc) {
  enc->PutU32(msg.reply_to);
  msg.txn.EncodeTo(enc);
}

void EncodeBody(const CommitReply& msg, Encoder* enc) {
  enc->PutU64(msg.txn_id);
  enc->PutBool(msg.committed);
  enc->PutString(msg.reason);
  enc->PutBool(msg.retryable);
}

void EncodeBody(const RoRequest& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.reply_to);
  PutKeys(enc, msg.keys);
}

void EncodeBody(const RoReply& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.partition);
  enc->PutI64(msg.batch_id);
  enc->PutU32(static_cast<uint32_t>(msg.entries.size()));
  for (const AuthenticatedRead& read : msg.entries) {
    PutAuthenticatedRead(enc, read);
  }
  msg.certificate.EncodeTo(enc);
  msg.cd_vector.EncodeTo(enc);
  enc->PutI64(msg.lce);
  enc->PutI64(msg.timestamp_us);
  enc->PutBool(msg.second_round);
}

void EncodeBody(const RoBatchRequest& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.reply_to);
  PutKeys(enc, msg.keys);
  enc->PutI64(msg.min_lce);
}

void EncodeBody(const PrePrepareMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  msg.batch.EncodeTo(enc);
  msg.leader_signature.EncodeTo(enc);
  msg.leader_cert_share.EncodeTo(enc);
}

void EncodeBody(const PrepareMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  enc->PutI64(msg.batch_id);
  PutDigest(enc, msg.batch_digest);
  msg.cert_share.EncodeTo(enc);
}

void EncodeBody(const CommitMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  enc->PutI64(msg.batch_id);
  PutDigest(enc, msg.batch_digest);
}

void EncodeBody(const ViewChangeMsg& msg, Encoder* enc) {
  enc->PutU64(msg.new_view);
  enc->PutI64(msg.last_committed);
  msg.signature.EncodeTo(enc);
}

void EncodeBody(const LinearProposeMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  msg.batch.EncodeTo(enc);
  msg.leader_signature.EncodeTo(enc);
  enc->PutBool(msg.has_justify);
  if (msg.has_justify) {
    enc->PutU64(msg.justify_view);
    msg.justify_cert.EncodeTo(enc);
    msg.justify_view_sigs.EncodeTo(enc);
  }
}

void EncodeBody(const LinearVoteMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  enc->PutI64(msg.batch_id);
  enc->PutU32(msg.phase);
  PutDigest(enc, msg.batch_digest);
  msg.share.EncodeTo(enc);
  msg.view_share.EncodeTo(enc);
}

void EncodeBody(const LinearQcMsg& msg, Encoder* enc) {
  enc->PutU64(msg.view);
  enc->PutU32(msg.phase);
  msg.cert.EncodeTo(enc);
  msg.commit_sigs.EncodeTo(enc);
  msg.view_sigs.EncodeTo(enc);
}

void EncodeBody(const LinearViewChangeMsg& msg, Encoder* enc) {
  enc->PutU64(msg.new_view);
  enc->PutI64(msg.last_committed);
  msg.signature.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(msg.locks.size()));
  for (const LinearLockReport& lock : msg.locks) {
    enc->PutU64(lock.view);
    lock.batch.EncodeTo(enc);
    lock.cert.EncodeTo(enc);
    lock.view_sigs.EncodeTo(enc);
  }
}

void EncodeBody(const LinearNewViewMsg& msg, Encoder* enc) {
  enc->PutU64(msg.new_view);
  msg.proof.EncodeTo(enc);
}

void EncodeBody(const LinearCatchUpMsg& msg, Encoder* enc) {
  msg.batch.EncodeTo(enc);
  msg.cert.EncodeTo(enc);
  enc->PutU64(msg.view);
  msg.view_proof.EncodeTo(enc);
  enc->PutI64(msg.first_retained);
}

void EncodeBody(const CoordPrepareMsg& msg, Encoder* enc) {
  msg.txn.EncodeTo(enc);
  enc->PutU32(msg.coordinator);
  msg.proof.EncodeTo(enc);
  enc->PutBool(msg.resend);
}

void EncodeBody(const PreparedMsg& msg, Encoder* enc) {
  enc->PutU64(msg.txn_id);
  msg.info.EncodeTo(enc);
  msg.proof.EncodeTo(enc);
}

void EncodeBody(const CommitRecordMsg& msg, Encoder* enc) {
  enc->PutU64(msg.txn_id);
  enc->PutBool(msg.commit);
  PutInfos(enc, msg.participant_info);
  msg.proof.EncodeTo(enc);
}

void EncodeBody(const AugustusRoRequest& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.reply_to);
  PutKeys(enc, msg.keys);
}

void EncodeBody(const AugustusVoteRequest& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  PutKeys(enc, msg.keys);
  enc->PutI64(msg.snapshot_batch);
}

void EncodeBody(const AugustusVoteReply& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutBool(msg.vote);
  msg.signature.EncodeTo(enc);
}

void EncodeBody(const AugustusRoReply& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
  enc->PutU32(msg.partition);
  enc->PutU32(static_cast<uint32_t>(msg.entries.size()));
  for (const AuthenticatedRead& read : msg.entries) {
    PutAuthenticatedRead(enc, read);
  }
  enc->PutU32(msg.votes);
}

void EncodeBody(const AugustusRelease& msg, Encoder* enc) {
  enc->PutU64(msg.request_id);
}

void EncodeBody(const WatchSubscribeRequest& msg, Encoder* enc) {
  enc->PutU64(msg.watch_id);
  enc->PutU32(msg.reply_to);
  enc->PutString(msg.range_lo);
  enc->PutString(msg.range_hi);
  enc->PutI64(msg.resume_from);
}

void EncodeBody(const WatchSubscribeReply& msg, Encoder* enc) {
  enc->PutU64(msg.watch_id);
  enc->PutU32(msg.partition);
  enc->PutU64(msg.epoch);
  enc->PutI64(msg.batch_id);
  enc->PutBool(msg.resumed);
  enc->PutU32(static_cast<uint32_t>(msg.entries.size()));
  for (const AuthenticatedRead& read : msg.entries) {
    PutAuthenticatedRead(enc, read);
  }
  msg.certificate.EncodeTo(enc);
}

void EncodeBody(const WatchDeltaMsg& msg, Encoder* enc) {
  enc->PutU64(msg.watch_id);
  enc->PutU32(msg.partition);
  enc->PutU64(msg.epoch);
  enc->PutI64(msg.batch_id);
  enc->PutI64(msg.prev_batch_id);
  enc->PutU32(static_cast<uint32_t>(msg.entries.size()));
  for (const AuthenticatedRead& read : msg.entries) {
    PutAuthenticatedRead(enc, read);
  }
  msg.certificate.EncodeTo(enc);
}

void EncodeBody(const WatchUnsubscribe& msg, Encoder* enc) {
  enc->PutU64(msg.watch_id);
  enc->PutU32(msg.reply_to);
}

void EncodeBody(const WatchResubscribeRequired& msg, Encoder* enc) {
  enc->PutU64(msg.watch_id);
  enc->PutU32(msg.partition);
  enc->PutU64(msg.epoch);
  enc->PutI64(msg.horizon);
}

Bytes EncodeMessage(const sim::Message& msg) {
  Encoder enc;
  enc.PutU32(msg.type());
  switch (static_cast<MessageType>(msg.type())) {
    case MessageType::kClientRead:
      EncodeBody(static_cast<const ClientReadRequest&>(msg), &enc);
      break;
    case MessageType::kClientReadReply:
      EncodeBody(static_cast<const ClientReadReply&>(msg), &enc);
      break;
    case MessageType::kCommitRequest:
      EncodeBody(static_cast<const CommitRequest&>(msg), &enc);
      break;
    case MessageType::kCommitReply:
      EncodeBody(static_cast<const CommitReply&>(msg), &enc);
      break;
    case MessageType::kRoRequest:
      EncodeBody(static_cast<const RoRequest&>(msg), &enc);
      break;
    case MessageType::kRoReply:
      EncodeBody(static_cast<const RoReply&>(msg), &enc);
      break;
    case MessageType::kRoBatchRequest:
      EncodeBody(static_cast<const RoBatchRequest&>(msg), &enc);
      break;
    case MessageType::kPrePrepare:
      EncodeBody(static_cast<const PrePrepareMsg&>(msg), &enc);
      break;
    case MessageType::kPrepare:
      EncodeBody(static_cast<const PrepareMsg&>(msg), &enc);
      break;
    case MessageType::kCommit:
      EncodeBody(static_cast<const CommitMsg&>(msg), &enc);
      break;
    case MessageType::kViewChange:
      EncodeBody(static_cast<const ViewChangeMsg&>(msg), &enc);
      break;
    case MessageType::kNewView:
      break;  // NewView carries only its proof set; unused on the wire.
    case MessageType::kLinearPropose:
      EncodeBody(static_cast<const LinearProposeMsg&>(msg), &enc);
      break;
    case MessageType::kLinearVote:
      EncodeBody(static_cast<const LinearVoteMsg&>(msg), &enc);
      break;
    case MessageType::kLinearQc:
      EncodeBody(static_cast<const LinearQcMsg&>(msg), &enc);
      break;
    case MessageType::kLinearViewChange:
      EncodeBody(static_cast<const LinearViewChangeMsg&>(msg), &enc);
      break;
    case MessageType::kLinearNewView:
      EncodeBody(static_cast<const LinearNewViewMsg&>(msg), &enc);
      break;
    case MessageType::kLinearCatchUp:
      EncodeBody(static_cast<const LinearCatchUpMsg&>(msg), &enc);
      break;
    case MessageType::kCoordPrepare:
      EncodeBody(static_cast<const CoordPrepareMsg&>(msg), &enc);
      break;
    case MessageType::kPrepared:
      EncodeBody(static_cast<const PreparedMsg&>(msg), &enc);
      break;
    case MessageType::kCommitRecord:
      EncodeBody(static_cast<const CommitRecordMsg&>(msg), &enc);
      break;
    case MessageType::kAugustusRoRequest:
      EncodeBody(static_cast<const AugustusRoRequest&>(msg), &enc);
      break;
    case MessageType::kAugustusVoteRequest:
      EncodeBody(static_cast<const AugustusVoteRequest&>(msg), &enc);
      break;
    case MessageType::kAugustusVoteReply:
      EncodeBody(static_cast<const AugustusVoteReply&>(msg), &enc);
      break;
    case MessageType::kAugustusRoReply:
      EncodeBody(static_cast<const AugustusRoReply&>(msg), &enc);
      break;
    case MessageType::kAugustusRelease:
      EncodeBody(static_cast<const AugustusRelease&>(msg), &enc);
      break;
    case MessageType::kWatchSubscribe:
      EncodeBody(static_cast<const WatchSubscribeRequest&>(msg), &enc);
      break;
    case MessageType::kWatchSubscribeReply:
      EncodeBody(static_cast<const WatchSubscribeReply&>(msg), &enc);
      break;
    case MessageType::kWatchDelta:
      EncodeBody(static_cast<const WatchDeltaMsg&>(msg), &enc);
      break;
    case MessageType::kWatchUnsubscribe:
      EncodeBody(static_cast<const WatchUnsubscribe&>(msg), &enc);
      break;
    case MessageType::kWatchResubscribe:
      EncodeBody(static_cast<const WatchResubscribeRequired&>(msg), &enc);
      break;
  }
  return enc.Take();
}

namespace {

template <typename T, typename Fill>
Result<sim::MessagePtr> Decode(Decoder* dec, Fill fill) {
  auto msg = std::make_shared<T>();
  TE_RETURN_IF_ERROR(fill(msg.get(), dec));
  if (!dec->exhausted()) {
    return Status::Corruption("trailing bytes after message body");
  }
  return sim::MessagePtr(std::move(msg));
}

}  // namespace

Result<sim::MessagePtr> DecodeMessage(const Bytes& buffer) {
  Decoder dec(buffer);
  TE_ASSIGN_OR_RETURN(uint32_t raw_type, dec.GetU32());
  switch (static_cast<MessageType>(raw_type)) {
    case MessageType::kClientRead:
      return Decode<ClientReadRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->key, d->GetString());
        return Status::OK();
      });
    case MessageType::kClientReadReply:
      return Decode<ClientReadReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->key, d->GetString());
        TE_ASSIGN_OR_RETURN(m->found, d->GetBool());
        TE_ASSIGN_OR_RETURN(m->value, d->GetBytes());
        TE_ASSIGN_OR_RETURN(m->version, d->GetI64());
        return Status::OK();
      });
    case MessageType::kCommitRequest:
      return Decode<CommitRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->txn, Transaction::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kCommitReply:
      return Decode<CommitReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->txn_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->committed, d->GetBool());
        TE_ASSIGN_OR_RETURN(m->reason, d->GetString());
        TE_ASSIGN_OR_RETURN(m->retryable, d->GetBool());
        return Status::OK();
      });
    case MessageType::kRoRequest:
      return Decode<RoRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->keys, GetKeys(d));
        return Status::OK();
      });
    case MessageType::kRoReply:
      return Decode<RoReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->partition, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(uint32_t n, d->GetCount());
        for (uint32_t i = 0; i < n; ++i) {
          TE_ASSIGN_OR_RETURN(AuthenticatedRead read,
                              GetAuthenticatedRead(d));
          m->entries.push_back(std::move(read));
        }
        TE_ASSIGN_OR_RETURN(m->certificate,
                            storage::BatchCertificate::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->cd_vector, txn::CdVector::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->lce, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->timestamp_us, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->second_round, d->GetBool());
        return Status::OK();
      });
    case MessageType::kRoBatchRequest:
      return Decode<RoBatchRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->keys, GetKeys(d));
        TE_ASSIGN_OR_RETURN(m->min_lce, d->GetI64());
        return Status::OK();
      });
    case MessageType::kPrePrepare:
      return Decode<PrePrepareMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch, storage::Batch::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->leader_signature,
                            crypto::Signature::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->leader_cert_share,
                            crypto::Signature::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kPrepare:
      return Decode<PrepareMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->batch_digest, GetDigest(d));
        TE_ASSIGN_OR_RETURN(m->cert_share, crypto::Signature::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kCommit:
      return Decode<CommitMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->batch_digest, GetDigest(d));
        return Status::OK();
      });
    case MessageType::kViewChange:
      return Decode<ViewChangeMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->new_view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->last_committed, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->signature, crypto::Signature::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kLinearPropose:
      return Decode<LinearProposeMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch, storage::Batch::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->leader_signature,
                            crypto::Signature::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->has_justify, d->GetBool());
        if (m->has_justify) {
          TE_ASSIGN_OR_RETURN(m->justify_view, d->GetU64());
          TE_ASSIGN_OR_RETURN(m->justify_cert,
                              storage::BatchCertificate::DecodeFrom(d));
          TE_ASSIGN_OR_RETURN(m->justify_view_sigs,
                              crypto::SignatureSet::DecodeFrom(d));
        }
        return Status::OK();
      });
    case MessageType::kLinearVote:
      return Decode<LinearVoteMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->phase, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->batch_digest, GetDigest(d));
        TE_ASSIGN_OR_RETURN(m->share, crypto::Signature::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->view_share, crypto::Signature::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kLinearQc:
      return Decode<LinearQcMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->phase, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->cert,
                            storage::BatchCertificate::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->commit_sigs,
                            crypto::SignatureSet::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->view_sigs,
                            crypto::SignatureSet::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kLinearViewChange:
      return Decode<LinearViewChangeMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->new_view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->last_committed, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->signature, crypto::Signature::DecodeFrom(d));
        uint32_t lock_count = 0;
        TE_ASSIGN_OR_RETURN(lock_count, d->GetU32());
        for (uint32_t i = 0; i < lock_count; ++i) {
          LinearLockReport lock;
          TE_ASSIGN_OR_RETURN(lock.view, d->GetU64());
          TE_ASSIGN_OR_RETURN(lock.batch, storage::Batch::DecodeFrom(d));
          TE_ASSIGN_OR_RETURN(lock.cert,
                              storage::BatchCertificate::DecodeFrom(d));
          TE_ASSIGN_OR_RETURN(lock.view_sigs,
                              crypto::SignatureSet::DecodeFrom(d));
          m->locks.push_back(std::move(lock));
        }
        return Status::OK();
      });
    case MessageType::kLinearNewView:
      return Decode<LinearNewViewMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->new_view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->proof, crypto::SignatureSet::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kLinearCatchUp:
      return Decode<LinearCatchUpMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->batch, storage::Batch::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->cert,
                            storage::BatchCertificate::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->view, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->view_proof,
                            crypto::SignatureSet::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->first_retained, d->GetI64());
        return Status::OK();
      });
    case MessageType::kCoordPrepare:
      return Decode<CoordPrepareMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->txn, Transaction::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->coordinator, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->proof,
                            storage::BatchCertificate::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->resend, d->GetBool());
        return Status::OK();
      });
    case MessageType::kPrepared:
      return Decode<PreparedMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->txn_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->info, storage::PreparedInfo::DecodeFrom(d));
        TE_ASSIGN_OR_RETURN(m->proof,
                            storage::BatchCertificate::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kCommitRecord:
      return Decode<CommitRecordMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->txn_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->commit, d->GetBool());
        TE_ASSIGN_OR_RETURN(m->participant_info, GetInfos(d));
        TE_ASSIGN_OR_RETURN(m->proof,
                            storage::BatchCertificate::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kAugustusRoRequest:
      return Decode<AugustusRoRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->keys, GetKeys(d));
        return Status::OK();
      });
    case MessageType::kAugustusVoteRequest:
      return Decode<AugustusVoteRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->keys, GetKeys(d));
        TE_ASSIGN_OR_RETURN(m->snapshot_batch, d->GetI64());
        return Status::OK();
      });
    case MessageType::kAugustusVoteReply:
      return Decode<AugustusVoteReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->vote, d->GetBool());
        TE_ASSIGN_OR_RETURN(m->signature, crypto::Signature::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kAugustusRoReply:
      return Decode<AugustusRoReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->partition, d->GetU32());
        TE_ASSIGN_OR_RETURN(uint32_t n, d->GetCount());
        for (uint32_t i = 0; i < n; ++i) {
          TE_ASSIGN_OR_RETURN(AuthenticatedRead read,
                              GetAuthenticatedRead(d));
          m->entries.push_back(std::move(read));
        }
        TE_ASSIGN_OR_RETURN(m->votes, d->GetU32());
        return Status::OK();
      });
    case MessageType::kAugustusRelease:
      return Decode<AugustusRelease>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->request_id, d->GetU64());
        return Status::OK();
      });
    case MessageType::kWatchSubscribe:
      return Decode<WatchSubscribeRequest>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->watch_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->range_lo, d->GetString());
        TE_ASSIGN_OR_RETURN(m->range_hi, d->GetString());
        TE_ASSIGN_OR_RETURN(m->resume_from, d->GetI64());
        return Status::OK();
      });
    case MessageType::kWatchSubscribeReply:
      return Decode<WatchSubscribeReply>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->watch_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->partition, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->epoch, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->resumed, d->GetBool());
        TE_ASSIGN_OR_RETURN(uint32_t n, d->GetCount());
        for (uint32_t i = 0; i < n; ++i) {
          TE_ASSIGN_OR_RETURN(AuthenticatedRead read,
                              GetAuthenticatedRead(d));
          m->entries.push_back(std::move(read));
        }
        TE_ASSIGN_OR_RETURN(m->certificate,
                            storage::BatchCertificate::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kWatchDelta:
      return Decode<WatchDeltaMsg>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->watch_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->partition, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->epoch, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(m->prev_batch_id, d->GetI64());
        TE_ASSIGN_OR_RETURN(uint32_t n, d->GetCount());
        for (uint32_t i = 0; i < n; ++i) {
          TE_ASSIGN_OR_RETURN(AuthenticatedRead read,
                              GetAuthenticatedRead(d));
          m->entries.push_back(std::move(read));
        }
        TE_ASSIGN_OR_RETURN(m->certificate,
                            storage::BatchCertificate::DecodeFrom(d));
        return Status::OK();
      });
    case MessageType::kWatchUnsubscribe:
      return Decode<WatchUnsubscribe>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->watch_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->reply_to, d->GetU32());
        return Status::OK();
      });
    case MessageType::kWatchResubscribe:
      return Decode<WatchResubscribeRequired>(&dec, [](auto* m, Decoder* d) {
        TE_ASSIGN_OR_RETURN(m->watch_id, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->partition, d->GetU32());
        TE_ASSIGN_OR_RETURN(m->epoch, d->GetU64());
        TE_ASSIGN_OR_RETURN(m->horizon, d->GetI64());
        return Status::OK();
      });
    default:
      return Status::Corruption("unknown message type " +
                                std::to_string(raw_type));
  }
}

}  // namespace transedge::wire
