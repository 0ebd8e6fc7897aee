#include "crypto/signer.h"

#include <algorithm>
#include <map>
#include <set>

namespace transedge::crypto {

namespace {

Bytes DeriveSigningKey(uint64_t master_seed, NodeId id) {
  Encoder enc;
  enc.PutString("transedge-signing-key");
  enc.PutU64(master_seed);
  enc.PutU32(id);
  Digest d = Sha256::Hash(enc.buffer());
  return Bytes(d.bytes.begin(), d.bytes.end());
}

class HmacSigner : public Signer {
 public:
  HmacSigner(NodeId id, const Bytes& key) : id_(id), key_(MakeHmacKey(key)) {}

  NodeId id() const override { return id_; }

  Signature Sign(const Bytes& message) const override {
    return Signature{id_, HmacSha256(key_, message)};
  }

 private:
  NodeId id_;
  HmacKey key_;
};

class HmacVerifier : public Verifier {
 public:
  HmacVerifier(uint32_t num_principals, uint64_t master_seed)
      : num_principals_(num_principals), master_seed_(master_seed) {}

  bool Verify(const Bytes& message, const Signature& sig) const override {
    if (sig.signer >= num_principals_) return false;
    Digest expected = HmacSha256(KeyOf(sig.signer), message);
    return ConstantTimeEquals(expected, sig.mac);
  }

 private:
  // Derived on a signer's first verification; only principals that
  // actually sign get an entry.
  const HmacKey& KeyOf(NodeId id) const {
    auto it = keys_.find(id);
    if (it == keys_.end()) {
      it = keys_.emplace(id, MakeHmacKey(DeriveSigningKey(master_seed_, id)))
               .first;
    }
    return it->second;
  }

  uint32_t num_principals_;
  uint64_t master_seed_;
  mutable std::map<NodeId, HmacKey> keys_;
};

}  // namespace

HmacSignatureScheme::HmacSignatureScheme(uint32_t num_principals,
                                         uint64_t master_seed)
    : num_principals_(num_principals),
      master_seed_(master_seed),
      verifier_(std::make_unique<HmacVerifier>(num_principals, master_seed)) {}

HmacSignatureScheme::~HmacSignatureScheme() = default;

std::unique_ptr<Signer> HmacSignatureScheme::MakeSigner(NodeId id) const {
  return std::make_unique<HmacSigner>(id, DeriveSigningKey(master_seed_, id));
}

Status SignatureSet::VerifyQuorum(const Verifier& verifier,
                                  const Bytes& message, size_t required,
                                  const std::vector<NodeId>& member_ids) const {
  std::set<NodeId> distinct_valid;
  for (const Signature& sig : signatures) {
    if (std::find(member_ids.begin(), member_ids.end(), sig.signer) ==
        member_ids.end()) {
      continue;  // Signer is not a member of the expected group.
    }
    if (!verifier.Verify(message, sig)) {
      return Status::VerificationFailed(
          "certificate contains an invalid signature");
    }
    distinct_valid.insert(sig.signer);
  }
  if (distinct_valid.size() < required) {
    return Status::VerificationFailed("certificate quorum too small");
  }
  return Status::OK();
}

}  // namespace transedge::crypto
