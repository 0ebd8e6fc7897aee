#ifndef TRANSEDGE_CRYPTO_HMAC_H_
#define TRANSEDGE_CRYPTO_HMAC_H_

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace transedge::crypto {

/// An HMAC-SHA256 key with its ipad and opad blocks already absorbed, so
/// each MAC under it costs only the message and outer-digest blocks.
struct HmacKey {
  Sha256 inner;
  Sha256 outer;
};

/// Prepares `key` for repeated MACs (a key over 64 bytes is hashed first).
HmacKey MakeHmacKey(const Bytes& key);

/// HMAC-SHA256 (RFC 2104), verified against the RFC 4231 test vectors.
///
/// TransEdge authenticates inter-node traffic with HMAC authenticator
/// vectors, the same construction PBFT uses for its common-case messages.
/// A byzantine node cannot forge another node's authenticator because it
/// does not hold the corresponding pairwise secret.
Digest HmacSha256(const HmacKey& key, const uint8_t* data, size_t len);
Digest HmacSha256(const HmacKey& key, const Bytes& data);
Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len);
Digest HmacSha256(const Bytes& key, const Bytes& data);

/// Constant-time digest comparison (avoids early-exit timing leaks).
bool ConstantTimeEquals(const Digest& a, const Digest& b);

}  // namespace transedge::crypto

#endif  // TRANSEDGE_CRYPTO_HMAC_H_
