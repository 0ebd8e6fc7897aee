#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

namespace transedge::crypto {

HmacKey MakeHmacKey(const Bytes& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize];
  std::memset(key_block, 0, kBlockSize);

  if (key.size() > kBlockSize) {
    Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.bytes.data(), kd.bytes.size());
  } else {
    // Not memcpy: an empty key may have a null data().
    std::copy(key.begin(), key.end(), key_block);
  }

  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }

  HmacKey out;
  out.inner.Update(ipad, kBlockSize);
  out.outer.Update(opad, kBlockSize);
  return out;
}

Digest HmacSha256(const HmacKey& key, const uint8_t* data, size_t len) {
  Sha256 inner = key.inner;
  inner.Update(data, len);
  Digest inner_digest = inner.Finish();

  Sha256 outer = key.outer;
  outer.Update(inner_digest.bytes.data(), inner_digest.bytes.size());
  return outer.Finish();
}

Digest HmacSha256(const HmacKey& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}

Digest HmacSha256(const Bytes& key, const uint8_t* data, size_t len) {
  return HmacSha256(MakeHmacKey(key), data, len);
}

Digest HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(key, data.data(), data.size());
}

bool ConstantTimeEquals(const Digest& a, const Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.bytes.size(); ++i) {
    diff |= static_cast<uint8_t>(a.bytes[i] ^ b.bytes[i]);
  }
  return diff == 0;
}

}  // namespace transedge::crypto
