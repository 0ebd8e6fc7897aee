#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/key_store.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace transedge::crypto {
namespace {

// --- SHA-256 against the NIST / de-facto standard test vectors -------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Hash(std::string_view("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash(std::string_view("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Hash(std::string_view(
                             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                             "mnopnopq"))
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes == exactly one block; padding must spill into a second.
  std::string msg(64, 'x');
  Digest once = Sha256::Hash(msg);
  Sha256 h;
  h.Update(msg.substr(0, 31));
  h.Update(msg.substr(31));
  EXPECT_EQ(h.Finish(), once);
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, ResetReusesObject) {
  Sha256 h;
  h.Update(std::string_view("garbage"));
  h.Reset();
  h.Update(std::string_view("abc"));
  EXPECT_EQ(h.Finish().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DigestHelpers) {
  Digest zero;
  EXPECT_TRUE(zero.IsZero());
  Digest d = Sha256::Hash(std::string_view("abc"));
  EXPECT_FALSE(d.IsZero());
  EXPECT_EQ(d.ShortHex(), "ba7816bf");
  EXPECT_NE(d, zero);
  EXPECT_EQ(d, Sha256::Hash(std::string_view("abc")));
}

TEST(Sha256Test, HashPairIsOrderSensitive) {
  Digest a = Sha256::Hash(std::string_view("a"));
  Digest b = Sha256::Hash(std::string_view("b"));
  EXPECT_NE(HashPair(a, b), HashPair(b, a));
}

// --- The two compression functions and block-level padding ---------------

TEST(Sha256CompressTest, HardwareMatchesPortable) {
  if (!sha256_internal::CpuHasShaExtensions()) {
    GTEST_SKIP() << "CPU has no SHA extensions; only the portable path runs";
  }
  Rng rng(2024);
  for (int trial = 0; trial < 10000; ++trial) {
    uint32_t portable[8];
    uint8_t block[64];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng.Next());
    for (uint8_t& byte : block) byte = static_cast<uint8_t>(rng.Next());
    uint32_t hardware[8];
    std::copy(portable, portable + 8, hardware);
    sha256_internal::CompressPortable(portable, block);
    sha256_internal::CompressShaNi(hardware, block);
    ASSERT_TRUE(std::equal(portable, portable + 8, hardware))
        << "trial " << trial;
  }
}

TEST(Sha256Test, PaddingSweepMatchesHashlib) {
  // Lengths 0..256 cross every padding case: 55 (one block), 56 and 63
  // (length spills into a second block), 64, 119 and 120.
  Bytes msg;
  Sha256 fold;
  for (size_t n = 0; n <= 256; ++n) {
    Digest once = Sha256::Hash(msg);
    Sha256 bytewise;
    for (uint8_t b : msg) bytewise.Update(&b, 1);
    ASSERT_EQ(bytewise.Finish(), once) << "length " << n;
    fold.Update(once.bytes.data(), once.bytes.size());
    msg.push_back(static_cast<uint8_t>(n * 31 + 7));
  }
  // hashlib.sha256(b"".join(hashlib.sha256(bytes((i * 31 + 7) & 0xff
  //     for i in range(n))).digest() for n in range(257))).hexdigest()
  EXPECT_EQ(fold.Finish().ToHex(),
            "740197f2831c5c43d18de5a75028010e654a0d3886d9af3808294bfd1b460bde");
}

// --- HMAC-SHA256 against RFC 4231 vectors -----------------------------------

// Checks both entry points: the raw key, and a key prepared once.
void ExpectHmac(const Bytes& key, const Bytes& data, const char* mac) {
  EXPECT_EQ(HmacSha256(key, data).ToHex(), mac);
  EXPECT_EQ(HmacSha256(MakeHmacKey(key), data).ToHex(), mac);
}

TEST(HmacTest, Rfc4231Case1) {
  ExpectHmac(
      Bytes(20, 0x0b), ToBytes("Hi There"),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  ExpectHmac(
      ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  ExpectHmac(
      Bytes(20, 0xaa), Bytes(50, 0xdd),
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  ExpectHmac(
      Bytes(131, 0xaa),
      ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, PreparedKeyMatchesTextbookHmac) {
  // RFC 2104 spelled out with one-shot hashes, against both entry points;
  // one prepared key serves several messages unchanged.
  Rng rng(77);
  for (size_t key_len = 0; key_len <= 130; ++key_len) {
    Bytes key(key_len);
    for (uint8_t& b : key) b = static_cast<uint8_t>(rng.Next());
    const Digest hashed_key = Sha256::Hash(key);
    Bytes key_block =
        key.size() > 64
            ? Bytes(hashed_key.bytes.begin(), hashed_key.bytes.end())
            : key;
    key_block.resize(64, 0);
    HmacKey prepared = MakeHmacKey(key);
    for (size_t msg_len : {0u, 1u, 55u, 64u, 200u}) {
      Bytes msg(msg_len);
      for (uint8_t& b : msg) b = static_cast<uint8_t>(rng.Next());
      Bytes inner_input;
      Bytes outer_input;
      for (uint8_t b : key_block) {
        inner_input.push_back(b ^ 0x36);
        outer_input.push_back(b ^ 0x5c);
      }
      inner_input.insert(inner_input.end(), msg.begin(), msg.end());
      Digest inner = Sha256::Hash(inner_input);
      outer_input.insert(outer_input.end(), inner.bytes.begin(),
                         inner.bytes.end());
      Digest expected = Sha256::Hash(outer_input);
      EXPECT_EQ(HmacSha256(prepared, msg), expected)
          << "key " << key_len << " msg " << msg_len;
      EXPECT_EQ(HmacSha256(key, msg), expected)
          << "key " << key_len << " msg " << msg_len;
    }
  }
}

TEST(HmacTest, ConstantTimeEquals) {
  Digest a = Sha256::Hash(std::string_view("x"));
  Digest b = a;
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  b.bytes[31] ^= 1;
  EXPECT_FALSE(ConstantTimeEquals(a, b));
}

// --- KeyStore ---------------------------------------------------------------

TEST(KeyStoreTest, PairwiseKeysAreSymmetric) {
  KeyStore ks(10, 99);
  EXPECT_EQ(ks.PairwiseKey(2, 7).value(), ks.PairwiseKey(7, 2).value());
}

TEST(KeyStoreTest, DistinctPairsGetDistinctKeys) {
  KeyStore ks(10, 99);
  EXPECT_NE(ks.PairwiseKey(2, 7).value(), ks.PairwiseKey(2, 8).value());
  EXPECT_NE(ks.PairwiseKey(2, 7).value(), ks.PairwiseKey(3, 7).value());
}

TEST(KeyStoreTest, DifferentSeedsGiveDifferentKeys) {
  KeyStore a(10, 1);
  KeyStore b(10, 2);
  EXPECT_NE(a.PairwiseKey(0, 1).value(), b.PairwiseKey(0, 1).value());
}

TEST(KeyStoreTest, RestrictedViewDeniesForeignKeys) {
  KeyStore ks(10, 99);
  KeyStore restricted = ks.RestrictedTo(3);
  EXPECT_TRUE(restricted.PairwiseKey(3, 5).ok());
  EXPECT_TRUE(restricted.PairwiseKey(5, 3).ok());
  Result<Bytes> denied = restricted.PairwiseKey(4, 5);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KeyStoreTest, UnknownPrincipalRejected) {
  KeyStore ks(4, 99);
  EXPECT_FALSE(ks.PairwiseKey(0, 4).ok());
}

// --- Signer / Verifier / SignatureSet ---------------------------------------

TEST(SignerTest, SignVerifyRoundTrip) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  EXPECT_EQ(sig.signer, 3u);
  EXPECT_TRUE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, TamperedMessageFailsVerification) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  msg[0] ^= 1;
  EXPECT_FALSE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, CannotClaimAnotherSignerId) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Bytes msg = ToBytes("hello world");
  Signature sig = signer->Sign(msg);
  sig.signer = 4;  // Forged attribution.
  EXPECT_FALSE(scheme.verifier().Verify(msg, sig));
}

TEST(SignerTest, UnknownSignerRejected) {
  HmacSignatureScheme scheme(8, 1234);
  auto signer = scheme.MakeSigner(3);
  Signature sig = signer->Sign(ToBytes("m"));
  sig.signer = 99;
  EXPECT_FALSE(scheme.verifier().Verify(ToBytes("m"), sig));
}

TEST(SignatureSetTest, QuorumSatisfied) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  for (NodeId id : {0u, 1u, 2u}) {
    set.Add(scheme.MakeSigner(id)->Sign(msg));
  }
  std::vector<NodeId> members{0, 1, 2, 3, 4, 5, 6};
  EXPECT_TRUE(set.VerifyQuorum(scheme.verifier(), msg, 3, members).ok());
}

TEST(SignatureSetTest, DuplicateSignersDoNotCount) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  Signature sig = scheme.MakeSigner(0)->Sign(msg);
  set.Add(sig);
  set.Add(sig);
  set.Add(sig);
  std::vector<NodeId> members{0, 1, 2};
  EXPECT_FALSE(set.VerifyQuorum(scheme.verifier(), msg, 2, members).ok());
}

TEST(SignatureSetTest, NonMemberSignaturesIgnored) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  set.Add(scheme.MakeSigner(5)->Sign(msg));  // Not a member below.
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  std::vector<NodeId> members{0, 1, 2};
  EXPECT_FALSE(set.VerifyQuorum(scheme.verifier(), msg, 2, members).ok());
  EXPECT_TRUE(set.VerifyQuorum(scheme.verifier(), msg, 1, members).ok());
}

TEST(SignatureSetTest, InvalidSignatureFailsWholeCertificate) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("batch digest");
  SignatureSet set;
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  Signature bad = scheme.MakeSigner(1)->Sign(ToBytes("other message"));
  set.Add(bad);
  std::vector<NodeId> members{0, 1, 2};
  Status s = set.VerifyQuorum(scheme.verifier(), msg, 1, members);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kVerificationFailed);
}

TEST(SignatureSetTest, EncodeDecodeRoundTrip) {
  HmacSignatureScheme scheme(8, 7);
  Bytes msg = ToBytes("payload");
  SignatureSet set;
  set.Add(scheme.MakeSigner(0)->Sign(msg));
  set.Add(scheme.MakeSigner(1)->Sign(msg));
  Encoder enc;
  codec::Encode(&enc, set);
  Decoder dec(enc.buffer());
  Result<SignatureSet> decoded = codec::Decode<SignatureSet>(&dec);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->signatures[0], set.signatures[0]);
  EXPECT_EQ(decoded->signatures[1], set.signatures[1]);
}

}  // namespace
}  // namespace transedge::crypto
