#ifndef TRANSEDGE_COMMON_CODEC_H_
#define TRANSEDGE_COMMON_CODEC_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

/// Lists a struct's fields once, in encoding order; `codec::Encode` and
/// `codec::Decode` derive both directions of its binary format from
/// that one list, so the two cannot drift apart:
///
///     struct ReadOp {
///       Key key;
///       int64_t version = -1;
///       TE_CODEC_FIELDS(key, version)
///     };
///
/// The list may also hold `codec::Reserved<T>{}` and `codec::If(...)`
/// entries (see below).
#define TE_CODEC_FIELDS(...)                                  \
  template <typename Visitor>                                 \
  auto CodecFields(Visitor&& visit) const {                   \
    return visit(__VA_ARGS__);                                \
  }                                                           \
  template <typename Visitor>                                 \
  auto CodecFields(Visitor&& visit) {                         \
    return visit(__VA_ARGS__);                                \
  }

namespace transedge::codec {

/// The format, per field type (all integers little-endian):
///   - bool, u8, u16, u32, u64, i64: fixed width (bool is one byte);
///   - std::string and Bytes: u32 length, then the bytes;
///   - std::array<uint8_t, N>: N raw bytes (digests);
///   - std::vector<T>: u32 count, then each element. Decoding reads the
///     count with Decoder::GetCount, so a count larger than the bytes
///     left fails before it can drive an allocation;
///   - a struct with TE_CODEC_FIELDS: its fields in order, no framing.
/// Everything is resolved at compile time over the concrete types, so a
/// whole message encodes inline, with no indirect call per field.

/// A reserved field: encodes as a zero `T`; decoding skips it.
template <typename T>
struct Reserved {
  using Type = T;
};

/// Fields present only when `cond` is true. `cond` must be listed
/// earlier in the same field list, so the decoder has read it by the
/// time it reaches these fields.
template <typename... Fields>
struct Conditional {
  const bool& cond;
  std::tuple<Fields&...> fields;
};

template <typename... Fields>
Conditional<Fields...> If(const bool& cond, Fields&... fields) {
  return {cond, std::tie(fields...)};
}

namespace internal {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <typename T>
inline constexpr bool kIsByteArray = false;
template <size_t N>
inline constexpr bool kIsByteArray<std::array<uint8_t, N>> = true;

template <typename T>
inline constexpr bool kIsReserved = false;
template <typename T>
inline constexpr bool kIsReserved<Reserved<T>> = true;

template <typename T>
inline constexpr bool kIsConditional = false;
template <typename... Fields>
inline constexpr bool kIsConditional<Conditional<Fields...>> = true;

template <typename T>
Status Take(Result<T> r, T& out) {
  if (!r.ok()) return r.status();
  out = std::move(r).value();
  return Status::OK();
}

}  // namespace internal

template <typename T>
void Encode(Encoder* enc, const T& value);

template <typename T>
Status DecodeInto(Decoder* dec, T& value);

/// Encodes `fields` back to back.
template <typename... Fields>
void EncodeAll(Encoder* enc, const Fields&... fields) {
  (Encode(enc, fields), ...);
}

/// Decodes `fields` in order, stopping at the first error.
template <typename... Fields>
Status DecodeAll(Decoder* dec, Fields&... fields) {
  Status s;
  (void)((s = DecodeInto(dec, fields)).ok() && ...);
  return s;
}

template <typename T>
void Encode(Encoder* enc, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    enc->PutBool(value);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    enc->PutU8(value);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    enc->PutU16(value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    enc->PutU32(value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    enc->PutU64(value);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    enc->PutI64(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    enc->PutString(value);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    enc->PutBytes(value);
  } else if constexpr (internal::kIsByteArray<T>) {
    enc->PutRaw(value.data(), value.size());
  } else if constexpr (internal::kIsVector<T>) {
    enc->PutU32(static_cast<uint32_t>(value.size()));
    for (const auto& element : value) Encode(enc, element);
  } else if constexpr (internal::kIsReserved<T>) {
    Encode(enc, typename T::Type{});
  } else if constexpr (internal::kIsConditional<T>) {
    if (value.cond) {
      std::apply([enc](const auto&... f) { EncodeAll(enc, f...); },
                 value.fields);
    }
  } else {
    value.CodecFields([enc](const auto&... f) { EncodeAll(enc, f...); });
  }
}

template <typename T>
Status DecodeInto(Decoder* dec, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return internal::Take(dec->GetBool(), value);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return internal::Take(dec->GetU8(), value);
  } else if constexpr (std::is_same_v<T, uint16_t>) {
    return internal::Take(dec->GetU16(), value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return internal::Take(dec->GetU32(), value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return internal::Take(dec->GetU64(), value);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return internal::Take(dec->GetI64(), value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return internal::Take(dec->GetString(), value);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return internal::Take(dec->GetBytes(), value);
  } else if constexpr (internal::kIsByteArray<T>) {
    TE_ASSIGN_OR_RETURN(Bytes raw, dec->GetRaw(value.size()));
    std::copy(raw.begin(), raw.end(), value.begin());
    return Status::OK();
  } else if constexpr (internal::kIsVector<T>) {
    // No reserve(count): elements can be far larger than the one byte
    // GetCount allows per count, so the vector grows only as elements
    // actually decode.
    TE_ASSIGN_OR_RETURN(uint32_t count, dec->GetCount());
    value.clear();
    for (uint32_t i = 0; i < count; ++i) {
      TE_RETURN_IF_ERROR(DecodeInto(dec, value.emplace_back()));
    }
    return Status::OK();
  } else if constexpr (internal::kIsReserved<T>) {
    typename T::Type ignored{};
    return DecodeInto(dec, ignored);
  } else if constexpr (internal::kIsConditional<T>) {
    if (!value.cond) return Status::OK();
    return std::apply([dec](auto&... f) { return DecodeAll(dec, f...); },
                      value.fields);
  } else {
    return value.CodecFields(
        [dec](auto&&... f) { return DecodeAll(dec, f...); });
  }
}

/// Decodes one `T` (see the format above).
template <typename T>
Result<T> Decode(Decoder* dec) {
  T value{};
  TE_RETURN_IF_ERROR(DecodeInto(dec, value));
  return value;
}

}  // namespace transedge::codec

#endif  // TRANSEDGE_COMMON_CODEC_H_
