#include "wire/serialize.h"

#include <string>

namespace transedge::wire {

namespace {

template <typename... Messages>
struct MessageList {};

/// Every message that crosses the wire. Each lists its own fields
/// (TE_CODEC_FIELDS in message.h); this list only maps a MessageType to
/// its struct.
using WireMessages =
    MessageList<ClientReadRequest, ClientReadReply, CommitRequest,
                CommitReply, RoRequest, RoReply, RoBatchRequest,
                PrePrepareMsg, PrepareMsg, CommitMsg,
                LinearProposeMsg, LinearVoteMsg, LinearQcMsg,
                LinearViewChangeMsg, LinearNewViewMsg, LinearCatchUpMsg,
                CoordPrepareMsg, PreparedMsg, CommitRecordMsg,
                AugustusRoRequest, AugustusVoteRequest, AugustusVoteReply,
                AugustusRoReply, AugustusRelease, WatchSubscribeRequest,
                WatchSubscribeReply, WatchDeltaMsg, WatchUnsubscribe,
                WatchResubscribeRequired>;

template <typename M>
bool Is(uint32_t type) {
  return type == static_cast<uint32_t>(M::kMessageType);
}

template <typename... Messages>
void EncodeAny(uint32_t type, const sim::Message& msg, Encoder* enc,
               MessageList<Messages...>) {
  (void)((Is<Messages>(type) &&
          (codec::Encode(enc, static_cast<const Messages&>(msg)), true)) ||
         ...);
}

template <typename M>
Result<sim::MessagePtr> DecodeOne(Decoder* dec) {
  auto msg = std::make_shared<M>();
  TE_RETURN_IF_ERROR(codec::DecodeInto(dec, *msg));
  if (!dec->exhausted()) {
    return Status::Corruption("trailing bytes after message body");
  }
  return sim::MessagePtr(std::move(msg));
}

template <typename... Messages>
Result<sim::MessagePtr> DecodeAny(uint32_t type, Decoder* dec,
                                  MessageList<Messages...>) {
  Result<sim::MessagePtr> out = sim::MessagePtr();
  bool known =
      ((Is<Messages>(type) && (out = DecodeOne<Messages>(dec), true)) || ...);
  if (!known) {
    return Status::Corruption("unknown message type " + std::to_string(type));
  }
  return out;
}

}  // namespace

Bytes EncodeMessage(const sim::Message& msg) {
  const uint32_t type = msg.type();
  Encoder enc;
  enc.PutU32(type);
  EncodeAny(type, msg, &enc, WireMessages{});
  return enc.Take();
}

Result<sim::MessagePtr> DecodeMessage(const Bytes& buffer) {
  Decoder dec(buffer);
  TE_ASSIGN_OR_RETURN(uint32_t type, dec.GetU32());
  return DecodeAny(type, &dec, WireMessages{});
}

}  // namespace transedge::wire
