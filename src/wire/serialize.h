#ifndef TRANSEDGE_WIRE_SERIALIZE_H_
#define TRANSEDGE_WIRE_SERIALIZE_H_

#include "wire/message.h"

namespace transedge::wire {

/// Binary serialization for every protocol message.
///
/// The simulator delivers typed message objects (no marshalling cost on
/// the host), but the wire format is fully defined so that (a) the
/// crypto layer signs exactly the bytes that would travel, (b) a socket
/// transport can be swapped in behind `sim::Network`, and (c) fuzz tests
/// can hammer the decoders. Each message encodes as:
///
///     u32 message-type | body
///
/// `EncodeMessage` dispatches on the runtime type; `DecodeMessage`
/// reconstructs the typed object.
Bytes EncodeMessage(const sim::Message& msg);

/// Decodes a message produced by EncodeMessage. Corruption on any
/// truncated or malformed input, never undefined behaviour.
Result<sim::MessagePtr> DecodeMessage(const Bytes& buffer);

// Per-type body codecs (exposed for targeted tests).
void EncodeBody(const ClientReadRequest& msg, Encoder* enc);
void EncodeBody(const ClientReadReply& msg, Encoder* enc);
void EncodeBody(const CommitRequest& msg, Encoder* enc);
void EncodeBody(const CommitReply& msg, Encoder* enc);
void EncodeBody(const RoRequest& msg, Encoder* enc);
void EncodeBody(const RoReply& msg, Encoder* enc);
void EncodeBody(const RoBatchRequest& msg, Encoder* enc);
void EncodeBody(const PrePrepareMsg& msg, Encoder* enc);
void EncodeBody(const PrepareMsg& msg, Encoder* enc);
void EncodeBody(const CommitMsg& msg, Encoder* enc);
void EncodeBody(const ViewChangeMsg& msg, Encoder* enc);
void EncodeBody(const LinearProposeMsg& msg, Encoder* enc);
void EncodeBody(const LinearVoteMsg& msg, Encoder* enc);
void EncodeBody(const LinearQcMsg& msg, Encoder* enc);
void EncodeBody(const LinearViewChangeMsg& msg, Encoder* enc);
void EncodeBody(const LinearNewViewMsg& msg, Encoder* enc);
void EncodeBody(const LinearCatchUpMsg& msg, Encoder* enc);
void EncodeBody(const CoordPrepareMsg& msg, Encoder* enc);
void EncodeBody(const PreparedMsg& msg, Encoder* enc);
void EncodeBody(const CommitRecordMsg& msg, Encoder* enc);
void EncodeBody(const AugustusRoRequest& msg, Encoder* enc);
void EncodeBody(const AugustusVoteRequest& msg, Encoder* enc);
void EncodeBody(const AugustusVoteReply& msg, Encoder* enc);
void EncodeBody(const AugustusRoReply& msg, Encoder* enc);
void EncodeBody(const AugustusRelease& msg, Encoder* enc);
void EncodeBody(const WatchSubscribeRequest& msg, Encoder* enc);
void EncodeBody(const WatchSubscribeReply& msg, Encoder* enc);
void EncodeBody(const WatchDeltaMsg& msg, Encoder* enc);
void EncodeBody(const WatchUnsubscribe& msg, Encoder* enc);
void EncodeBody(const WatchResubscribeRequired& msg, Encoder* enc);

}  // namespace transedge::wire

#endif  // TRANSEDGE_WIRE_SERIALIZE_H_
