#include "serve/protocol.h"

#include <cstring>

#include "gen/update_codec.h"

namespace scuba::serve {
namespace {

/// Per-element minimum encoded sizes, used to bound hostile count prefixes
/// before reserving (an element cannot encode smaller than this).
constexpr uint64_t kLocationUpdateBytes = 60;
constexpr uint64_t kQueryUpdateBytes = 84;
constexpr uint64_t kMatchBytes = 8;

Status CheckCount(uint64_t n, uint64_t element_bytes, size_t remaining,
                  const char* what) {
  // Divide, never multiply: a hostile 2^63-ish count must not overflow.
  if (n > remaining / element_bytes) {
    return Status::DataLoss(std::string(what) + " count " + std::to_string(n) +
                            " overruns the remaining payload");
  }
  return Status::OK();
}

void PutMatches(ByteWriter* w, const std::vector<Match>& v) {
  w->PutU64(v.size());
  for (const Match& m : v) {
    w->PutU32(m.qid);
    w->PutU32(m.oid);
  }
}

Status GetMatches(ByteReader* r, const char* what, std::vector<Match>* v) {
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(CheckCount(n, kMatchBytes, r->Remaining(), what));
  v->clear();
  v->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Match m;
    SCUBA_RETURN_IF_ERROR(r->GetU32(&m.qid));
    SCUBA_RETURN_IF_ERROR(r->GetU32(&m.oid));
    if (!v->empty() && !(v->back() < m)) {
      return Status::Corruption(std::string(what) +
                                " vector is not ascending/duplicate-free");
    }
    v->push_back(m);
  }
  return Status::OK();
}

ByteWriter BeginPayload(MessageType type) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  return w;
}

/// Checks the type byte and hands back a reader positioned at the body.
Result<ByteReader> BeginDecode(std::string_view payload, MessageType want) {
  ByteReader r(payload);
  uint8_t type = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU8(&type));
  if (type != static_cast<uint8_t>(want)) {
    return Status::InvalidArgument(
        std::string("payload is not a ") +
        std::string(MessageTypeName(want)) + " message (type byte " +
        std::to_string(type) + ")");
  }
  return r;
}

/// Trailing bytes after a complete body mean the encoder and decoder disagree
/// about the message layout — reject rather than silently ignore.
Status FinishDecode(const ByteReader& r) {
  if (!r.AtEnd()) {
    return Status::Corruption(std::to_string(r.Remaining()) +
                              " trailing bytes after message body");
  }
  return Status::OK();
}

}  // namespace

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "hello";
    case MessageType::kHelloAck: return "hello-ack";
    case MessageType::kRegister: return "register";
    case MessageType::kCancel: return "cancel";
    case MessageType::kSubscribe: return "subscribe";
    case MessageType::kUpdateBatch: return "update-batch";
    case MessageType::kTick: return "tick";
    case MessageType::kTickAck: return "tick-ack";
    case MessageType::kDelta: return "delta";
    case MessageType::kSnapshot: return "snapshot";
    case MessageType::kError: return "error";
    case MessageType::kBye: return "bye";
    case MessageType::kShutdown: return "shutdown";
  }
  return "unknown";
}

Result<std::string> EncodeFrame(std::string_view payload) {
  // Checked before the u32 cast: an oversized payload would both truncate the
  // length prefix and (if sent) poison the receiving decoder, which treats a
  // too-large prefix as a sticky fatal error.
  if (payload.size() > kMaxFramePayload) {
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame cap");
  }
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  w.PutRawBytes(payload);
  return w.Release();
}

void FrameDecoder::Append(std::string_view bytes) {
  if (!error_.ok()) return;  // poisoned: don't buffer unboundedly
  buf_.append(bytes.data(), bytes.size());
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (!error_.ok()) return error_;
  if (buf_.size() < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, buf_.data(), sizeof(len));
  std::memcpy(&crc, buf_.data() + sizeof(len), sizeof(crc));
  if (len > kMaxFramePayload) {
    error_ = Status::ResourceExhausted(
        "frame length prefix " + std::to_string(len) + " exceeds the " +
        std::to_string(kMaxFramePayload) + "-byte frame cap");
    return error_;
  }
  if (buf_.size() < kFrameHeaderBytes + len) return false;
  std::string_view body(buf_.data() + kFrameHeaderBytes, len);
  if (Crc32(body) != crc) {
    error_ = Status::Corruption("frame CRC mismatch");
    return error_;
  }
  payload->assign(body);
  buf_.erase(0, kFrameHeaderBytes + len);
  return true;
}

Result<MessageType> PeekType(std::string_view payload) {
  if (payload.empty()) return Status::DataLoss("empty message payload");
  const uint8_t type = static_cast<uint8_t>(payload[0]);
  if (type < static_cast<uint8_t>(MessageType::kHello) ||
      type > static_cast<uint8_t>(MessageType::kShutdown)) {
    return Status::Unimplemented("unknown message type " +
                                 std::to_string(type));
  }
  return static_cast<MessageType>(type);
}

std::string EncodeHello(const HelloMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kHello);
  w.PutU32(msg.version);
  w.PutString(msg.client_name);
  return w.Release();
}

Status DecodeHello(std::string_view payload, HelloMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kHello);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->version));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->client_name));
  return FinishDecode(*r);
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kHelloAck);
  w.PutU32(msg.version);
  w.PutString(msg.server_name);
  w.PutU32(msg.session_id);
  return w.Release();
}

Status DecodeHelloAck(std::string_view payload, HelloAckMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kHelloAck);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->version));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->server_name));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->session_id));
  return FinishDecode(*r);
}

std::string EncodeRegister(const RegisterMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kRegister);
  PutQueryUpdate(&w, msg.query);
  return w.Release();
}

Status DecodeRegister(std::string_view payload, RegisterMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kRegister);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(GetQueryUpdate(&*r, &msg->query));
  return FinishDecode(*r);
}

std::string EncodeCancel(const CancelMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kCancel);
  w.PutU32(msg.qid);
  return w.Release();
}

Status DecodeCancel(std::string_view payload, CancelMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kCancel);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->qid));
  return FinishDecode(*r);
}

std::string EncodeSubscribe(const SubscribeMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kSubscribe);
  w.PutBool(msg.all);
  w.PutU64(msg.qids.size());
  for (QueryId q : msg.qids) w.PutU32(q);
  return w.Release();
}

Status DecodeSubscribe(std::string_view payload, SubscribeMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kSubscribe);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->all));
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(CheckCount(n, 4, r->Remaining(), "subscribe qid"));
  msg->qids.clear();
  msg->qids.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    QueryId q = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU32(&q));
    msg->qids.push_back(q);
  }
  return FinishDecode(*r);
}

std::string EncodeUpdateBatch(const UpdateBatchMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kUpdateBatch);
  w.PutI64(msg.time);
  w.PutBool(msg.evaluate);
  w.PutU64(msg.objects.size());
  for (const LocationUpdate& u : msg.objects) PutLocationUpdate(&w, u);
  w.PutU64(msg.queries.size());
  for (const QueryUpdate& u : msg.queries) PutQueryUpdate(&w, u);
  return w.Release();
}

Status DecodeUpdateBatch(std::string_view payload, UpdateBatchMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kUpdateBatch);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->evaluate));
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(n, kLocationUpdateBytes, r->Remaining(), "object update"));
  msg->objects.clear();
  msg->objects.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    LocationUpdate u;
    SCUBA_RETURN_IF_ERROR(GetLocationUpdate(&*r, &u));
    msg->objects.push_back(u);
  }
  SCUBA_RETURN_IF_ERROR(r->GetU64(&n));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(n, kQueryUpdateBytes, r->Remaining(), "query update"));
  msg->queries.clear();
  msg->queries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    QueryUpdate u;
    SCUBA_RETURN_IF_ERROR(GetQueryUpdate(&*r, &u));
    msg->queries.push_back(u);
  }
  return FinishDecode(*r);
}

std::string EncodeTick(const TickMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kTick);
  w.PutI64(msg.time);
  return w.Release();
}

Status DecodeTick(std::string_view payload, TickMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kTick);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  return FinishDecode(*r);
}

std::string EncodeTickAck(const TickAckMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kTickAck);
  w.PutU64(msg.round);
  w.PutI64(msg.time);
  w.PutU64(msg.matches);
  w.PutBool(msg.degraded);
  return w.Release();
}

Status DecodeTickAck(std::string_view payload, TickAckMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kTickAck);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->round));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->matches));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->degraded));
  return FinishDecode(*r);
}

std::string EncodeDelta(const ResultDelta& delta) {
  ByteWriter w = BeginPayload(MessageType::kDelta);
  delta.Save(&w);
  return w.Release();
}

Status DecodeDelta(std::string_view payload, ResultDelta* delta) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kDelta);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(ResultDelta::Load(&*r, delta));
  return FinishDecode(*r);
}

std::string EncodeSnapshot(const SnapshotMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kSnapshot);
  w.PutU64(msg.round);
  w.PutI64(msg.time);
  w.PutBool(msg.coalesced);
  w.PutU64(msg.degraded_shards.size());
  for (uint32_t s : msg.degraded_shards) w.PutU32(s);
  PutMatches(&w, msg.matches);
  return w.Release();
}

Status DecodeSnapshot(std::string_view payload, SnapshotMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kSnapshot);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU64(&msg->round));
  SCUBA_RETURN_IF_ERROR(r->GetI64(&msg->time));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->coalesced));
  uint64_t shards = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&shards));
  SCUBA_RETURN_IF_ERROR(
      CheckCount(shards, 4, r->Remaining(), "degraded shard"));
  msg->degraded_shards.clear();
  msg->degraded_shards.reserve(static_cast<size_t>(shards));
  for (uint64_t i = 0; i < shards; ++i) {
    uint32_t s = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU32(&s));
    msg->degraded_shards.push_back(s);
  }
  SCUBA_RETURN_IF_ERROR(GetMatches(&*r, "snapshot match", &msg->matches));
  return FinishDecode(*r);
}

std::string EncodeError(const ErrorMsg& msg) {
  ByteWriter w = BeginPayload(MessageType::kError);
  w.PutU32(msg.code);
  w.PutString(msg.message);
  w.PutBool(msg.fatal);
  return w.Release();
}

Status DecodeError(std::string_view payload, ErrorMsg* msg) {
  Result<ByteReader> r = BeginDecode(payload, MessageType::kError);
  if (!r.ok()) return r.status();
  SCUBA_RETURN_IF_ERROR(r->GetU32(&msg->code));
  SCUBA_RETURN_IF_ERROR(r->GetString(&msg->message));
  SCUBA_RETURN_IF_ERROR(r->GetBool(&msg->fatal));
  return FinishDecode(*r);
}

std::string EncodeBye() {
  return BeginPayload(MessageType::kBye).Release();
}

std::string EncodeShutdown() {
  return BeginPayload(MessageType::kShutdown).Release();
}

}  // namespace scuba::serve
