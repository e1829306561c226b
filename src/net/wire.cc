#include "net/wire.h"

#include <cstring>

namespace esd::net {

namespace {

/// Little-endian scalar append/read. The wire format is explicitly LE so a
/// frame captured on one host parses on any other (the in-memory formats
/// in core/ are native-order by design; the network must not be).
void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint16_t GetU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint16_t>(b[0] | (b[1] << 8));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

bool KnownType(uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kPing:
    case FrameType::kQuery:
    case FrameType::kPong:
    case FrameType::kQueryResult:
    case FrameType::kError:
      return true;
  }
  return false;
}

// cid, k, tau, pad, deadline
constexpr size_t kQueryPayloadBytes = 8 + 4 + 4 + 1 + 8;  // 25
// cid, status, rid, epoch, edge count
constexpr size_t kQueryResultPrefixBytes = 8 + 1 + 8 + 8 + 4;  // 29
constexpr size_t kResultEdgeBytes = 12;

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kNeedMore:
      return "need-more";
    case WireStatus::kBadMagic:
      return "bad-magic";
    case WireStatus::kBadVersion:
      return "bad-version";
    case WireStatus::kBadFlags:
      return "bad-flags";
    case WireStatus::kOversized:
      return "oversized";
    case WireStatus::kBadType:
      return "bad-type";
    case WireStatus::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kFrameMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // flags
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

std::string EncodeQuery(const QueryFrame& q) {
  std::string payload;
  payload.reserve(kQueryPayloadBytes);
  PutU64(&payload, q.cid);
  PutU32(&payload, q.k);
  PutU32(&payload, q.tau);
  payload.push_back(static_cast<char>(q.pad_with_zero_edges));
  PutU64(&payload, q.deadline_us);
  return EncodeFrame(FrameType::kQuery, payload);
}

std::string EncodeQueryResult(const QueryResultFrame& r) {
  std::string payload;
  payload.reserve(kQueryResultPrefixBytes + r.edges.size() * kResultEdgeBytes);
  PutU64(&payload, r.cid);
  payload.push_back(static_cast<char>(r.status));
  PutU64(&payload, r.rid);
  PutU64(&payload, r.epoch);
  PutU32(&payload, static_cast<uint32_t>(r.edges.size()));
  for (const ResultEdge& e : r.edges) {
    PutU32(&payload, e.u);
    PutU32(&payload, e.v);
    PutU32(&payload, e.score);
  }
  return EncodeFrame(FrameType::kQueryResult, payload);
}

std::string EncodeError(WireError code, std::string_view message) {
  std::string payload;
  payload.reserve(2 + message.size());
  PutU16(&payload, static_cast<uint16_t>(code));
  payload.append(message);
  return EncodeFrame(FrameType::kError, payload);
}

WireStatus DecodeQuery(std::string_view payload, QueryFrame* out) {
  if (payload.size() != kQueryPayloadBytes) return WireStatus::kBadPayload;
  const char* p = payload.data();
  out->cid = GetU64(p);
  out->k = GetU32(p + 8);
  out->tau = GetU32(p + 12);
  out->pad_with_zero_edges = static_cast<uint8_t>(p[16]);
  if (out->pad_with_zero_edges > 1) return WireStatus::kBadPayload;
  out->deadline_us = GetU64(p + 17);
  return WireStatus::kOk;
}

WireStatus DecodeQueryResult(std::string_view payload, QueryResultFrame* out) {
  if (payload.size() < kQueryResultPrefixBytes) {
    return WireStatus::kBadPayload;
  }
  const char* p = payload.data();
  out->cid = GetU64(p);
  out->status = static_cast<uint8_t>(p[8]);
  out->rid = GetU64(p + 9);
  out->epoch = GetU64(p + 17);
  const uint32_t count = GetU32(p + 25);
  // The count is validated against the bytes actually present before the
  // vector is sized — a hostile count cannot drive an allocation.
  const size_t remaining = payload.size() - kQueryResultPrefixBytes;
  if (remaining != static_cast<size_t>(count) * kResultEdgeBytes) {
    return WireStatus::kBadPayload;
  }
  out->edges.resize(count);
  const char* e = p + kQueryResultPrefixBytes;
  for (uint32_t i = 0; i < count; ++i, e += kResultEdgeBytes) {
    out->edges[i].u = GetU32(e);
    out->edges[i].v = GetU32(e + 4);
    out->edges[i].score = GetU32(e + 8);
  }
  return WireStatus::kOk;
}

WireStatus DecodeError(std::string_view payload, ErrorFrame* out) {
  if (payload.size() < 2) return WireStatus::kBadPayload;
  out->code = static_cast<WireError>(GetU16(payload.data()));
  out->message.assign(payload.substr(2));
  return WireStatus::kOk;
}

WireStatus FrameDecoder::Next(Frame* out) {
  if (poisoned_ != WireStatus::kOk) return poisoned_;
  if (buf_.size() < kFrameHeaderBytes) return WireStatus::kNeedMore;
  const auto* h = reinterpret_cast<const unsigned char*>(buf_.data());
  WireStatus bad = WireStatus::kOk;
  if (h[0] != kFrameMagic) {
    bad = WireStatus::kBadMagic;
  } else if (h[1] != kWireVersion) {
    bad = WireStatus::kBadVersion;
  } else if (h[3] != 0) {
    bad = WireStatus::kBadFlags;
  } else if (!KnownType(h[2])) {
    bad = WireStatus::kBadType;
  }
  const uint32_t length = GetU32(buf_.data() + 4);
  // The cap check happens here, with only the 8 header bytes buffered:
  // an oversized prefix is rejected before any payload is awaited.
  if (bad == WireStatus::kOk && length > max_frame_bytes_) {
    bad = WireStatus::kOversized;
  }
  if (bad != WireStatus::kOk) {
    poisoned_ = bad;  // unsynchronizable stream: fail every later call too
    return bad;
  }
  const size_t total = kFrameHeaderBytes + length;
  if (buf_.size() < total) return WireStatus::kNeedMore;
  out->type = static_cast<FrameType>(h[2]);
  out->payload.assign(buf_, kFrameHeaderBytes, length);
  buf_.erase(0, total);
  return WireStatus::kOk;
}

ConnMode DetectMode(std::string_view first_bytes) {
  if (first_bytes.empty()) return ConnMode::kUnknown;
  if (static_cast<unsigned char>(first_bytes[0]) == kFrameMagic) {
    return ConnMode::kBinary;
  }
  // "GET " wins over text; until 4 bytes arrive a strict prefix of it is
  // still ambiguous (no text command starts with 'G', so only real HTTP
  // clients ever stall here, and they always send the full request line).
  constexpr std::string_view kGet = "GET ";
  const size_t n = std::min(first_bytes.size(), kGet.size());
  if (first_bytes.substr(0, n) == kGet.substr(0, n)) {
    return first_bytes.size() >= kGet.size() ? ConnMode::kHttp
                                             : ConnMode::kUnknown;
  }
  return ConnMode::kText;
}

const char* ConnModeName(ConnMode mode) {
  switch (mode) {
    case ConnMode::kUnknown:
      return "unknown";
    case ConnMode::kBinary:
      return "binary";
    case ConnMode::kText:
      return "text";
    case ConnMode::kHttp:
      return "http";
  }
  return "unknown";
}

}  // namespace esd::net
