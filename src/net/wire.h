#ifndef ESD_NET_WIRE_H_
#define ESD_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace esd::net {

/// Length-prefixed binary wire protocol for the network front end, built
/// on the index_io framing discipline: a fixed versioned header, a bounded
/// length prefix that is checked against a hard cap BEFORE any allocation
/// or payload wait, and typed parse errors so the server can count and
/// report exactly what a hostile or broken client sent.
///
/// Frame layout (all integers little-endian; the header is 8 bytes):
///
///   offset  size  field
///   0       1     magic    0xE5 (also the binary-mode detection byte:
///                          never a printable ASCII command or 'G' of GET)
///   1       1     version  kWireVersion (3); any other value is kBadVersion
///   2       1     type     FrameType
///   3       1     flags    reserved, must be 0
///   4       4     length   payload bytes, <= max_frame_bytes
///   8       len   payload  typed per FrameType
///
/// Requests carry a client-chosen correlation id that the response echoes,
/// so pipelined clients can match answers without trusting ordering (the
/// server nevertheless answers each connection in submission order).
///
/// One protocol version is spoken: a frame whose version byte is not
/// kWireVersion fails with kBadVersion, which the server answers with a
/// kError frame before closing.

inline constexpr uint8_t kFrameMagic = 0xE5;
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 8;
/// Hard cap a decoder enforces on the length prefix before allocating or
/// waiting for payload bytes. Responses are sized by the server itself
/// (top-k results), requests are tiny; 1 MiB bounds both with headroom.
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameType : uint8_t {
  kPing = 0x01,         ///< empty payload; answered by kPong
  kQuery = 0x02,        ///< QueryFrame payload; answered by kQueryResult
  kPong = 0x81,         ///< empty payload
  kQueryResult = 0x82,  ///< QueryResultFrame payload
  kError = 0xFF,        ///< ErrorFrame payload (server -> client only)
};

/// Typed outcome of decoding. kNeedMore is the only non-terminal state: a
/// partial frame straddling read() boundaries resolves on the next Feed.
/// Everything from kBadMagic down is a fatal protocol error — the stream
/// cannot be resynchronized, so the server answers kError and closes.
enum class WireStatus : uint8_t {
  kOk = 0,
  kNeedMore,     ///< incomplete header or payload; feed more bytes
  kBadMagic,     ///< first byte of a frame is not kFrameMagic
  kBadVersion,   ///< unknown protocol version
  kBadFlags,     ///< reserved flags set
  kOversized,    ///< length prefix exceeds the hard cap
  kBadType,      ///< unknown FrameType
  kBadPayload,   ///< payload does not parse as its frame type
};

const char* WireStatusName(WireStatus status);

/// Error codes carried by kError frames.
enum class WireError : uint16_t {
  kNone = 0,
  kParse = 1,         ///< malformed frame (any fatal WireStatus)
  kOversized = 2,     ///< length prefix over the cap
  kBadType = 3,       ///< unknown frame type
  kBadPayload = 4,    ///< frame type known, payload malformed
  kShutdown = 5,      ///< server draining; request not accepted
  kBackpressure = 6,  ///< output buffer cap exceeded; connection closing
  kBadCommand = 7,    ///< text-mode line too long / not a command
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Payload of kQuery: exactly 25 bytes.
struct QueryFrame {
  uint64_t cid = 0;  ///< client correlation id, echoed in the response
  uint32_t k = 10;
  uint32_t tau = 2;
  uint8_t pad_with_zero_edges = 1;
  uint64_t deadline_us = 0;
};

struct ResultEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  uint32_t score = 0;
};

/// Payload of kQueryResult: a 29-byte prefix + 12 bytes per edge. The edge
/// count is validated against the payload length before allocation.
struct QueryResultFrame {
  uint64_t cid = 0;
  uint8_t status = 0;  ///< serve::ResponseStatus numeric value
  uint64_t rid = 0;    ///< server-minted request id (telemetry join key)
  uint64_t epoch = 0;  ///< serving epoch the answer came from
  std::vector<ResultEdge> edges;
};

/// Payload of kError: u16 code + UTF-8 message (rest of payload).
struct ErrorFrame {
  WireError code = WireError::kNone;
  std::string message;
};

/// Encoders produce one complete frame (header + payload), ready to write.
std::string EncodeFrame(FrameType type, std::string_view payload);
std::string EncodeQuery(const QueryFrame& q);
std::string EncodeQueryResult(const QueryResultFrame& r);
std::string EncodeError(WireError code, std::string_view message);

/// Payload decoders (header already stripped by FrameDecoder).
WireStatus DecodeQuery(std::string_view payload, QueryFrame* out);
WireStatus DecodeQueryResult(std::string_view payload, QueryResultFrame* out);
WireStatus DecodeError(std::string_view payload, ErrorFrame* out);

/// Incremental frame decoder: feed raw bytes as read() returns them, pull
/// complete frames out. Partial frames are reassembled across arbitrary
/// read boundaries. The length prefix is validated against the cap as soon
/// as the 8-byte header is complete — before the decoder waits for (or the
/// caller buffers) a single payload byte.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  void Feed(std::string_view bytes) { buf_.append(bytes); }

  /// Extracts the next complete frame. kOk fills *out and consumes the
  /// frame; kNeedMore leaves the buffer untouched; any other status is a
  /// fatal protocol error (the buffer is poisoned and every later call
  /// returns the same error).
  WireStatus Next(Frame* out);

  size_t buffered_bytes() const { return buf_.size(); }

 private:
  uint32_t max_frame_bytes_;
  std::string buf_;
  WireStatus poisoned_ = WireStatus::kOk;
};

/// What the first bytes of a connection say about its protocol. kUnknown
/// means undecidable yet (fewer than 4 bytes, all a prefix of "GET ").
enum class ConnMode : uint8_t {
  kUnknown = 0,
  kBinary,  ///< first byte is kFrameMagic
  kText,    ///< line-oriented command mode (nc / smoke scripts)
  kHttp,    ///< starts with "GET " — minimal HTTP for /metrics scrapes
};

/// Sniffs the protocol from the first bytes received. Binary resolves on
/// one byte (0xE5 is not printable ASCII); "GET " needs up to 4 bytes;
/// anything else is text.
ConnMode DetectMode(std::string_view first_bytes);

const char* ConnModeName(ConnMode mode);

}  // namespace esd::net

#endif  // ESD_NET_WIRE_H_
