// Network front end tests: wire-protocol fuzzing (malformed, oversized,
// and truncated length prefixes; garbage first bytes; partial-frame
// reassembly across arbitrary read boundaries), end-to-end NetServer
// integration over loopback (binary pipelining order, text-mode line
// compatibility, HTTP /metrics, 64-connection fan-in, backpressure
// disconnect, graceful drain), and fail-point chaos at the net.read /
// net.write sites proving one poisoned connection never stalls the event
// loop or leaks an in-flight query, and a text-protocol fuzz holding the
// socket text mode to the stdin executor's bytes. All suites are named
// Net* so the CI TSan job picks them up via its -R filter.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/frozen_index.h"
#include "core/index_builder.h"
#include "core/topk_result.h"
#include "fault/failpoint.h"
#include "gen/barabasi_albert.h"
#include "graph/graph.h"
#include "net/client.h"
#include "net/poller.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "tests/server_app_fixture.h"
#include "util/rng.h"

namespace esd {
namespace {

using core::FrozenEsdIndex;
using net::BlockingClient;
using net::ConnMode;
using net::DetectMode;
using net::ErrorFrame;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::NetServer;
using net::QueryFrame;
using net::QueryResultFrame;
using net::WireError;
using net::WireStatus;
using serve::EsdQueryService;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ResponseStatus;

/// A query as a client of the retired protocol version 1 sent it: version
/// byte 1 and a 25-byte payload.
std::string V1QueryFrame() {
  QueryFrame q;
  q.cid = 11;
  q.k = 3;
  q.tau = 2;
  std::string frame = EncodeQuery(q);
  frame[1] = 1;
  return frame;
}

/// A query as a client of the retired protocol version 2 sent it: version
/// byte 2 and a 26-byte payload (the current one plus one trailing byte).
std::string V2QueryFrame() {
  QueryFrame q;
  q.cid = 12;
  q.k = 3;
  q.tau = 2;
  std::string frame = EncodeQuery(q);
  frame[1] = 2;
  frame.push_back(0);
  const uint32_t v2_len = 26;
  std::memcpy(&frame[4], &v2_len, sizeof(v2_len));
  return frame;
}

// ---------------------------------------------------------------------------
// Wire codec: round trips.
// ---------------------------------------------------------------------------

TEST(NetWireTest, QueryRoundTrip) {
  QueryFrame q;
  q.cid = 0x1122334455667788ull;
  q.k = 64;
  q.tau = 7;
  q.pad_with_zero_edges = 0;
  q.deadline_us = 1500;
  const std::string frame = EncodeQuery(q);
  ASSERT_GE(frame.size(), net::kFrameHeaderBytes);

  FrameDecoder dec;
  dec.Feed(frame);
  Frame out;
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kQuery);
  QueryFrame got;
  ASSERT_EQ(net::DecodeQuery(out.payload, &got), WireStatus::kOk);
  EXPECT_EQ(got.cid, q.cid);
  EXPECT_EQ(got.k, q.k);
  EXPECT_EQ(got.tau, q.tau);
  EXPECT_EQ(got.pad_with_zero_edges, q.pad_with_zero_edges);
  EXPECT_EQ(got.deadline_us, q.deadline_us);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(NetWireTest, QueryResultRoundTrip) {
  QueryResultFrame r;
  r.cid = 42;
  r.status = 2;
  r.rid = 777;
  r.epoch = 9;
  r.edges = {{1, 2, 30}, {4, 5, 0}, {1000000, 2000000, 4000000}};
  const std::string frame = EncodeQueryResult(r);

  FrameDecoder dec;
  dec.Feed(frame);
  Frame out;
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kQueryResult);
  QueryResultFrame got;
  ASSERT_EQ(net::DecodeQueryResult(out.payload, &got), WireStatus::kOk);
  EXPECT_EQ(got.cid, r.cid);
  EXPECT_EQ(got.status, r.status);
  EXPECT_EQ(got.rid, r.rid);
  EXPECT_EQ(got.epoch, r.epoch);
  ASSERT_EQ(got.edges.size(), r.edges.size());
  for (size_t i = 0; i < r.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].u, r.edges[i].u);
    EXPECT_EQ(got.edges[i].v, r.edges[i].v);
    EXPECT_EQ(got.edges[i].score, r.edges[i].score);
  }
}

TEST(NetWireTest, ErrorRoundTrip) {
  const std::string frame =
      EncodeError(WireError::kOversized, "length prefix over cap");
  FrameDecoder dec;
  dec.Feed(frame);
  Frame out;
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kError);
  ErrorFrame got;
  ASSERT_EQ(net::DecodeError(out.payload, &got), WireStatus::kOk);
  EXPECT_EQ(got.code, WireError::kOversized);
  EXPECT_EQ(got.message, "length prefix over cap");
}

// ---------------------------------------------------------------------------
// Wire codec: reassembly and malformed input.
// ---------------------------------------------------------------------------

TEST(NetWireTest, ByteAtATimeReassembly) {
  QueryFrame q;
  q.cid = 5;
  const std::string frame = EncodeQuery(q);
  FrameDecoder dec;
  Frame out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.Feed(frame.data() + i, 1);
    ASSERT_EQ(dec.Next(&out), WireStatus::kNeedMore) << "at byte " << i;
  }
  dec.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kQuery);
}

TEST(NetWireTest, BackToBackFramesInOneFeed) {
  QueryFrame q1, q2;
  q1.cid = 1;
  q2.cid = 2;
  std::string bytes = EncodeQuery(q1);
  bytes += EncodeQuery(q2);
  bytes += EncodeFrame(FrameType::kPing, "");
  FrameDecoder dec;
  dec.Feed(bytes);
  Frame out;
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  QueryFrame got;
  ASSERT_EQ(net::DecodeQuery(out.payload, &got), WireStatus::kOk);
  EXPECT_EQ(got.cid, 1u);
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  ASSERT_EQ(net::DecodeQuery(out.payload, &got), WireStatus::kOk);
  EXPECT_EQ(got.cid, 2u);
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  EXPECT_EQ(out.type, FrameType::kPing);
  EXPECT_EQ(dec.Next(&out), WireStatus::kNeedMore);
}

TEST(NetWireTest, BadMagicPoisonsDecoder) {
  FrameDecoder dec;
  const char raw[] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  dec.Feed(raw, sizeof(raw));
  Frame out;
  EXPECT_EQ(dec.Next(&out), WireStatus::kBadMagic);
  // Poisoned: even a valid frame afterwards keeps reporting the error.
  dec.Feed(EncodeFrame(FrameType::kPing, ""));
  EXPECT_EQ(dec.Next(&out), WireStatus::kBadMagic);
}

TEST(NetWireTest, BadVersionAndFlagsRejected) {
  std::string hostile = net::EncodeFrame(FrameType::kPing, "");
  hostile[1] = static_cast<char>(net::kWireVersion + 9);
  std::string v1_ping = net::EncodeFrame(FrameType::kPing, "");
  v1_ping[1] = 1;
  Frame out;
  for (const std::string& frame :
       {hostile, v1_ping, V1QueryFrame(), V2QueryFrame()}) {
    FrameDecoder dec;
    dec.Feed(frame);
    EXPECT_EQ(dec.Next(&out), WireStatus::kBadVersion);
  }

  std::string frame = net::EncodeFrame(FrameType::kPing, "");
  frame[3] = 0x40;  // reserved flags must be zero
  FrameDecoder dec2;
  dec2.Feed(frame);
  EXPECT_EQ(dec2.Next(&out), WireStatus::kBadFlags);
}

// The surviving header and payload sizes, byte for byte.
TEST(NetWireTest, HeaderBytesArePinned) {
  EXPECT_EQ(net::kWireVersion, 3);
  QueryFrame q;
  const std::string query = EncodeQuery(q);
  ASSERT_EQ(query.size(), net::kFrameHeaderBytes + 25);
  EXPECT_EQ(static_cast<uint8_t>(query[0]), 0xE5);
  EXPECT_EQ(static_cast<uint8_t>(query[1]), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(query[2]),
            static_cast<uint8_t>(FrameType::kQuery));
  EXPECT_EQ(query[3], 0);
  QueryResultFrame r;
  r.edges = {{1, 2, 3}};
  const std::string result = EncodeQueryResult(r);
  ASSERT_EQ(result.size(), net::kFrameHeaderBytes + 29 + 12);
  EXPECT_EQ(result.substr(0, 2), std::string("\xE5\x03", 2));
  EXPECT_EQ(EncodeFrame(FrameType::kPing, "").substr(0, 2),
            std::string("\xE5\x03", 2));
}

TEST(NetWireTest, UnknownTypeRejected) {
  std::string frame = net::EncodeFrame(FrameType::kPing, "");
  frame[2] = 0x33;  // no such FrameType
  FrameDecoder dec;
  dec.Feed(frame);
  Frame out;
  EXPECT_EQ(dec.Next(&out), WireStatus::kBadType);
}

TEST(NetWireTest, OversizedPrefixRejectedOnHeaderAlone) {
  // A hostile length prefix must be rejected the moment the 8-byte header
  // is complete — no payload bytes are ever buffered or waited for.
  std::string header;
  header.push_back(static_cast<char>(net::kFrameMagic));
  header.push_back(static_cast<char>(net::kWireVersion));
  header.push_back(static_cast<char>(FrameType::kQuery));
  header.push_back(0);
  const uint32_t huge = 0xFFFFFFFFu;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  FrameDecoder dec;
  dec.Feed(header);  // exactly 8 bytes, zero payload
  Frame out;
  EXPECT_EQ(dec.Next(&out), WireStatus::kOversized);
}

TEST(NetWireTest, TruncatedPayloadNeedsMore) {
  QueryFrame q;
  const std::string frame = EncodeQuery(q);
  FrameDecoder dec;
  dec.Feed(frame.data(), frame.size() - 4);
  Frame out;
  EXPECT_EQ(dec.Next(&out), WireStatus::kNeedMore);
  dec.Feed(frame.data() + frame.size() - 4, 4);
  EXPECT_EQ(dec.Next(&out), WireStatus::kOk);
}

TEST(NetWireTest, QueryPayloadWrongSizeIsBadPayload) {
  // The second payload is a retired v2 query's 26 bytes: one byte longer
  // than v3's, so not a query even under a v3 header.
  const std::string v2_payload = V2QueryFrame().substr(net::kFrameHeaderBytes);
  ASSERT_EQ(v2_payload.size(), 26u);
  for (const std::string& payload : {std::string("short"), v2_payload}) {
    const std::string frame = net::EncodeFrame(FrameType::kQuery, payload);
    FrameDecoder dec;
    dec.Feed(frame);
    Frame out;
    ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
    QueryFrame got;
    EXPECT_EQ(net::DecodeQuery(out.payload, &got), WireStatus::kBadPayload)
        << payload.size();
  }
}

TEST(NetWireTest, QueryResultCountValidatedAgainstPayload) {
  QueryResultFrame r;
  r.edges = {{1, 2, 3}};
  std::string frame = EncodeQueryResult(r);
  // Inflate the declared edge count without supplying the bytes. The count
  // ends the payload's 29-byte prefix (after cid, status, rid, epoch);
  // corrupting it must yield kBadPayload, not a huge allocation.
  const size_t count_off = net::kFrameHeaderBytes + 8 + 1 + 8 + 8;
  ASSERT_LT(count_off + 4, frame.size());
  const uint32_t bogus = 1000000;
  std::memcpy(&frame[count_off], &bogus, 4);
  FrameDecoder dec;
  dec.Feed(frame);
  Frame out;
  ASSERT_EQ(dec.Next(&out), WireStatus::kOk);
  QueryResultFrame got;
  EXPECT_EQ(net::DecodeQueryResult(out.payload, &got),
            WireStatus::kBadPayload);
}

TEST(NetWireTest, DetectModeSniffsAllThreeProtocols) {
  EXPECT_EQ(DetectMode(std::string_view("\xE5", 1)), ConnMode::kBinary);
  EXPECT_EQ(DetectMode("GET /metrics HTTP/1.0"), ConnMode::kHttp);
  EXPECT_EQ(DetectMode("QUERY 3 2\n"), ConnMode::kText);
  EXPECT_EQ(DetectMode("STATS"), ConnMode::kText);
  // A strict prefix of "GET " is still ambiguous.
  EXPECT_EQ(DetectMode("G"), ConnMode::kUnknown);
  EXPECT_EQ(DetectMode("GE"), ConnMode::kUnknown);
  EXPECT_EQ(DetectMode("GET"), ConnMode::kUnknown);
  EXPECT_EQ(DetectMode("GETX"), ConnMode::kText);
  EXPECT_EQ(DetectMode(""), ConnMode::kUnknown);
}

TEST(NetWireTest, FuzzRandomBytesNeverCrashOrOverbuffer) {
  util::Rng rng(0xF022);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    Frame out;
    const size_t len = 1 + rng.Next() % 256;
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    // Feed in random-sized chunks; pull frames until the decoder wants
    // more bytes or poisons. Either way: no crash, no unbounded growth.
    size_t off = 0;
    while (off < bytes.size()) {
      const size_t chunk = 1 + rng.Next() % 16;
      const size_t n = std::min(chunk, bytes.size() - off);
      dec.Feed(bytes.data() + off, n);
      off += n;
      WireStatus st;
      do {
        st = dec.Next(&out);
      } while (st == WireStatus::kOk);
      if (st != WireStatus::kNeedMore) break;  // poisoned — terminal
    }
    EXPECT_LE(dec.buffered_bytes(), bytes.size());
  }
}

TEST(NetWireTest, FuzzMutatedValidFramesNeverCrash) {
  util::Rng rng(0xBEEF);
  for (int round = 0; round < 300; ++round) {
    QueryFrame q;
    q.cid = rng.Next();
    q.k = static_cast<uint32_t>(rng.Next());
    q.tau = static_cast<uint32_t>(rng.Next());
    std::string frame = EncodeQuery(q);
    // Flip a few random bytes, sometimes truncate.
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[rng.Next() % frame.size()] ^=
          static_cast<char>(1 + rng.Next() % 255);
    }
    if (rng.Next() % 4 == 0) frame.resize(rng.Next() % frame.size());
    FrameDecoder dec;
    dec.Feed(frame);
    Frame out;
    WireStatus st;
    do {
      st = dec.Next(&out);
      if (st == WireStatus::kOk && out.type == FrameType::kQuery) {
        QueryFrame got;
        (void)net::DecodeQuery(out.payload, &got);
      }
    } while (st == WireStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Text-protocol fuzz: seeded random lines, split into partial writes, must
// get the same replies from the socket text mode as from the stdin
// executor, one per non-blank line.
// ---------------------------------------------------------------------------

// Request ids and timings differ between two runs of one query; nothing
// else in a reply may. Replaces each "rid=<digits>" and each decimal
// "<digits>.<digits>" with '#'.
std::string MaskVolatile(const std::string& text) {
  auto digits_end = [&text](size_t i) {
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i;
  };
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (text.compare(i, 4, "rid=") == 0) {
      out += "rid=#";
      i = digits_end(i + 4);
      continue;
    }
    const size_t int_end = digits_end(i);
    if (int_end > i && int_end + 1 < text.size() && text[int_end] == '.' &&
        digits_end(int_end + 1) > int_end + 1) {
      out += '#';
      i = digits_end(int_end + 1);
    } else if (int_end > i) {
      out.append(text, i, int_end - i);
      i = int_end;
    } else {
      out += text[i++];
    }
  }
  return out;
}

// Every reply opens with an OK or ERR line; a query's telemetry and edge
// lines are indented.
size_t CountReplies(const std::string& text) {
  size_t replies = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("OK ", 0) == 0 || line.rfind("ERR ", 0) == 0) ++replies;
  }
  return replies;
}

std::string ReadToClose(int fd) {
  std::string got;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) {
    got.append(buf, static_cast<size_t>(n));
  }
  return got;
}

TEST(NetTextFuzzTest, ExecutorAndTextModeAnswerIdentically) {
  test::ScratchServer server("text_fuzz");
  ASSERT_TRUE(server.Open());
  obs::MetricRegistry registry;
  NetServer::Options nopts;
  nopts.registry = &registry;
  NetServer net(server.app().NetHandlers(), nopts);
  std::string error;
  ASSERT_TRUE(net.Start(&error)) << error;

  // Verbs whose replies are deterministic on a static server (no counters,
  // no files written).
  const std::vector<std::string> verbs = {
      "QUERY", "QUERY", "QUERY", "INSERT", "DELETE", "CHECKPOINT",
      "REFREEZE", "query", "NOPE"};
  const std::vector<std::string> args = {
      "3", "2", "0", "17", "-1", "+4", "4294967295", "4294967296",
      "18446744073709551616", "abc", "2x", "STRICT", "strict"};
  const std::vector<std::string> gaps = {" ", "\t", "  ", " \t", "\v"};
  util::Rng rng(0x7E47);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.Next() % from.size()];
  };
  for (int round = 0; round < 200; ++round) {
    std::string stream;
    size_t lines = 0;
    const size_t n = 1 + rng.Next() % 10;
    for (size_t l = 0; l < n; ++l) {
      if (rng.Next() % 6 == 0) stream += pick(gaps) + "\n";  // blank line
      if (rng.Next() % 4 == 0) stream += pick(gaps);
      stream += pick(verbs);
      for (uint64_t a = rng.Next() % 5; a > 0; --a) {
        stream += pick(gaps) + pick(args);
      }
      if (rng.Next() % 8 == 0) stream += "\r";
      ++lines;
      // The last line may stay unterminated: both paths serve it at EOF.
      if (l + 1 < n || rng.Next() % 2 == 0) stream += "\n";
    }

    std::string want;
    std::istringstream in(stream);
    for (std::string line; std::getline(in, line);) {
      std::string out;
      ASSERT_TRUE(server.app().Execute(line, &out)) << line;
      want += out;
    }

    BlockingClient raw;
    ASSERT_TRUE(raw.Connect("127.0.0.1", net.port(), &error)) << error;
    for (size_t off = 0; off < stream.size();) {
      const size_t chunk = std::min<size_t>(1 + rng.Next() % 16,
                                            stream.size() - off);
      ASSERT_TRUE(raw.SendRaw(std::string_view(stream).substr(off, chunk)));
      off += chunk;
    }
    ASSERT_EQ(::shutdown(raw.fd(), SHUT_WR), 0);
    const std::string got = ReadToClose(raw.fd());

    EXPECT_EQ(CountReplies(want), lines) << stream;
    EXPECT_EQ(MaskVolatile(got), MaskVolatile(want)) << stream;
  }
  EXPECT_EQ(net.SnapStats().parse_errors, 0u);
}

// ---------------------------------------------------------------------------
// Poller unit coverage.
// ---------------------------------------------------------------------------

TEST(NetPollerTest, BothBackendsSignalReadability) {
  for (const bool force_poll : {false, true}) {
    std::string error;
    auto poller = net::Poller::Create(force_poll, &error);
    ASSERT_NE(poller, nullptr) << error;
    if (force_poll) {
      EXPECT_STREQ(poller->backend_name(), "poll");
    }
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_TRUE(poller->Add(fds[0], /*read=*/true, /*write=*/false));
    std::vector<net::Poller::Event> events;
    // Nothing written yet: a short wait must time out with no events.
    poller->Wait(&events, 0);
    EXPECT_TRUE(events.empty());
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    poller->Wait(&events, 1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, fds[0]);
    EXPECT_TRUE(events[0].readable);
    poller->Remove(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

// ---------------------------------------------------------------------------
// NetServer integration over loopback.
// ---------------------------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::Graph g = gen::BarabasiAlbert(150, 4, 3);
    frozen_ = std::make_unique<FrozenEsdIndex>(core::BuildFrozenIndex(g));
    EsdQueryService::Options sopts;
    sopts.num_threads = 2;
    sopts.max_queue = 1 << 14;
    service_ = std::make_unique<EsdQueryService>(*frozen_, sopts);
  }

  void TearDown() override {
    server_.reset();  // drain before the service dies
    service_.reset();
  }

  // Swaps in a service with a result cache (call before StartServer): its
  // hits complete on the loop thread, inside SubmitQuery.
  void UseCachedService() {
    EsdQueryService::Options sopts;
    sopts.num_threads = 2;
    sopts.max_queue = 1 << 14;
    sopts.cache_bytes = 1 << 20;
    service_ = std::make_unique<EsdQueryService>(*frozen_, sopts);
  }

  NetServer* StartServer(NetServer::Options nopts = {}) {
    nopts.registry = &registry_;
    NetServer::Handlers h;
    h.submit = [this](const QueryRequest& rq,
                      std::function<void(QueryResponse)> done) {
      service_->SubmitAsync(rq, std::move(done));
    };
    h.command = [this](const std::string& line, std::string* out) {
      commands_.fetch_add(1);
      if (line == "QUIT") {
        *out = "bye\n";
        return false;
      }
      if (line == "STATS") {
        *out = "stats ok\n";
        return true;
      }
      *out = "ERR unknown command\n";
      return true;
    };
    h.format_query = [](const QueryResponse& resp) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "RESULT %zu edges\n",
                    resp.result.size());
      return std::string(buf);
    };
    h.metrics_text = [this] { return registry_.PrometheusText(); };
    server_ = std::make_unique<NetServer>(h, nopts);
    std::string error;
    EXPECT_TRUE(server_->Start(&error)) << error;
    return server_.get();
  }

  // Reads from a raw fd until the peer closes or `until` appears.
  static std::string ReadUntil(int fd, const std::string& until) {
    std::string got;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
      if (!until.empty() && got.find(until) != std::string::npos) break;
    }
    return got;
  }

  obs::MetricRegistry registry_;
  std::unique_ptr<FrozenEsdIndex> frozen_;
  std::unique_ptr<EsdQueryService> service_;
  std::unique_ptr<NetServer> server_;
  std::atomic<uint64_t> commands_{0};
};

TEST_F(NetServerTest, BinaryQueryMatchesEngine) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  QueryFrame q;
  q.cid = 99;
  q.k = 8;
  q.tau = 2;
  q.pad_with_zero_edges = 1;
  QueryResultFrame result;
  ASSERT_TRUE(client.Query(q, &result));
  EXPECT_EQ(result.cid, 99u);
  EXPECT_EQ(result.status, static_cast<uint8_t>(ResponseStatus::kOk));
  EXPECT_GT(result.rid, 0u);

  const core::TopKResult want = frozen_->Query(8, 2);
  ASSERT_EQ(result.edges.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result.edges[i].u, want[i].edge.u);
    EXPECT_EQ(result.edges[i].v, want[i].edge.v);
    EXPECT_EQ(result.edges[i].score, want[i].score);
  }
}

TEST_F(NetServerTest, PingPong) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(client.SendPing());
  Frame frame;
  ASSERT_EQ(client.RecvFrame(&frame), WireStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_TRUE(frame.payload.empty());
}

TEST_F(NetServerTest, PipelinedResponsesArriveInRequestOrder) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  // Burst 32 queries with varying (k, tau) — they land in different
  // service batches and complete out of order internally — then read all
  // responses: cids must come back exactly in send order.
  constexpr uint64_t kN = 32;
  std::string burst;
  for (uint64_t i = 0; i < kN; ++i) {
    QueryFrame q;
    q.cid = 1000 + i;
    q.k = 1 + static_cast<uint32_t>(i % 7);
    q.tau = 1 + static_cast<uint32_t>(i % 5);
    burst += EncodeQuery(q);
  }
  ASSERT_TRUE(client.SendRaw(burst));
  for (uint64_t i = 0; i < kN; ++i) {
    Frame frame;
    ASSERT_EQ(client.RecvFrame(&frame), WireStatus::kOk) << "response " << i;
    ASSERT_EQ(frame.type, FrameType::kQueryResult);
    QueryResultFrame r;
    ASSERT_EQ(net::DecodeQueryResult(frame.payload, &r), WireStatus::kOk);
    EXPECT_EQ(r.cid, 1000 + i) << "out-of-order response at position " << i;
  }
}

TEST_F(NetServerTest, CachedPipelineMixesInlineHitsAndMissesInOrder) {
  UseCachedService();
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  // Six keys; the first three are warmed, so a burst over all six mixes
  // hits answered on the loop thread with misses served by the workers.
  auto frame_for = [](uint64_t i) {
    QueryFrame q;
    q.cid = 5000 + i;
    q.k = 3 + static_cast<uint32_t>(i % 6);
    q.tau = 1 + static_cast<uint32_t>(i % 6) / 2;
    q.pad_with_zero_edges = 1;
    return q;
  };
  for (uint64_t i = 0; i < 3; ++i) {
    QueryResultFrame warm;
    ASSERT_TRUE(client.Query(frame_for(i), &warm));
  }
  auto read_in_order = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      Frame frame;
      ASSERT_EQ(client.RecvFrame(&frame), WireStatus::kOk) << "response " << i;
      ASSERT_EQ(frame.type, FrameType::kQueryResult);
      QueryResultFrame r;
      ASSERT_EQ(net::DecodeQueryResult(frame.payload, &r), WireStatus::kOk);
      const QueryFrame q = frame_for(i);
      EXPECT_EQ(r.cid, q.cid) << "out-of-order response at position " << i;
      EXPECT_EQ(r.status, static_cast<uint8_t>(ResponseStatus::kOk));
      const core::TopKResult want = frozen_->Query(q.k, q.tau);
      ASSERT_EQ(r.edges.size(), want.size()) << "position " << i;
      for (size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(r.edges[e].u, want[e].edge.u);
        EXPECT_EQ(r.edges[e].v, want[e].edge.v);
        EXPECT_EQ(r.edges[e].score, want[e].score);
      }
    }
  };
  constexpr uint64_t kN = 48;
  std::string burst;
  for (uint64_t i = 0; i < kN; ++i) burst += EncodeQuery(frame_for(i));
  ASSERT_TRUE(client.SendRaw(burst));
  read_in_order(kN);
  const uint64_t inline_hits = service_->metrics().Snap().inline_hits;
  EXPECT_GE(inline_hits, kN / 2);  // the warm half at least
  EXPECT_LT(inline_hits, kN + 3);  // the cold keys missed first

  // A second burst, then a graceful shutdown: every answer still arrives
  // and nothing is left in flight.
  burst.clear();
  for (uint64_t i = 0; i < kN; ++i) burst += EncodeQuery(frame_for(i));
  ASSERT_TRUE(client.SendRaw(burst));
  for (int i = 0; i < 200 && srv->SnapStats().queries < 2 * kN + 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(srv->SnapStats().queries, 2 * kN + 3);
  srv->RequestShutdown();
  read_in_order(kN);
  Frame tail;
  EXPECT_NE(client.RecvFrame(&tail), WireStatus::kOk);  // closed after drain
  server_->Shutdown();
  const NetServer::Stats stats = server_->SnapStats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_connections, 0u);
}

TEST_F(NetServerTest, MalformedFrameGetsTypedErrorAndClose) {
  NetServer* srv = StartServer();

  // Valid magic, then a version byte the server does not speak — a
  // hostile 77, or a query from a client of the retired versions 1 and 2:
  // binary mode engages, then the decoder reports kBadVersion — the server
  // must answer a kError frame and close, never hang or answer in a layout
  // the client cannot parse.
  std::string hostile = EncodeFrame(FrameType::kPing, "");
  hostile[1] = 77;
  for (const std::string& bad : {hostile, V1QueryFrame(), V2QueryFrame()}) {
    BlockingClient client;
    std::string error;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;
    ASSERT_TRUE(client.SendRaw(bad));
    Frame frame;
    ASSERT_EQ(client.RecvFrame(&frame), WireStatus::kOk);
    ASSERT_EQ(frame.type, FrameType::kError);
    ErrorFrame ef;
    ASSERT_EQ(net::DecodeError(frame.payload, &ef), WireStatus::kOk);
    EXPECT_EQ(ef.code, WireError::kParse);
    EXPECT_EQ(ef.message, "bad-version");
    // Peer must close after the error frame.
    EXPECT_EQ(client.RecvFrame(&frame), WireStatus::kNeedMore);
  }
  EXPECT_GE(srv->SnapStats().parse_errors, 3u);
}

TEST_F(NetServerTest, OversizedPrefixRejectedWithoutPayload) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  // 8-byte header declaring a 256 MiB payload, no payload sent. The server
  // must reject on the header alone instead of waiting for bytes that will
  // never come (a slowloris would otherwise pin the buffer).
  std::string header;
  header.push_back(static_cast<char>(net::kFrameMagic));
  header.push_back(static_cast<char>(net::kWireVersion));
  header.push_back(static_cast<char>(FrameType::kQuery));
  header.push_back(0);
  const uint32_t huge = 256u << 20;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  ASSERT_TRUE(client.SendRaw(header));

  Frame frame;
  ASSERT_EQ(client.RecvFrame(&frame), WireStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame ef;
  ASSERT_EQ(net::DecodeError(frame.payload, &ef), WireStatus::kOk);
  EXPECT_EQ(ef.code, WireError::kOversized);
  EXPECT_EQ(client.RecvFrame(&frame), WireStatus::kNeedMore);
  EXPECT_GE(srv->SnapStats().parse_errors, 1u);
}

TEST_F(NetServerTest, PartialFrameAcrossWritesStillAnswered) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  QueryFrame q;
  q.cid = 7;
  q.k = 3;
  q.tau = 2;
  const std::string frame = EncodeQuery(q);
  // Drip the frame in three separated writes; the server reassembles.
  ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(0, 3)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(3, 9)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(12)));

  Frame out;
  ASSERT_EQ(client.RecvFrame(&out), WireStatus::kOk);
  QueryResultFrame r;
  ASSERT_EQ(net::DecodeQueryResult(out.payload, &r), WireStatus::kOk);
  EXPECT_EQ(r.cid, 7u);
}

TEST_F(NetServerTest, TruncatedFrameThenDisconnectIsClean) {
  NetServer* srv = StartServer();
  {
    BlockingClient client;
    std::string error;
    ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;
    QueryFrame q;
    const std::string frame = EncodeQuery(q);
    ASSERT_TRUE(client.SendRaw(std::string_view(frame).substr(0, 10)));
  }  // half a frame, then the client vanishes
  // The server must just close its side; subsequent clients are served.
  for (int i = 0; i < 100; ++i) {
    if (srv->SnapStats().closed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(srv->SnapStats().closed, 1u);
  BlockingClient again;
  std::string error;
  ASSERT_TRUE(again.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryFrame q;
  q.cid = 1;
  QueryResultFrame r;
  EXPECT_TRUE(again.Query(q, &r));
}

TEST_F(NetServerTest, TextModeSpeaksTheStdinDialect) {
  NetServer* srv = StartServer();
  BlockingClient raw;
  std::string error;
  ASSERT_TRUE(raw.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(raw.SendRaw("QUERY 3 2\r\nSTATS\nNOPE\nQUIT\n"));
  const std::string got = ReadUntil(raw.fd(), "bye");
  EXPECT_NE(got.find("RESULT"), std::string::npos) << got;
  EXPECT_NE(got.find("stats ok"), std::string::npos) << got;
  EXPECT_NE(got.find("ERR unknown command"), std::string::npos) << got;
  EXPECT_NE(got.find("bye"), std::string::npos) << got;
  // Responses appear in command order even though QUERY is async.
  EXPECT_LT(got.find("RESULT"), got.find("stats ok"));
  EXPECT_GE(commands_.load(), 3u);  // STATS, NOPE, QUIT (QUERY intercepted)
}

TEST_F(NetServerTest, TextQueryUsageErrorOnBadArgs) {
  NetServer* srv = StartServer();
  BlockingClient raw;
  std::string error;
  ASSERT_TRUE(raw.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(raw.SendRaw("QUERY nonsense\nQUIT\n"));
  const std::string got = ReadUntil(raw.fd(), "bye");
  EXPECT_NE(got.find("ERR usage: QUERY"), std::string::npos) << got;
}

TEST_F(NetServerTest, OverlongTextLineClosedWithError) {
  NetServer::Options nopts;
  nopts.max_line_bytes = 64;
  NetServer* srv = StartServer(nopts);
  BlockingClient raw;
  std::string error;
  ASSERT_TRUE(raw.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(raw.SendRaw(std::string(256, 'A')));  // no newline, over cap
  const std::string got = ReadUntil(raw.fd(), "");
  EXPECT_NE(got.find("ERR line too long"), std::string::npos) << got;
  EXPECT_GE(srv->SnapStats().parse_errors, 1u);
}

TEST_F(NetServerTest, HttpMetricsScrape) {
  NetServer* srv = StartServer();
  registry_.GetCounter("esd_test_scrape_total", "test counter").Inc(3);
  BlockingClient raw;
  std::string error;
  ASSERT_TRUE(raw.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(raw.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  const std::string got = ReadUntil(raw.fd(), "");  // server closes after
  EXPECT_NE(got.find("HTTP/1.0 200 OK"), std::string::npos) << got;
  EXPECT_NE(got.find("text/plain"), std::string::npos) << got;
  EXPECT_NE(got.find("esd_test_scrape_total 3"), std::string::npos) << got;
  EXPECT_EQ(srv->SnapStats().scrapes, 1u);
}

TEST_F(NetServerTest, HttpUnknownPathIs404) {
  NetServer* srv = StartServer();
  BlockingClient raw;
  std::string error;
  ASSERT_TRUE(raw.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(raw.SendRaw("GET /nope HTTP/1.0\r\n\r\n"));
  const std::string got = ReadUntil(raw.fd(), "");
  EXPECT_NE(got.find("404"), std::string::npos) << got;
}

TEST_F(NetServerTest, SixtyFourConcurrentConnections) {
  NetServer* srv = StartServer();
  constexpr int kConns = 64;
  constexpr int kQueriesPerConn = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      std::string error;
      if (!client.Connect("127.0.0.1", srv->port(), &error)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kQueriesPerConn; ++i) {
        QueryFrame q;
        q.cid = static_cast<uint64_t>(c) * 1000 + i;
        q.k = 1 + (c + i) % 8;
        q.tau = 1 + i % 4;
        QueryResultFrame r;
        if (!client.Query(q, &r) || r.cid != q.cid) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const NetServer::Stats stats = srv->SnapStats();
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kConns) * kQueriesPerConn);
  EXPECT_EQ(stats.accepts, static_cast<uint64_t>(kConns));
}

TEST_F(NetServerTest, BackpressureDisconnectsReaderThatStopped) {
  NetServer::Options nopts;
  nopts.max_output_bytes = 16 * 1024;  // tiny cap so the test is fast
  NetServer* srv = StartServer(nopts);
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  // Pipeline a flood of padded top-64 queries and never read a byte. Once
  // kernel socket buffers fill, responses accumulate server-side until the
  // output cap trips and the server disconnects us.
  std::string burst;
  for (uint64_t i = 0; i < 4096; ++i) {
    QueryFrame q;
    q.cid = i;
    q.k = 64;
    q.tau = 1;
    q.pad_with_zero_edges = 1;
    burst += EncodeQuery(q);
  }
  (void)client.SendRaw(burst);  // may fail midway once the server closes
  bool closed = false;
  for (int i = 0; i < 2000; ++i) {
    if (srv->SnapStats().backpressure_closes >= 1) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(closed) << "server never applied the output-buffer cap";
  // The loop survives: a well-behaved client still gets answers.
  BlockingClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryFrame q;
  q.cid = 1;
  QueryResultFrame r;
  EXPECT_TRUE(good.Query(q, &r));
}

TEST_F(NetServerTest, ForcePollBackendServes) {
  NetServer::Options nopts;
  nopts.force_poll = true;
  NetServer* srv = StartServer(nopts);
  EXPECT_STREQ(srv->backend_name(), "poll");
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryFrame q;
  q.cid = 5;
  QueryResultFrame r;
  ASSERT_TRUE(client.Query(q, &r));
  EXPECT_EQ(r.cid, 5u);
}

TEST_F(NetServerTest, MaxConnectionsCapRefusesExtras) {
  NetServer::Options nopts;
  nopts.max_connections = 2;
  NetServer* srv = StartServer(nopts);
  std::string error;
  BlockingClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(b.Connect("127.0.0.1", srv->port(), &error)) << error;
  // Make sure both are registered before the third knocks.
  QueryFrame q;
  QueryResultFrame r;
  ASSERT_TRUE(a.Query(q, &r));
  ASSERT_TRUE(b.Query(q, &r));

  BlockingClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", srv->port(), &error)) << error;
  // The server accepts then immediately closes; our first read sees EOF.
  Frame frame;
  c.SendPing();
  EXPECT_NE(c.RecvFrame(&frame), WireStatus::kOk);
}

TEST_F(NetServerTest, GracefulShutdownDrainsInflightQueries) {
  NetServer* srv = StartServer();
  BlockingClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port(), &error)) << error;

  // Pipeline a burst, then immediately request shutdown: every response
  // for an already-submitted query must still be delivered before the
  // server closes the connection.
  constexpr uint64_t kN = 16;
  std::string burst;
  for (uint64_t i = 0; i < kN; ++i) {
    QueryFrame q;
    q.cid = 100 + i;
    q.k = 4;
    q.tau = 1 + i % 3;
    burst += EncodeQuery(q);
  }
  ASSERT_TRUE(client.SendRaw(burst));
  // Let the loop ingest the burst before the drain stops reads.
  for (int i = 0; i < 200 && srv->SnapStats().queries < kN; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(srv->SnapStats().queries, kN);
  srv->RequestShutdown();

  uint64_t got = 0;
  Frame frame;
  while (client.RecvFrame(&frame) == WireStatus::kOk) {
    if (frame.type == FrameType::kQueryResult) ++got;
  }
  EXPECT_EQ(got, kN);
  server_->Shutdown();
  const NetServer::Stats stats = server_->SnapStats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_connections, 0u);
}

// ---------------------------------------------------------------------------
// Fail-point chaos at the network IO sites. Compiled-in sites only.
// ---------------------------------------------------------------------------

class NetChaosTest : public NetServerTest {
 protected:
  void SetUp() override {
    if (!fault::kFailPointsCompiledIn) {
      GTEST_SKIP() << "ESD_FAULT=OFF build: net.* fail points compiled out";
    }
    NetServerTest::SetUp();
  }
  void TearDown() override {
    if (fault::kFailPointsCompiledIn) {
      fault::FailPointRegistry::Global().Clear("net.read");
      fault::FailPointRegistry::Global().Clear("net.write");
      fault::FailPointRegistry::Global().Clear("net.accept");
    }
    NetServerTest::TearDown();
  }
};

TEST_F(NetChaosTest, ReadFaultKillsOneConnectionNotTheLoop) {
  NetServer* srv = StartServer();
  std::string error;

  // Arm: the next net.read evaluation fails like a peer reset. Only the
  // victim is active, so the hit lands on its connection deterministically.
  ASSERT_TRUE(fault::FailPointRegistry::Global().Set(
      "net.read", "nth(1)*error(ECONNRESET)", &error))
      << error;

  BlockingClient victim;
  ASSERT_TRUE(victim.Connect("127.0.0.1", srv->port(), &error)) << error;
  ASSERT_TRUE(victim.SendPing());
  Frame frame;
  EXPECT_NE(victim.RecvFrame(&frame), WireStatus::kOk);  // connection died

  // The loop keeps serving: a fresh connection works, nothing leaked.
  fault::FailPointRegistry::Global().Clear("net.read");
  BlockingClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryFrame q;
  q.cid = 11;
  QueryResultFrame r;
  ASSERT_TRUE(healthy.Query(q, &r));
  EXPECT_EQ(r.cid, 11u);
  const NetServer::Stats stats = srv->SnapStats();
  EXPECT_GE(stats.read_errors, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST_F(NetChaosTest, WriteFaultAfterSubmitLeaksNoPending) {
  NetServer* srv = StartServer();
  std::string error;

  BlockingClient victim;
  ASSERT_TRUE(victim.Connect("127.0.0.1", srv->port(), &error)) << error;

  // Let the query reach the service, then fail the response write. The
  // completion callback must still retire the in-flight count even though
  // its bytes can never be delivered.
  ASSERT_TRUE(fault::FailPointRegistry::Global().Set(
      "net.write", "nth(1)*error(ECONNRESET)", &error))
      << error;
  QueryFrame q;
  q.cid = 21;
  ASSERT_TRUE(victim.SendQuery(q));
  Frame frame;
  EXPECT_NE(victim.RecvFrame(&frame), WireStatus::kOk);

  fault::FailPointRegistry::Global().Clear("net.write");
  for (int i = 0; i < 200 && srv->SnapStats().inflight > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const NetServer::Stats stats = srv->SnapStats();
  EXPECT_EQ(stats.inflight, 0u) << "pending query leaked after write fault";
  EXPECT_GE(stats.write_errors, 1u);

  BlockingClient healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryResultFrame r;
  q.cid = 22;
  ASSERT_TRUE(healthy.Query(q, &r));
  EXPECT_EQ(r.cid, 22u);
}

TEST_F(NetChaosTest, ReadDelayDoesNotWedgeOtherConnections) {
  NetServer* srv = StartServer();
  std::string error;

  // Every read stalls 10ms for a while: throughput sags but nothing
  // deadlocks and every response still arrives, in order, per connection.
  ASSERT_TRUE(fault::FailPointRegistry::Global().Set("net.read",
                                                     "delay(10)", &error))
      << error;
  constexpr int kConns = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      std::string err;
      if (!client.Connect("127.0.0.1", srv->port(), &err)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 3; ++i) {
        QueryFrame q;
        q.cid = static_cast<uint64_t>(c) * 10 + i;
        QueryResultFrame r;
        if (!client.Query(q, &r) || r.cid != q.cid) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  fault::FailPointRegistry::Global().Clear("net.read");
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv->SnapStats().inflight, 0u);
}

TEST_F(NetChaosTest, AcceptFaultRefusesOneThenRecovers) {
  NetServer* srv = StartServer();
  std::string error;
  ASSERT_TRUE(fault::FailPointRegistry::Global().Set(
      "net.accept", "nth(1)*error(EMFILE)", &error))
      << error;

  BlockingClient refused;
  // connect() itself succeeds (the kernel completed the handshake); the
  // server closes it immediately on the injected accept failure.
  if (refused.Connect("127.0.0.1", srv->port(), &error)) {
    refused.SendPing();
    Frame frame;
    EXPECT_NE(refused.RecvFrame(&frame), WireStatus::kOk);
  }
  fault::FailPointRegistry::Global().Clear("net.accept");

  BlockingClient ok;
  ASSERT_TRUE(ok.Connect("127.0.0.1", srv->port(), &error)) << error;
  QueryFrame q;
  q.cid = 31;
  QueryResultFrame r;
  ASSERT_TRUE(ok.Query(q, &r));
  EXPECT_EQ(r.cid, 31u);
  EXPECT_GE(srv->SnapStats().accept_errors, 1u);
}

}  // namespace
}  // namespace esd
