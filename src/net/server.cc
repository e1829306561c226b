#include "net/server.h"

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fault/failpoint.h"
#include "obs/trace.h"

namespace esd::net {

namespace {

/// Token separators of the text dialect: the isspace() set, so the verb
/// and arguments split exactly as an istream's `>>` splits them.
constexpr const char* kTextSpace = " \t\n\v\f\r";

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

WireError WireErrorFor(WireStatus status) {
  switch (status) {
    case WireStatus::kOversized:
      return WireError::kOversized;
    case WireStatus::kBadType:
      return WireError::kBadType;
    case WireStatus::kBadPayload:
      return WireError::kBadPayload;
    default:
      return WireError::kParse;
  }
}

std::string HttpResponse(int code, const char* reason,
                         std::string_view body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  // version=0.0.4 is the Prometheus text exposition content type.
  out += "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

bool ParseQueryArgs(std::string_view args, serve::QueryRequest* request) {
  auto next = [&args] {
    const size_t b = std::min(args.find_first_not_of(kTextSpace), args.size());
    const size_t e = std::min(args.find_first_of(kTextSpace, b), args.size());
    const std::string_view token = args.substr(b, e - b);
    args.remove_prefix(e);
    return token;
  };
  auto number = [](std::string_view token, uint32_t* out) {
    if (token.empty()) return false;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
    return ec == std::errc() && ptr == end;
  };
  return number(next(), &request->k) && number(next(), &request->tau) &&
         next().empty();
}

/// Per-connection state machine. The loop thread owns fd/mode/input; the
/// ordered output-slot queue is shared with worker-thread completion
/// callbacks under mu.
struct NetServer::Conn {
  int fd = -1;
  ConnMode mode = ConnMode::kUnknown;
  FrameDecoder decoder;
  std::string inbuf;      // sniff buffer + text/http accumulation
  bool read_eof = false;  // peer half-closed
  bool reading = true;    // poller read interest
  bool want_close = false;  // close once slots drain and outbox flushes
  // Current poller interest, to elide redundant Update calls.
  bool armed_read = true;
  bool armed_write = false;

  std::string outbox;  // ready bytes being written (loop thread only)
  size_t out_off = 0;

  std::mutex mu;
  struct Slot {
    bool ready = false;
    std::string bytes;
  };
  /// Ordered response slots: reserved at request parse time, filled sync
  /// (commands) or async (query completions), flushed strictly in order.
  std::deque<Slot> slots;   // guarded by mu
  uint64_t base_seq = 0;    // seq of slots.front(); guarded by mu
  uint64_t next_seq = 0;    // guarded by mu
  size_t slot_bytes = 0;    // staged-but-unflushed bytes; guarded by mu
  uint32_t inflight = 0;    // submitted, not yet completed; guarded by mu
  bool closed = false;      // fd closed; late completions drop; guarded by mu

  explicit Conn(uint32_t max_frame_bytes) : decoder(max_frame_bytes) {}
};

NetServer::NetServer(Handlers handlers, Options options)
    : handlers_(std::move(handlers)),
      options_(std::move(options)),
      registry_(options_.registry != nullptr ? *options_.registry
                                             : obs::MetricRegistry::Global()),
      m_accepts_(registry_.GetCounter("esd_net_accepts_total",
                                      "Connections accepted")),
      m_accept_errors_(registry_.GetCounter(
          "esd_net_accept_errors_total",
          "Accepts rejected (fault-injected, or connection cap)")),
      m_closed_(registry_.GetCounter("esd_net_conn_closed_total",
                                     "Connections closed (any reason)")),
      m_parse_errors_(registry_.GetCounter(
          "esd_net_parse_errors_total",
          "Protocol violations: bad frames, oversized prefixes, bad lines")),
      m_queries_(registry_.GetCounter("esd_net_queries_total",
                                      "Queries decoded from the wire")),
      m_commands_(registry_.GetCounter("esd_net_commands_total",
                                       "Text-mode commands executed")),
      m_scrapes_(registry_.GetCounter("esd_net_http_scrapes_total",
                                      "GET /metrics scrapes answered")),
      m_backpressure_(registry_.GetCounter(
          "esd_net_backpressure_closes_total",
          "Connections closed for exceeding the output-buffer cap")),
      m_read_errors_(registry_.GetCounter(
          "esd_net_read_errors_total",
          "Socket read failures (incl. injected faults)")),
      m_write_errors_(registry_.GetCounter(
          "esd_net_write_errors_total",
          "Socket write failures (incl. injected faults)")),
      m_bytes_read_(registry_.GetCounter("esd_net_bytes_read_total",
                                         "Payload bytes read from sockets")),
      m_bytes_written_(registry_.GetCounter(
          "esd_net_bytes_written_total", "Payload bytes written to sockets")),
      m_connections_(registry_.GetGauge("esd_net_connections",
                                        "Currently open connections")),
      m_inflight_(registry_.GetGauge(
          "esd_net_inflight",
          "Wire queries submitted and not yet answered")) {}

NetServer::~NetServer() { Shutdown(); }

bool NetServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
    listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
    return false;
  };
  poller_ = Poller::Create(options_.force_poll, error);
  if (poller_ == nullptr) return false;

  int pipefd[2];
  if (::pipe(pipefd) != 0) return fail("pipe");
  wake_read_fd_ = pipefd[0];
  wake_write_fd_ = pipefd[1];
  if (!SetNonBlocking(wake_read_fd_) || !SetNonBlocking(wake_write_fd_)) {
    return fail("wake pipe fcntl");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_)) return fail("listener fcntl");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  poller_->Add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->Add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false);
  started_.store(true);
  loop_ = std::thread([this] { LoopThread(); });
  return true;
}

const char* NetServer::backend_name() const {
  return poller_ != nullptr ? poller_->backend_name() : "unstarted";
}

void NetServer::RequestShutdown() {
  shutdown_requested_.store(true);
  Wake();
}

void NetServer::Join() {
  if (loop_.joinable()) loop_.join();
}

void NetServer::Shutdown() {
  if (!started_.load()) return;
  RequestShutdown();
  if (loop_.joinable()) loop_.join();
  if (stopped_.exchange(true)) return;
  // A force-closed connection (backpressure, fault injection, drain
  // timeout) does not cancel the service requests it already submitted:
  // their completion callbacks still hold `this`. The loop is joined, so
  // the count can only fall — wait for the last callback's handoff before
  // letting the destructor run.
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock,
                      [this] { return callback_handoff_.load() == 0; });
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
}

NetServer::Stats NetServer::SnapStats() const {
  Stats s;
  s.accepts = m_accepts_.Value();
  s.accept_errors = m_accept_errors_.Value();
  s.closed = m_closed_.Value();
  s.parse_errors = m_parse_errors_.Value();
  s.queries = m_queries_.Value();
  s.commands = m_commands_.Value();
  s.scrapes = m_scrapes_.Value();
  s.backpressure_closes = m_backpressure_.Value();
  s.read_errors = m_read_errors_.Value();
  s.write_errors = m_write_errors_.Value();
  s.bytes_read = m_bytes_read_.Value();
  s.bytes_written = m_bytes_written_.Value();
  s.open_connections = open_connections_.load();
  s.inflight = inflight_.load();
  return s;
}

void NetServer::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // Nonblocking: a full pipe already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void NetServer::DrainWakePipe() {
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

void NetServer::MarkDirty(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  Wake();
}

void NetServer::LoopThread() {
  obs::Tracer::Global().SetCurrentThreadName("net-loop");
  std::vector<Poller::Event> events;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;
  while (true) {
    if (shutdown_requested_.load() && !draining) {
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       options_.drain_timeout;
      if (listen_fd_ >= 0) {
        poller_->Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop reading: requests already decoded keep draining, new bytes
      // stay in the kernel and die with the connection.
      for (auto& [fd, conn] : conns_) {
        conn->reading = false;
        UpdateInterest(conn);
      }
    }
    if (draining) {
      std::vector<std::shared_ptr<Conn>> open;
      open.reserve(conns_.size());
      for (auto& [fd, conn] : conns_) open.push_back(conn);
      for (const std::shared_ptr<Conn>& conn : open) {
        bool idle;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          idle = conn->slots.empty() && conn->inflight == 0;
        }
        if (idle && conn->out_off == conn->outbox.size()) {
          CloseConn(conn, /*backpressure=*/false);
        }
      }
      // Past the drain budget, the loop exit below force-closes the rest.
      if (conns_.empty() || std::chrono::steady_clock::now() > drain_deadline) {
        break;
      }
    }
    const int timeout_ms = draining ? 20 : -1;
    if (poller_->Wait(&events, timeout_ms) < 0) break;
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_read_fd_) {
        DrainWakePipe();
        continue;
      }
      if (ev.fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      std::shared_ptr<Conn> conn = it->second;
      if (ev.readable || ev.error) HandleRead(conn);
      // HandleRead may have closed the connection; re-check.
      if (ev.writable && conns_.count(ev.fd) != 0) HandleWrite(conn);
    }
    // Completions staged by worker threads since the last pass.
    std::vector<std::shared_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (const std::shared_ptr<Conn>& conn : dirty) {
      bool gone;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        gone = conn->closed;
      }
      if (!gone) FlushSlots(conn);
    }
  }
  // Loop exit: close whatever survived (wait error or drain timeout path
  // already closed everything on the normal path).
  std::vector<std::shared_ptr<Conn>> rest;
  for (auto& [fd, conn] : conns_) rest.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : rest) {
    CloseConn(conn, /*backpressure=*/false);
  }
  if (listen_fd_ >= 0) {
    poller_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void NetServer::AcceptReady() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      m_accept_errors_.Inc();
      return;
    }
    // Chaos coverage: an injected accept fault drops the connection on the
    // floor exactly like a transient kernel-side failure would.
    if (ESD_FAILPOINT("net.accept").fired) {
      m_accept_errors_.Inc();
      ::close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      m_accept_errors_.Inc();
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      m_accept_errors_.Inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(options_.max_frame_bytes);
    conn->fd = fd;
    poller_->Add(fd, /*want_read=*/true, /*want_write=*/false);
    conns_.emplace(fd, std::move(conn));
    m_accepts_.Inc();
    open_connections_.store(conns_.size());
    m_connections_.Set(static_cast<double>(conns_.size()));
  }
}

void NetServer::HandleRead(const std::shared_ptr<Conn>& conn) {
  if (const fault::FaultHit hit = ESD_FAILPOINT("net.read"); hit.fired) {
    // Injected read fault: indistinguishable from ECONNRESET — drop the
    // connection, keep the loop serving everyone else.
    m_read_errors_.Inc();
    CloseConn(conn, /*backpressure=*/false);
    return;
  }
  char buf[64 * 1024];
  // One read per readiness event: level-triggered polling re-signals if
  // more bytes remain, and bounded reads keep one firehose connection from
  // starving the rest of the loop.
  ssize_t n;
  do {
    n = ::read(conn->fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    m_read_errors_.Inc();
    CloseConn(conn, /*backpressure=*/false);
    return;
  }
  if (n == 0) {
    conn->read_eof = true;
    conn->reading = false;
    UpdateInterest(conn);
  } else {
    m_bytes_read_.Inc(static_cast<uint64_t>(n));
    if (conn->mode == ConnMode::kBinary) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
    } else {
      conn->inbuf.append(buf, static_cast<size_t>(n));
    }
  }
  ProcessInput(conn);
}

void NetServer::ProcessInput(const std::shared_ptr<Conn>& conn) {
  if (conn->mode == ConnMode::kUnknown) {
    const ConnMode mode = DetectMode(conn->inbuf);
    if (mode == ConnMode::kUnknown) {
      if (conn->read_eof) CloseConn(conn, /*backpressure=*/false);
      return;  // fewer than 4 bytes of a "GET " prefix: keep sniffing
    }
    conn->mode = mode;
    if (mode == ConnMode::kBinary) {
      conn->decoder.Feed(conn->inbuf);
      conn->inbuf.clear();
      conn->inbuf.shrink_to_fit();
    }
  }
  switch (conn->mode) {
    case ConnMode::kBinary:
      ProcessBinary(conn);
      break;
    case ConnMode::kText:
      ProcessText(conn);
      break;
    case ConnMode::kHttp:
      ProcessHttp(conn);
      break;
    case ConnMode::kUnknown:
      break;
  }
  FlushSlots(conn);
}

void NetServer::ProcessBinary(const std::shared_ptr<Conn>& conn) {
  while (conn->reading || conn->read_eof) {
    Frame frame;
    const WireStatus status = conn->decoder.Next(&frame);
    if (status == WireStatus::kNeedMore) break;
    if (status != WireStatus::kOk) {
      // Unsynchronizable stream: answer one typed error frame and hang up.
      m_parse_errors_.Inc();
      ReplyLocal(conn,
                 EncodeError(WireErrorFor(status), WireStatusName(status)),
                 /*then_close=*/true);
      break;
    }
    switch (frame.type) {
      case FrameType::kPing: {
        ReplyLocal(conn, EncodeFrame(FrameType::kPong, ""));
        break;
      }
      case FrameType::kQuery: {
        QueryFrame q;
        if (DecodeQuery(frame.payload, &q) != WireStatus::kOk) {
          m_parse_errors_.Inc();
          ReplyLocal(conn, EncodeError(WireError::kBadPayload, "bad query"),
                     /*then_close=*/true);
          break;
        }
        serve::QueryRequest rq;
        rq.k = q.k;
        rq.tau = q.tau;
        rq.pad_with_zero_edges = q.pad_with_zero_edges != 0;
        rq.deadline_us = q.deadline_us;
        rq.arrival_ns = obs::MonotonicNanos();
        SubmitQuery(conn, rq, q.cid, /*binary=*/true);
        break;
      }
      default: {
        // Server->client frame types coming *from* a client are protocol
        // violations.
        m_parse_errors_.Inc();
        ReplyLocal(conn,
                   EncodeError(WireError::kBadType,
                               "client sent a server frame type"),
                   /*then_close=*/true);
        break;
      }
    }
    if (conn->want_close) break;
  }
  if (conn->read_eof && conn->decoder.buffered_bytes() == 0) {
    conn->want_close = true;
  }
}

void NetServer::ProcessText(const std::shared_ptr<Conn>& conn) {
  while (true) {
    const size_t nl = conn->inbuf.find('\n');
    if (nl == std::string::npos) {
      if (conn->inbuf.size() > options_.max_line_bytes) {
        m_parse_errors_.Inc();
        ReplyLocal(conn, "ERR line too long\n", /*then_close=*/true);
      } else if (conn->read_eof && !conn->inbuf.empty()) {
        // Final unterminated line: the stdin loop serves it too.
        std::string line(std::move(conn->inbuf));
        conn->inbuf.clear();
        if (!line.empty() && line.back() == '\r') line.pop_back();
        HandleTextLine(conn, line);
      }
      break;
    }
    std::string line = conn->inbuf.substr(0, nl);
    conn->inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    HandleTextLine(conn, line);
    if (conn->want_close) break;
  }
  if (conn->read_eof && conn->inbuf.empty()) conn->want_close = true;
}

void NetServer::HandleTextLine(const std::shared_ptr<Conn>& conn,
                               const std::string& line) {
  const size_t first = line.find_first_not_of(kTextSpace);
  if (first == std::string::npos) return;  // blank line: ignore, like stdin
  const size_t word_end =
      std::min(line.find_first_of(kTextSpace, first), line.size());
  if (line.compare(first, word_end - first, "QUERY") == 0) {
    serve::QueryRequest rq;
    if (!ParseQueryArgs(std::string_view(line).substr(word_end), &rq)) {
      ReplyLocal(conn, std::string(kQueryUsage));
      return;
    }
    rq.arrival_ns = obs::MonotonicNanos();
    SubmitQuery(conn, rq, /*cid=*/0, /*binary=*/false);
    return;
  }
  m_commands_.Inc();
  std::string out;
  const bool keep_open = handlers_.command ? handlers_.command(line, &out)
                                           : false;
  ReplyLocal(conn, std::move(out), /*then_close=*/!keep_open);
}

void NetServer::ProcessHttp(const std::shared_ptr<Conn>& conn) {
  const size_t head_end = conn->inbuf.find("\r\n\r\n");
  const size_t line_end = conn->inbuf.find('\n');
  // HTTP/1.0 GETs have no body; the request line alone is enough to route.
  if (head_end == std::string::npos && line_end == std::string::npos) {
    if (conn->inbuf.size() > options_.max_http_bytes || conn->read_eof) {
      m_parse_errors_.Inc();
      CloseConn(conn, /*backpressure=*/false);
    }
    return;
  }
  const std::string request_line = conn->inbuf.substr(
      0, line_end == std::string::npos ? conn->inbuf.size() : line_end);
  conn->inbuf.clear();
  conn->reading = false;
  UpdateInterest(conn);
  std::string response;
  if (request_line.rfind("GET /metrics", 0) == 0) {
    m_scrapes_.Inc();
    const std::string body =
        handlers_.metrics_text ? handlers_.metrics_text() : "";
    response = HttpResponse(200, "OK", body);
  } else {
    response = HttpResponse(404, "Not Found", "not found\n");
  }
  ReplyLocal(conn, std::move(response), /*then_close=*/true);
}

void NetServer::SubmitQuery(const std::shared_ptr<Conn>& conn,
                            const serve::QueryRequest& request,
                            uint64_t cid, bool binary) {
  uint64_t slot_seq;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->slots.emplace_back();
    slot_seq = conn->next_seq++;
    ++conn->inflight;
  }
  m_queries_.Inc();
  m_inflight_.Set(static_cast<double>(inflight_.fetch_add(1) + 1));
  callback_handoff_.fetch_add(1);
  // The callback owns a shared_ptr: the Conn object outlives the service's
  // answer even if the socket dies first (the bytes are then dropped under
  // conn->closed, and no Pending ever dangles).
  handlers_.submit(request, [this, conn, slot_seq, cid,
                             binary](serve::QueryResponse resp) {
    std::string bytes;
    if (binary) {
      QueryResultFrame result;
      result.cid = cid;
      result.status = static_cast<uint8_t>(resp.status);
      result.rid = resp.ctx.request_id;
      result.epoch = resp.ctx.epoch;
      result.edges.reserve(resp.result.size());
      for (const auto& scored : resp.result) {
        result.edges.push_back(ResultEdge{scored.edge.u, scored.edge.v,
                                          scored.score});
      }
      bytes = EncodeQueryResult(result);
    } else {
      bytes = handlers_.format_query ? handlers_.format_query(resp)
                                     : std::string("OK\n");
    }
    bool deliver = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->inflight;
      if (!conn->closed) {
        const uint64_t idx = slot_seq - conn->base_seq;
        if (idx < conn->slots.size()) {
          conn->slots[idx].ready = true;
          conn->slots[idx].bytes = std::move(bytes);
          conn->slot_bytes += conn->slots[idx].bytes.size();
        }
        deliver = true;
      }
    }
    // Retire the stats count before the response is staged: by the time a
    // client can observe its answer, inflight is already back down.
    m_inflight_.Set(static_cast<double>(inflight_.fetch_sub(1) - 1));
    if (deliver) MarkDirty(conn);
    // Last touch of the server: once the handoff count under inflight_mu_
    // hits zero and the lock is released, Shutdown() may return and
    // destroy this object — nothing below may dereference `this`.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      if (callback_handoff_.fetch_sub(1) == 1) inflight_cv_.notify_all();
    }
  });
}

void NetServer::ReplyLocal(const std::shared_ptr<Conn>& conn,
                           std::string bytes, bool then_close) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->slot_bytes += bytes.size();
    conn->slots.push_back(Conn::Slot{true, std::move(bytes)});
    ++conn->next_seq;
  }
  if (then_close) {
    conn->want_close = true;
    conn->reading = false;
    UpdateInterest(conn);
  }
}

void NetServer::FlushSlots(const std::shared_ptr<Conn>& conn) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->slots.empty() && conn->slots.front().ready) {
      conn->slot_bytes -= conn->slots.front().bytes.size();
      conn->outbox += conn->slots.front().bytes;
      conn->slots.pop_front();
      ++conn->base_seq;
    }
    const size_t pending =
        (conn->outbox.size() - conn->out_off) + conn->slot_bytes;
    overflow = pending > options_.max_output_bytes;
  }
  if (overflow) {
    // The client stopped reading while responses kept accumulating: cut it
    // loose instead of letting one slow consumer hold response memory.
    m_backpressure_.Inc();
    CloseConn(conn, /*backpressure=*/true);
    return;
  }
  HandleWrite(conn);
}

void NetServer::HandleWrite(const std::shared_ptr<Conn>& conn) {
  if (conn->out_off < conn->outbox.size()) {
    if (const fault::FaultHit hit = ESD_FAILPOINT("net.write"); hit.fired) {
      m_write_errors_.Inc();
      CloseConn(conn, /*backpressure=*/false);
      return;
    }
  }
  while (conn->out_off < conn->outbox.size()) {
    ssize_t n;
    do {
      n = ::write(conn->fd, conn->outbox.data() + conn->out_off,
                  conn->outbox.size() - conn->out_off);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      m_write_errors_.Inc();
      CloseConn(conn, /*backpressure=*/false);
      return;
    }
    conn->out_off += static_cast<size_t>(n);
    m_bytes_written_.Inc(static_cast<uint64_t>(n));
  }
  if (conn->out_off == conn->outbox.size()) {
    conn->outbox.clear();
    conn->out_off = 0;
  } else if (conn->out_off > (1u << 20)) {
    conn->outbox.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  UpdateInterest(conn);
  // Close-after-flush: everything reserved was answered and written.
  bool idle;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    idle = conn->slots.empty() && conn->inflight == 0;
  }
  if (idle && conn->outbox.empty() && (conn->want_close || conn->read_eof)) {
    CloseConn(conn, /*backpressure=*/false);
  }
}

void NetServer::UpdateInterest(const std::shared_ptr<Conn>& conn) {
  const bool want_read = conn->reading;
  const bool want_write = conn->out_off < conn->outbox.size();
  if (want_read == conn->armed_read && want_write == conn->armed_write) {
    return;
  }
  conn->armed_read = want_read;
  conn->armed_write = want_write;
  poller_->Update(conn->fd, want_read, want_write);
}

void NetServer::CloseConn(const std::shared_ptr<Conn>& conn,
                          bool backpressure) {
  (void)backpressure;  // counted by the caller; parameter documents intent
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    conn->slots.clear();
    conn->slot_bytes = 0;
  }
  poller_->Remove(conn->fd);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  m_closed_.Inc();
  open_connections_.store(conns_.size());
  m_connections_.Set(static_cast<double>(conns_.size()));
}

}  // namespace esd::net
