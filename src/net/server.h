#ifndef ESD_NET_SERVER_H_
#define ESD_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/query_service.h"

namespace esd::net {

/// Usage reply to a malformed text-mode QUERY line.
inline constexpr std::string_view kQueryUsage =
    "ERR usage: QUERY <k> <tau>\n";

/// Parses the arguments of a text-mode `QUERY <k> <tau>` line
/// (everything after the verb) into *request: the one parser behind the
/// socket text mode and esd_server's stdin executor. k and tau are
/// unsigned 32-bit decimals. False on a negative, overflowing, non-numeric
/// or missing value, or on anything else after them.
bool ParseQueryArgs(std::string_view args, serve::QueryRequest* request);

/// Network front end of the serving stack: one non-blocking event-loop
/// thread (epoll, poll fallback) owning a listener plus per-connection
/// state machines. Three protocols share the port, auto-detected from the
/// first bytes of each connection:
///
///   binary  — the length-prefixed frame protocol of net/wire.h (first
///             byte 0xE5); queries are decoded and fed to the submit
///             handler (the EsdQueryService admission queue), responses
///             come back through completion callbacks on worker threads.
///   text    — newline-delimited commands, line-compatible with the
///             esd_server stdin loop, so existing QUERY/STATS/METRICS
///             smoke scripts work unchanged over `nc`.
///   http    — minimal HTTP/1.0: `GET /metrics` answers a Prometheus
///             scrape with the registry exposition and closes.
///
/// Ordering: every request on a connection — sync command or async query —
/// reserves an output slot at parse time, and slots flush strictly in
/// reservation order, so pipelined clients see responses in request order
/// even though queries complete out of order across service batches.
///
/// Backpressure: responses accumulate in a bounded per-connection output
/// buffer; a client that stops reading past Options::max_output_bytes is
/// disconnected (esd_net_backpressure_closes_total) rather than allowed to
/// hold response memory hostage.
///
/// The loop never blocks on a query: decoded requests go to the submit
/// handler and return immediately; completions re-enter through a wake
/// pipe. A slow or dead connection therefore never stalls the others.
class NetServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
    uint16_t port = 0;
    /// Accepts beyond this many open connections are closed immediately.
    size_t max_connections = 1024;
    /// Hard cap a binary frame's length prefix is checked against before
    /// any payload is buffered.
    uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Text-mode line cap; a longer line without a newline is a protocol
    /// error (the connection is closed with an ERR line).
    size_t max_line_bytes = 4096;
    /// HTTP request-head cap (request line + headers).
    size_t max_http_bytes = 8192;
    /// Per-connection output-buffer cap; exceeding it is a backpressure
    /// close.
    size_t max_output_bytes = 4u << 20;
    /// Use the portable poll backend even where epoll is available.
    bool force_poll = false;
    /// Graceful-shutdown budget: how long Shutdown() lets in-flight
    /// queries drain and outboxes flush before force-closing.
    std::chrono::milliseconds drain_timeout{5000};
    /// Registry for esd_net_* metrics; null = obs::MetricRegistry::Global().
    obs::MetricRegistry* registry = nullptr;
  };

  /// Async query path: implementations submit to the admission queue and
  /// invoke the callback exactly once, from any thread, when the response
  /// is ready (including rejected/shutdown bounces).
  using SubmitFn = std::function<void(
      const serve::QueryRequest&, std::function<void(serve::QueryResponse)>)>;
  /// Text-mode command execution (every non-blank line except QUERY).
  /// Returns false to close the connection after the reply flushes (QUIT).
  using CommandFn = std::function<bool(const std::string& line,
                                       std::string* out)>;
  /// Renders a text-mode QUERY response (the stdin loop's format).
  using TextResponseFn =
      std::function<std::string(const serve::QueryResponse&)>;
  /// Body of a GET /metrics scrape (Prometheus text exposition).
  using MetricsFn = std::function<std::string()>;

  struct Handlers {
    SubmitFn submit;
    CommandFn command;
    TextResponseFn format_query;
    MetricsFn metrics_text;
  };

  /// Monotonic counters + point gauges, mirrored on the registry as
  /// esd_net_*; SnapStats() is for tests and STATS lines.
  struct Stats {
    uint64_t accepts = 0;
    uint64_t accept_errors = 0;
    uint64_t closed = 0;
    uint64_t parse_errors = 0;
    uint64_t queries = 0;
    uint64_t commands = 0;
    uint64_t scrapes = 0;
    uint64_t backpressure_closes = 0;
    uint64_t read_errors = 0;
    uint64_t write_errors = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t open_connections = 0;
    uint64_t inflight = 0;
  };

  NetServer(Handlers handlers, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread. False with *error
  /// set on socket/bind/listen failure.
  bool Start(std::string* error);

  /// Graceful shutdown: stop accepting, stop reading, let in-flight
  /// queries complete and outboxes flush (up to drain_timeout), close
  /// everything, join the loop. Idempotent; called by the destructor.
  void Shutdown();

  /// Flags the loop to begin the Shutdown() drain without joining — safe
  /// to call from any thread (one atomic store + one pipe write), so a
  /// signal-handler-adjacent path can trigger the drain and the owner
  /// joins later via Shutdown().
  void RequestShutdown();

  /// Blocks until the loop thread exits — i.e. until RequestShutdown is
  /// called (e.g. from a signal handler) and the drain completes. Lets
  /// esd_server keep serving after stdin hits EOF. Call Shutdown()
  /// afterwards to release the wake pipe.
  void Join();

  /// The bound port (resolves Options::port == 0), valid after Start().
  uint16_t port() const { return port_; }
  /// "epoll" or "poll", valid after Start().
  const char* backend_name() const;

  Stats SnapStats() const;

 private:
  struct Conn;

  void LoopThread();
  void AcceptReady();
  void HandleRead(const std::shared_ptr<Conn>& conn);
  void HandleWrite(const std::shared_ptr<Conn>& conn);
  void ProcessInput(const std::shared_ptr<Conn>& conn);
  void ProcessBinary(const std::shared_ptr<Conn>& conn);
  void ProcessText(const std::shared_ptr<Conn>& conn);
  void ProcessHttp(const std::shared_ptr<Conn>& conn);
  void HandleTextLine(const std::shared_ptr<Conn>& conn,
                      const std::string& line);
  /// Reserves the query's ordered output slot and submits it; the
  /// completion fills the slot from a worker thread.
  void SubmitQuery(const std::shared_ptr<Conn>& conn,
                   const serve::QueryRequest& request, uint64_t cid,
                   bool binary);
  /// Appends a ready reply slot (loop thread: sync replies). With
  /// `then_close`, stops reading and closes once everything has flushed.
  void ReplyLocal(const std::shared_ptr<Conn>& conn, std::string bytes,
                  bool then_close = false);
  /// Moves the ready prefix of the slot queue into the outbox; applies the
  /// backpressure cap; updates poller interest. Loop thread only.
  void FlushSlots(const std::shared_ptr<Conn>& conn);
  void UpdateInterest(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn, bool backpressure);
  void Wake();
  void DrainWakePipe();
  void MarkDirty(const std::shared_ptr<Conn>& conn);

  const Handlers handlers_;
  const Options options_;
  obs::MetricRegistry& registry_;

  // esd_net_* instruments (registered once in the constructor).
  obs::Counter& m_accepts_;
  obs::Counter& m_accept_errors_;
  obs::Counter& m_closed_;
  obs::Counter& m_parse_errors_;
  obs::Counter& m_queries_;
  obs::Counter& m_commands_;
  obs::Counter& m_scrapes_;
  obs::Counter& m_backpressure_;
  obs::Counter& m_read_errors_;
  obs::Counter& m_write_errors_;
  obs::Counter& m_bytes_read_;
  obs::Counter& m_bytes_written_;
  obs::Gauge& m_connections_;
  obs::Gauge& m_inflight_;

  std::unique_ptr<Poller> poller_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopped_{false};

  /// Loop-thread-owned connection table (fd -> state).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Connections with completions staged by worker threads, pending a
  /// loop-side FlushSlots. Guarded by dirty_mu_.
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Conn>> dirty_;

  /// Mirrors of the gauge values readable without the registry.
  std::atomic<uint64_t> open_connections_{0};
  std::atomic<uint64_t> inflight_{0};

  /// Completion callbacks still executing (one per submitted query, from
  /// submit until the callback's final statement). Distinct from inflight_:
  /// inflight_ is retired BEFORE the response is staged for delivery (so a
  /// client that has its answer never observes a stale nonzero count),
  /// while this handoff count is retired as the callback's LAST touch of
  /// the server. Shutdown() waits on the cv until it reaches zero — a
  /// callback can therefore never outlive the object it captured (a
  /// force-closed connection does not cancel its in-flight service
  /// requests).
  std::atomic<uint64_t> callback_handoff_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
};

}  // namespace esd::net

#endif  // ESD_NET_SERVER_H_
