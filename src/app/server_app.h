#ifndef ESD_APP_SERVER_APP_H_
#define ESD_APP_SERVER_APP_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <string>

#include "live/live_index.h"
#include "net/server.h"
#include "serve/query_service.h"

namespace esd::app {

/// Startup configuration of the server: one field per esd_server serving
/// flag (see esd_server --help).
struct ServerConfig {
  std::string file;     ///< edge-list graph source, or ...
  std::string dataset;  ///< ... a standard dataset name (exactly one)
  double scale = 1.0;
  std::string engine = "frozen";
  std::string scorer = "esd";
  std::string load_index;
  std::string live_dir;  ///< non-empty: live (or sharded-live) serving
  uint64_t refreeze_every = live::LiveOptions{}.refreeze_every;
  uint32_t shards = 1;  ///< >= 2: sharded serving
  unsigned threads = 0;  ///< 0 = util::ThreadPool::DefaultThreadCount()
  size_t max_queue = 1024;
  uint64_t deadline_us = 0;  ///< deadline of text-mode queries; 0 = none
  size_t cache_bytes = 0;    ///< 0 = result cache off
  size_t slowlog_capacity = 32;
  uint64_t history_interval_ms = 1000;  ///< 0 = no background sampler
  size_t history_samples = 120;
  bool listen = false;  ///< serve the commands over TCP too (src/net/)
  uint16_t port = 0;    ///< 0 = kernel-assigned ephemeral port
  std::string bind_address = "127.0.0.1";
  bool force_poll = false;
  uint64_t drain_timeout_ms = 5000;
};

/// What a ServerApp owns; defined in server_app.cc.
struct ServerState;

/// The server behind esd_server: a query service over the serving mode
/// the config selects (a static engine or a live index, either one
/// optionally read through a shard fleet), a metric history, and the text
/// command set, served from stdin and — with ServerConfig::listen — over
/// TCP. Commands dispatch through one table; handlers see the serving
/// mode only through an admin seam with one implementation per mode.
class ServerApp {
 public:
  /// Prints the startup lines, loads the graph, opens the serving mode and
  /// starts the service and history sampler. Null (after printing the
  /// error) with *exit_code set — 2 for usage errors, 1 for I/O — on
  /// failure.
  static std::unique_ptr<ServerApp> Open(const ServerConfig& config,
                                         int* exit_code);

  /// Tears down in dependency order, whatever path led here: drain the
  /// listener, detach the epoch listener (the refreeze pool can publish
  /// after the service is gone), stop the history sampler, stop the
  /// service, then drop the backends.
  ~ServerApp();
  ServerApp(const ServerApp&) = delete;
  ServerApp& operator=(const ServerApp&) = delete;

  serve::EsdQueryService& service();
  /// Engine label of the burst report ("frozen", "live", "sharded-live").
  std::string EngineName() const;
  /// Bytes of the currently served image(s).
  uint64_t MemoryBytes() const;

  /// Runs one text command line into *out. Returns false to end the
  /// session (QUIT/EXIT). Safe from the stdin loop and the net loop at
  /// once: every verb but QUERY is serialized.
  bool Execute(const std::string& line, std::string* out);

  /// Prometheus exposition, "# EOF"-terminated: the body of both METRICS
  /// and GET /metrics.
  std::string MetricsText();

  /// A query response in the text dialect.
  static std::string FormatQuery(const serve::QueryResponse& response);

  /// The socket front end's handlers: this executor, formatter and
  /// metrics text, with text-mode queries given the configured deadline.
  net::NetServer::Handlers NetHandlers();

  /// Starts the listener when configured, executes `in` line by line until
  /// EOF or QUIT, then (listening) serves until SIGINT/SIGTERM or a QUIT
  /// drains the socket. Returns the process exit code.
  int Serve(std::istream& in);

 private:
  explicit ServerApp(std::unique_ptr<ServerState> state);

  std::unique_ptr<ServerState> state_;
};

}  // namespace esd::app

#endif  // ESD_APP_SERVER_APP_H_
