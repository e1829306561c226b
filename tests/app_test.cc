// Server command table tests: every verb in static and live serving,
// pinning the reply bytes the smoke scripts grep for, plus the ordered teardown when the listener cannot start. Suites
// are named ServeNet* so the CI TSan and chaos -R filters pick them up.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "app/server_app.h"
#include "obs/trace.h"
#include "tests/server_app_fixture.h"

namespace esd {
namespace {

using test::ScratchServer;

constexpr const char* kQueryUsage = "ERR usage: QUERY <k> <tau>\n";
constexpr const char* kNotLive = "ERR updates need --live-dir\n";
constexpr const char* kNoRefreeze = "ERR refreeze needs --live-dir\n";
constexpr const char* kUnknownCommand =
    "ERR unknown command (QUERY/INSERT/DELETE/CHECKPOINT/REFREEZE/"
    "STATS/METRICS/SLOWLOG/HISTORY/FAILPOINT/TRACE/QUIT)\n";

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool Contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

// The verbs whose replies do not depend on the serving mode.
void ExpectModeIndependentVerbs(ScratchServer& server) {
  const std::string query = server.Run("QUERY 3 2");
  EXPECT_TRUE(StartsWith(query, "OK ok 3 edges, queue ")) << query;
  EXPECT_TRUE(Contains(query, "\n  rid=")) << query;
  EXPECT_TRUE(Contains(query, " stages[us]: queue_wait=")) << query;
  // One parser on both front ends: negative, overflowing, non-numeric or
  // missing values and stray tokens are usage errors.
  for (const char* bad :
       {"QUERY", "QUERY 3", "QUERY -1 2", "QUERY 3 -2", "QUERY 4294967296 2",
        "QUERY +3 2", "QUERY 3 2x", "QUERY abc 2", "QUERY 3 2 LOOSE",
        "QUERY 3 2 STRICT", "QUERY 3 2 STRICT extra"}) {
    EXPECT_EQ(server.Run(bad), kQueryUsage) << bad;
  }
  const std::string stats = server.Run("STATS");
  EXPECT_TRUE(StartsWith(stats, "OK accepted=")) << stats;
  EXPECT_TRUE(EndsWith(stats, " scorer=esd health=ok\n")) << stats;
  const std::string metrics = server.Run("METRICS");
  EXPECT_TRUE(Contains(metrics, "# TYPE esd_serve_completed_total counter"));
  EXPECT_TRUE(Contains(metrics, "esd_engine_queries"));
  EXPECT_TRUE(EndsWith(metrics, "# EOF\n"));
  // GET /metrics renders through the same function.
  const std::string scrape = server.app().MetricsText();
  EXPECT_TRUE(Contains(scrape, "# TYPE esd_serve_completed_total counter"));
  EXPECT_TRUE(EndsWith(scrape, "# EOF\n"));
  const std::string slowlog = server.Run("SLOWLOG 5");
  EXPECT_TRUE(StartsWith(slowlog, "OK slowlog ")) << slowlog;
  EXPECT_TRUE(Contains(slowlog, "\"rid\"")) << slowlog;
  const std::string history = server.Run("HISTORY 3");
  EXPECT_TRUE(StartsWith(history, "OK history ")) << history;
  EXPECT_TRUE(Contains(history, "\"qps\"")) << history;
  EXPECT_TRUE(EndsWith(server.Run("HISTORY PROM"), "# EOF\n"));
  EXPECT_EQ(server.Run("FAILPOINT"),
            "ERR usage: FAILPOINT <name> <spec> | FAILPOINT LIST | "
            "FAILPOINT clearall\n");
  EXPECT_EQ(server.Run("FAILPOINT wal.append"),
            "ERR usage: FAILPOINT <name> <spec>\n");
  EXPECT_TRUE(StartsWith(
      server.Run("FAILPOINT wal.append nth(99999999999999999999)"), "ERR "));
  EXPECT_TRUE(StartsWith(server.Run("FAILPOINT LIST"), "OK "));
  EXPECT_EQ(server.Run("FAILPOINT clearall"), "OK fail points cleared\n");
  EXPECT_EQ(server.Run("TRACE"), "ERR usage: TRACE <path>\n");
  const std::string trace_path = server.Path("trace.json");
  EXPECT_EQ(server.Run("TRACE " + trace_path),
            ESD_OBS_TRACING ? "OK trace written to " + trace_path + "\n"
                            : "ERR tracing compiled out (ESD_OBS=OFF)\n");
  EXPECT_EQ(server.Run("NOPE"), kUnknownCommand);
  EXPECT_EQ(server.Run("SHARDS"), kUnknownCommand);
  EXPECT_EQ(server.Run(""), "");
  EXPECT_EQ(server.Run(" \t\r"), "");
  std::string out;
  EXPECT_FALSE(server.app().Execute("QUIT", &out));
  EXPECT_FALSE(server.app().Execute("  EXIT", &out));
  EXPECT_EQ(out, "");
}

TEST(ServeNetCommandTest, StaticModeVerbs) {
  ScratchServer server("static");
  ASSERT_TRUE(server.Open());
  EXPECT_EQ(server.app().EngineName(), "frozen");
  ExpectModeIndependentVerbs(server);
  EXPECT_EQ(server.Run("INSERT 1 2"), kNotLive);
  EXPECT_EQ(server.Run("DELETE 1 2"), kNotLive);
  EXPECT_EQ(server.Run("INSERT"), kNotLive);  // mode checked before args
  EXPECT_EQ(server.Run("CHECKPOINT"), "ERR checkpoint needs --live-dir\n");
  EXPECT_EQ(server.Run("REFREEZE"), kNoRefreeze);
}

TEST(ServeNetCommandTest, LiveModeVerbs) {
  ScratchServer server("live");
  server.config.live_dir = server.Path("live");
  ASSERT_TRUE(server.Open());
  EXPECT_EQ(server.app().EngineName(), "live");
  ExpectModeIndependentVerbs(server);
  EXPECT_TRUE(StartsWith(server.Run("INSERT 1 2"), "OK seq=1 wal_bytes="));
  EXPECT_TRUE(StartsWith(server.Run("DELETE 1 2"), "OK seq=2 wal_bytes="));
  EXPECT_EQ(server.Run("INSERT 1"), "ERR usage: INSERT <u> <v>\n");
  EXPECT_EQ(server.Run("DELETE x y"), "ERR usage: DELETE <u> <v>\n");
  EXPECT_TRUE(StartsWith(server.Run("INSERT 1 99999999"), "ERR bounds "));
  // A checkpoint compacts the WAL to its 12-byte header.
  EXPECT_TRUE(StartsWith(server.Run("CHECKPOINT"),
                         "OK seq=2 wal_bytes=12 epoch="));
  EXPECT_EQ(server.Run("REFREEZE"), "OK refrozen\n");
  EXPECT_TRUE(Contains(server.Run("STATS"), " live_seq=2 "));
  EXPECT_TRUE(Contains(server.Run("METRICS"), "esd_live_"));
}

// A live dir in the retired layout (one WAL per shard under shard-<i>/,
// none at the top) is refused typed: opening one WAL over it would
// bootstrap from the graph and drop every write those logs acknowledged.
TEST(ServeNetCommandTest, RetiredShardLayoutIsRefused) {
  ScratchServer server("retired_layout");
  const std::filesystem::path fleet = server.Path("fleet");
  std::filesystem::create_directories(fleet / "shard-0");
  std::ofstream(fleet / "shard-0" / "wal.log") << "acknowledged writes";
  server.config.live_dir = fleet.string();
  testing::internal::CaptureStderr();
  EXPECT_EQ(server.TryOpen(), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(Contains(err, "retired per-shard layout")) << err;
  EXPECT_FALSE(std::filesystem::exists(fleet / "wal.bin"));
  EXPECT_TRUE(std::filesystem::exists(fleet / "shard-0" / "wal.log"));
}

// A listener that cannot bind must still tear down in order. Every write
// queues a background refreeze whose publish calls the epoch listener, so
// the listener has to be gone before the service is (ASan reports the
// use-after-free otherwise).
TEST(ServeNetCommandTest, LiveListenOnBusyPortExitsCleanly) {
  const int busy = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(busy, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(busy, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(busy, 1), 0);
  ASSERT_EQ(::getsockname(busy, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  {
    ScratchServer server("busy_port");
    server.config.live_dir = server.Path("live");
    server.config.refreeze_every = 1;
    server.config.cache_bytes = 1 << 20;
    server.config.listen = true;
    server.config.port = ntohs(addr.sin_port);
    ASSERT_TRUE(server.Open());
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(StartsWith(server.Run("INSERT " + std::to_string(i) + " " +
                                        std::to_string(i + 40)),
                             "OK seq="));
    }
    std::istringstream no_input;
    EXPECT_EQ(server.app().Serve(no_input), 1);
  }
  ::close(busy);
}

}  // namespace
}  // namespace esd
