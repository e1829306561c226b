#ifndef ESD_TESTS_SERVER_APP_FIXTURE_H_
#define ESD_TESTS_SERVER_APP_FIXTURE_H_

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "app/server_app.h"
#include "gen/barabasi_albert.h"
#include "graph/io.h"

namespace esd::test {

/// A ServerApp over a small Barabási–Albert graph, in a scratch directory
/// (edge list, live dirs) that is removed with the fixture. Set the config
/// fields that pick the serving mode before Open(); `file` is filled in.
class ScratchServer {
 public:
  explicit ScratchServer(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("esd_app_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    config.file = Path("graph.txt");
    config.threads = 2;
    config.history_interval_ms = 0;  // HISTORY samples on demand
  }
  ~ScratchServer() {
    app_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes the graph and opens the app; returns the exit code Open
  /// reported (0 when it opened).
  int TryOpen() {
    std::string error;
    EXPECT_TRUE(graph::SaveEdgeList(gen::BarabasiAlbert(150, 4, 3),
                                    config.file, &error))
        << error;
    int exit_code = 0;
    app_ = app::ServerApp::Open(config, &exit_code);
    return exit_code;
  }

  /// TryOpen, false (with a test failure) when the app does not open.
  bool Open() {
    const int exit_code = TryOpen();
    EXPECT_NE(app_, nullptr) << "exit code " << exit_code;
    return app_ != nullptr;
  }

  app::ServerApp& app() { return *app_; }

  /// One command line's reply.
  std::string Run(const std::string& line) {
    std::string out;
    EXPECT_TRUE(app_->Execute(line, &out)) << line;
    return out;
  }

  app::ServerConfig config;

 private:
  std::filesystem::path dir_;
  std::unique_ptr<app::ServerApp> app_;
};

}  // namespace esd::test

#endif  // ESD_TESTS_SERVER_APP_FIXTURE_H_
