// Exit-code audit + end-to-end drive of the serve verbs (docs/SERVING.md):
// cli_main is a pure function of (args, streams), so the whole audit runs
// in-process. Repo convention: 0 success, 1 runtime failure, 2 usage
// error with the usage text on stderr. Also covers the frame protocol
// (length-prefix round-trip, oversize refusal) and a full in-process
// BatchServer lifecycle: serve -> query_over_socket -> drain.
#include "serve/cli.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "scratch.h"
#include "serve/export.h"
#include "serve/index.h"
#include "serve/server.h"
#include "util/store.h"

namespace hbmrd::serve {
namespace {

struct CliResult {
  int code = -1;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args,
                  const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = cli_main(args, in, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// A small hand-built index (no simulation): chip 2 (identity mapping),
/// one Checkered0 rung for row 100 and a retention row.
std::string write_small_index(const std::string& path) {
  ExportSpec spec;
  spec.chip_index = 2;
  spec.hc_depth = 1;
  IndexBuilder builder(manifest_for(spec));
  builder.set_rung({0, 0, 0, 2, 0}, 100, 1, 54321);
  builder.set_retention({0, 0, 0, kRetentionPatternId, 0}, 100, 64.5);
  builder.write(*util::default_store(), path);
  return path;
}

TEST(ServeCli, UsageErrorsExitTwoWithUsageText) {
  const std::vector<std::vector<std::string>> bad = {
      {},                                            // no verb
      {"frobnicate"},                                // unknown verb
      {"export"},                                    // missing --index
      {"export", "--index", "x"},                    // neither source
      {"export", "--index", "x", "--measure", "--from-campaign", "y"},
      {"export", "--index", "x", "--measure"},       // missing --rows
      {"export", "--index", "x", "--measure", "--rows", "9..1"},
      {"export", "--index", "x", "--measure", "--rows", "1..2", "--chip",
       "9"},
      {"export", "--index"},                         // flag needs a value
      {"export", "--bogus"},                         // unknown flag
      {"query"},                                     // neither index/socket
      {"query", "--index", "a", "--socket", "b"},    // both
      {"query", "--socket", "s", "--force-miss"},    // local-only mode
      {"query", "--socket", "s", "--no-fallback"},
      {"serve", "--index", "x"},                     // missing --socket
      {"serve", "--socket", "s"},                    // missing --index
      {"serve", "--index", "x", "--socket", "s", "--threads", "0"},
      {"serve", "--index", "x", "--socket", "s", "--threads", "999"},
  };
  for (const auto& args : bad) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.code, 2) << "args[0]="
                              << (args.empty() ? "<none>" : args[0]);
    EXPECT_NE(result.err.find("usage:"), std::string::npos);
    EXPECT_TRUE(result.out.empty());
  }
}

TEST(ServeCli, RuntimeFailuresExitOne) {
  auto store = util::default_store();

  // Missing index file.
  auto result = run_cli({"query", "--index", scratch_path("missing.hbmidx")});
  EXPECT_EQ(result.code, 1);
  EXPECT_FALSE(result.err.empty());

  // Corrupt index: actionable message, never served.
  const auto corrupt = scratch_path("corrupt.hbmidx");
  store->atomic_replace(corrupt, "HBMIDX1\nbut the rest is garbage");
  result = run_cli({"query", "--index", corrupt});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("refusing to serve"), std::string::npos);

  // Unreachable server.
  result = run_cli({"query", "--socket", scratch_path("nobody.sock")});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("no server"), std::string::npos);

  // Valid index, missing batch file.
  const auto index_path = write_small_index(scratch_path("ok.hbmidx"));
  result = run_cli({"query", "--index", index_path, "--batch",
                    scratch_path("missing.batch")});
  EXPECT_EQ(result.code, 1);

  store->remove(corrupt);
  store->remove(index_path);
}

TEST(ServeCli, QueryServesHandBuiltIndexAndWritesMetrics) {
  const auto index_path = write_small_index(scratch_path("query.hbmidx"));
  const auto metrics_path = scratch_path("query.metrics.json");

  const auto hit = run_cli({"query", "--index", index_path, "--no-fallback",
                            "--metrics-out", metrics_path},
                           "hc_first 0 0 0 100 Checkered0\n"
                           "min_retention 0 0 0 100\n");
  EXPECT_EQ(hit.code, 0) << hit.err;
  EXPECT_EQ(hit.out,
            "hc_first,0,0,0,100,Checkered0,0,54321\n"
            "min_retention,0,0,0,100,64.5\n");

  auto store = util::default_store();
  const auto metrics = store->read(metrics_path);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("serve.index_hits"), std::string::npos);
  EXPECT_NE(metrics->find("serve.queries"), std::string::npos);

  store->remove(index_path);
  store->remove(metrics_path);
}

TEST(ServeCli, ExportMeasureThenQueryHitEqualsForcedMiss) {
  // The full loop through the real binary surface: measure a one-row
  // index, then assert the CLI-level byte-identity between an index hit
  // and --force-miss live simulation of the same query.
  const auto index_path = scratch_path("measured.hbmidx");
  const auto exported = run_cli({"export", "--index", index_path,
                                 "--measure", "--chip", "2", "--hc-depth",
                                 "1", "--rows", "4300..4300", "--patterns",
                                 "Checkered0", "--retention"});
  ASSERT_EQ(exported.code, 0) << exported.err;
  EXPECT_NE(exported.out.find("export: wrote"), std::string::npos);

  const std::string batch =
      "hc_first 0 0 0 4300 Checkered0\n"
      "min_retention 0 0 0 4300\n";
  const auto hit =
      run_cli({"query", "--index", index_path, "--no-fallback"}, batch);
  ASSERT_EQ(hit.code, 0) << hit.err;
  EXPECT_EQ(hit.out.find("error"), std::string::npos) << hit.out;

  const auto miss =
      run_cli({"query", "--index", index_path, "--force-miss"}, batch);
  ASSERT_EQ(miss.code, 0) << miss.err;
  EXPECT_EQ(hit.out, miss.out)
      << "CLI hit path and forced-miss path disagree";

  util::default_store()->remove(index_path);
}

TEST(ServeCli, FrameProtocolRoundTripsAndRefusesOversizedLengths) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ASSERT_TRUE(write_frame(fds[0], "hc_first 0 0 0 100 Checkered0\n"));
  ASSERT_TRUE(write_frame(fds[0], ""));  // empty frames are legal
  std::string payload;
  ASSERT_TRUE(read_frame(fds[1], payload));
  EXPECT_EQ(payload, "hc_first 0 0 0 100 Checkered0\n");
  ASSERT_TRUE(read_frame(fds[1], payload));
  EXPECT_EQ(payload, "");

  // A length prefix above kMaxFrameBytes must be refused without
  // allocating: send 0xFFFFFFFF and nothing else.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(write(fds[0], huge, 4), 4);
  EXPECT_FALSE(read_frame(fds[1], payload));

  close(fds[0]);
  close(fds[1]);

  // Clean EOF before any byte is a quiet false, not an error.
  int fds2[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  close(fds2[0]);
  EXPECT_FALSE(read_frame(fds2[1], payload));
  close(fds2[1]);
}

TEST(ServeCli, BatchServerServesDrainsAndFoldsCounters) {
  const auto index_path = write_small_index(scratch_path("server.hbmidx"));
  const auto socket_path = scratch_path("server.sock");

  std::atomic<bool> stop{false};
  std::ostringstream log;
  BatchServerOptions options;
  options.socket_path = socket_path;
  options.threads = 2;
  options.should_stop = [&stop] { return stop.load(); };
  options.log = &log;
  options.poll_interval_ms = 10;

  BatchServer server(Index::load(*util::default_store(), index_path),
                     options);
  BatchServerReport report;
  std::thread serving([&] { report = server.run(); });

  // Poll for readiness through the public client: the server owns the
  // socket path once connect+exchange succeeds.
  std::optional<std::string> response;
  for (int attempt = 0; attempt < 200 && !response; ++attempt) {
    response = query_over_socket(socket_path,
                                 "hc_first 0 0 0 100 Checkered0\n");
    if (!response) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(response.has_value()) << "server never became ready";
  EXPECT_EQ(*response, "hc_first,0,0,0,100,Checkered0,0,54321\n");

  // A second connection with a multi-line batch, then drain.
  const auto second = query_over_socket(
      socket_path,
      "min_retention 0 0 0 100\nhc_first 0 0 0 100 Checkered0\n");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second,
            "min_retention,0,0,0,100,64.5\n"
            "hc_first,0,0,0,100,Checkered0,0,54321\n");

  stop = true;
  serving.join();

  EXPECT_EQ(report.connections, 2u);
  EXPECT_EQ(report.counters.batches, 2u);
  EXPECT_EQ(report.counters.queries, 3u);
  EXPECT_EQ(report.counters.hits, 3u);
  EXPECT_EQ(report.counters.errors, 0u);
  EXPECT_NE(log.str().find("serve: listening on " + socket_path),
            std::string::npos);
  EXPECT_NE(log.str().find("serve: drained"), std::string::npos);
  // The socket path is unlinked on drain; a late client gets a clean miss.
  EXPECT_FALSE(query_over_socket(socket_path, "x").has_value());

  util::default_store()->remove(index_path);
}

TEST(ServeCli, ServerRejectsIndexForAChipItCannotModel) {
  ExportSpec spec;
  spec.chip_index = 2;
  spec.hc_depth = 1;
  auto manifest = manifest_for(spec);
  manifest.mapping_scheme ^= 1;  // disagree with the chip profile
  IndexBuilder builder(manifest);
  builder.set_rung({0, 0, 0, 2, 0}, 100, 1, 54321);

  BatchServerOptions options;
  options.socket_path = scratch_path("mismatch.sock");
  EXPECT_THROW(
      BatchServer(Index::parse(builder.serialize(), "mem"), options),
      IndexError);
}

}  // namespace
}  // namespace hbmrd::serve
