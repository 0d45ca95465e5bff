// Tests for src/serve and the manifest helpers it rides on: typed manifest
// trust reasons, the wire protocol's strict round trips, the
// content-addressed LRU cache (eviction, on-disk store survival, tamper
// rejection), and the daemon end to end over a real unix socket — a served
// answer, cold or cached, at any thread count and from any engine, must be
// byte-identical to the CSV `dsa_cli run` writes.
#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/report.hpp"
#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dsa;
using util::json::SchemaError;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

// Per-test temp dir, unique per case and per process (ctest runs cases in
// parallel processes).
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dsa_serve_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fast two-job sweep (protocols bt,birds in chunks of 1). `engine`
  /// and `seed` are spec knobs so tests can vary the cache key dimensions.
  std::string sweep_spec_text(const std::string& output_name,
                              const std::string& engine = "sparse",
                              int seed = 7) const {
    return std::string("{\"scenario\":\"serve-test\",\"kind\":\"sweep\","
                       "\"output\":\"") +
           (dir_ / output_name).string() +
           "\",\"chunk\":1,\"params\":{\"protocols\":\"bt,birds\","
           "\"rounds\":30,\"population\":20,\"performance_runs\":1,"
           "\"encounter_runs\":1,\"opponent_sample\":1,"
           "\"minority_fraction\":0.1,\"seed\":" +
           std::to_string(seed) + ",\"engine\":\"" + engine + "\"}}";
  }

  scenario::Plan sweep_plan(const std::string& output_name,
                            const std::string& engine = "sparse",
                            int seed = 7) const {
    return scenario::expand_plan(
        scenario::parse_scenario_text(sweep_spec_text(output_name, engine,
                                                      seed)));
  }

  fs::path dir_;
};

scenario::RunOptions quiet_options(std::size_t threads = 1) {
  scenario::RunOptions options;
  options.verbose = false;
  options.threads = threads;
  return options;
}

scenario::JobRows rows_of(std::initializer_list<std::vector<std::string>> r) {
  return scenario::JobRows(r);
}

/// One row of the width load_manifest verifies against the plan's columns.
scenario::JobRows plan_rows(const scenario::Plan& plan,
                            const std::string& tag) {
  return {std::vector<std::string>(plan.job_columns.size(), tag)};
}

// ------------------------------------------------- manifest helpers -------

TEST_F(ServeTest, MissingManifestIsTyped) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::ManifestData data =
      scenario::load_manifest(plan, dir_ / "absent.jsonl");
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kMissing);
  EXPECT_FALSE(data.header_ok);
  EXPECT_EQ(data.valid_bytes, 0u);
}

TEST_F(ServeTest, OwnManifestRoundTripsTrusted) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  std::string manifest = scenario::manifest_header_line(plan) + "\n";
  manifest += scenario::manifest_job_line(plan.jobs[0], rows, 1.5) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, manifest);

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kTrusted);
  EXPECT_TRUE(data.distrust_reason.empty());
  EXPECT_EQ(data.valid_bytes, manifest.size());
  ASSERT_EQ(data.have.size(), plan.jobs.size());
  EXPECT_TRUE(data.have[0]);
  EXPECT_FALSE(data.have[1]);
  EXPECT_EQ(data.rows[0], rows);
  EXPECT_DOUBLE_EQ(data.ms[0], 1.5);
}

TEST_F(ServeTest, TornTailNamesTrailingBytesAndKeepsPrefix) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const std::string good = scenario::manifest_header_line(plan) + "\n" +
                           scenario::manifest_job_line(plan.jobs[0], rows,
                                                       1.0) +
                           "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, good + "{\"job\":1,\"fp\":\"dead");  // killed mid-append

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kTornTail);
  EXPECT_NE(data.distrust_reason.find("without a newline"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, good.size());
  EXPECT_TRUE(data.have[0]);  // the complete prefix is still usable
}

TEST_F(ServeTest, ForeignHeaderDistrustsWholeFile) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::Plan other = sweep_plan("other.csv", "sparse", 99);
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, scenario::manifest_header_line(other) + "\n" +
                       scenario::manifest_job_line(plan.jobs[0], rows, 1.0) +
                       "\n");

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kForeignHeader);
  EXPECT_NE(data.distrust_reason.find("does not match the plan"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, 0u);  // nothing after a foreign header counts
  EXPECT_FALSE(data.have[0]);
}

TEST_F(ServeTest, FingerprintMismatchNamesTheJob) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  scenario::Job altered = plan.jobs[0];
  altered.fingerprint ^= 0xff;
  const std::string header = scenario::manifest_header_line(plan) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, header + scenario::manifest_job_line(altered, rows, 1.0) +
                       "\n");

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kBadJobLine);
  EXPECT_NE(data.distrust_reason.find("fingerprint mismatch for job 0"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, header.size());
  EXPECT_FALSE(data.have[0]);
}

TEST_F(ServeTest, DuplicateJobLineRejected) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const std::string line =
      scenario::manifest_job_line(plan.jobs[0], rows, 1.0) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path,
             scenario::manifest_header_line(plan) + "\n" + line + line);

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kBadJobLine);
  EXPECT_NE(data.distrust_reason.find("duplicate entry for job 0"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_TRUE(data.have[0]);  // the first copy was fine
}

// ------------------------------------------------------ wire protocol ----

TEST(ServeProtocol, QueryRequestRoundTripsSpecBytes) {
  const std::string spec = "{\"scenario\": \"x\",\n  \"quote\": \"\\\"\"}";
  const serve::Request request =
      serve::parse_request(serve::make_query_request(spec, "table"));
  EXPECT_EQ(request.op, serve::Request::Op::kQuery);
  EXPECT_EQ(request.spec_text, spec);
  EXPECT_EQ(request.want, "table");
  EXPECT_EQ(serve::parse_request(serve::make_ping_request()).op,
            serve::Request::Op::kPing);
  EXPECT_EQ(serve::parse_request(serve::make_status_request()).op,
            serve::Request::Op::kStatus);
  EXPECT_EQ(serve::parse_request(serve::make_shutdown_request()).op,
            serve::Request::Op::kShutdown);
}

TEST(ServeProtocol, UnknownOpAndKeysAreNamedErrors) {
  try {
    (void)serve::parse_request("{\"op\":\"frobnicate\"}");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("query"), std::string::npos) << what;  // valid ops
  }
  EXPECT_THROW((void)serve::parse_request("{\"op\":\"ping\",\"x\":1}"),
               SchemaError);
  // Non-query ops must not smuggle query fields.
  EXPECT_THROW(
      (void)serve::parse_request("{\"op\":\"ping\",\"spec\":\"{}\"}"),
      SchemaError);
  EXPECT_THROW((void)serve::parse_request(
                   "{\"op\":\"query\",\"spec\":\"{}\",\"want\":\"xml\"}"),
               SchemaError);
}

TEST(ServeProtocol, ResultResponseRoundTripsBodyBytes) {
  serve::Response result;
  result.type = "result";
  result.scenario = "s";
  result.kind = "sweep";
  result.want = "csv";
  result.body = "a,b\n1,2\n";  // embedded newlines must survive one-line framing
  result.jobs = 3;
  result.cached_jobs = 2;
  result.executed_jobs = 1;
  result.ms = 12.25;
  const serve::Response parsed =
      serve::parse_response(serve::make_result(result));
  EXPECT_EQ(parsed.type, "result");
  EXPECT_EQ(parsed.body, result.body);
  EXPECT_EQ(parsed.scenario, "s");
  EXPECT_EQ(parsed.jobs, 3u);
  EXPECT_EQ(parsed.cached_jobs, 2u);
  EXPECT_EQ(parsed.executed_jobs, 1u);
  EXPECT_DOUBLE_EQ(parsed.ms, 12.25);

  const serve::Response progress =
      serve::parse_response(serve::make_progress(1, 5, 4));
  EXPECT_EQ(progress.type, "progress");
  EXPECT_EQ(progress.done, 1u);
  EXPECT_EQ(progress.total, 5u);
  EXPECT_EQ(progress.cached, 4u);

  const serve::Response status = serve::parse_response(
      serve::make_status_response({{"cache_hits", 7}, {"queries", 2}}));
  EXPECT_EQ(status.type, "status");
  EXPECT_EQ(status.counters.at("cache_hits"), 7u);
  EXPECT_EQ(status.counters.at("queries"), 2u);

  const serve::Response error =
      serve::parse_response(serve::make_error("bad \"spec\""));
  EXPECT_EQ(error.type, "error");
  EXPECT_EQ(error.message, "bad \"spec\"");
}

// -------------------------------------------------------- result cache ----

TEST_F(ServeTest, CanonicalPlanPinsEngine) {
  const scenario::ScenarioSpec sparse = scenario::parse_scenario_text(
      sweep_spec_text("a.csv", "sparse"));
  const scenario::ScenarioSpec dense =
      scenario::parse_scenario_text(sweep_spec_text("b.csv", "dense"));
  const scenario::Plan canon_sparse = serve::canonical_plan(sparse);
  const scenario::Plan canon_dense = serve::canonical_plan(dense);
  ASSERT_EQ(canon_sparse.jobs.size(), canon_dense.jobs.size());
  for (std::size_t i = 0; i < canon_sparse.jobs.size(); ++i) {
    EXPECT_EQ(canon_sparse.jobs[i].fingerprint,
              canon_dense.jobs[i].fingerprint);
  }
  // Only the engine is canonicalised: the plan a dense run executes keeps
  // its own fingerprints.
  EXPECT_NE(scenario::expand_plan(dense).jobs[0].fingerprint,
            canon_dense.jobs[0].fingerprint);
  // A different seed is a genuinely different question: keys must differ.
  const scenario::Plan canon_other = serve::canonical_plan(
      scenario::parse_scenario_text(sweep_spec_text("c.csv", "sparse", 8)));
  EXPECT_NE(canon_other.jobs[0].fingerprint,
            canon_sparse.jobs[0].fingerprint);
}

TEST(ServeCache, LookupReturnsTheRowsExactlyAsInserted) {
  serve::ResultCache cache({.memory_budget_bytes = 1 << 20, .store_path = {}});
  const std::string long_cell(1000, 'x');
  const scenario::JobRows rows =
      rows_of({{"1", "206.70348333333334", long_cell},
               {},
               {"", std::string("nul\0and\nnewline", 15)},
               {"last"}});
  cache.insert(7, rows, 0.0);
  cache.insert(8, {}, 0.0);
  EXPECT_EQ(cache.lookup(7), std::optional<scenario::JobRows>(rows));
  EXPECT_EQ(cache.lookup(8), std::optional<scenario::JobRows>(
                                 scenario::JobRows{}));
}

TEST(ServeCache, LruEvictsUnderTinyBudget) {
  serve::ResultCache cache({.memory_budget_bytes = 1, .store_path = {}});
  cache.insert(1, rows_of({{"one"}}), 0.0);
  cache.insert(2, rows_of({{"two"}}), 0.0);  // evicts 1 (budget fits only 1)
  EXPECT_FALSE(cache.lookup(1).has_value());
  const std::optional<scenario::JobRows> hit = cache.lookup(2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0][0], "two");
  const serve::ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(ServeTest, StoreSurvivesRestartByteIdentically) {
  const fs::path store = dir_ / "cache.jsonl";
  const scenario::JobRows rows_a = rows_of({{"a", "1"}, {"b", "2"}});
  const scenario::JobRows rows_b = rows_of({{"c", "3"}});
  {
    serve::ResultCache cache({.memory_budget_bytes = 1 << 20,
                              .store_path = store});
    cache.insert(0xaaULL, rows_a, 1.0);
    cache.insert(0xbbULL, rows_b, 2.0);
  }
  serve::ResultCache reloaded({.memory_budget_bytes = 1 << 20,
                               .store_path = store});
  const serve::ResultCache::Stats stats = reloaded.stats();
  EXPECT_EQ(stats.store_loaded, 2u);
  EXPECT_EQ(stats.store_rejected, 0u);
  EXPECT_EQ(stats.inserts, 0u);  // restorations are not new work
  EXPECT_EQ(reloaded.lookup(0xaaULL), rows_a);
  EXPECT_EQ(reloaded.lookup(0xbbULL), rows_b);
}

TEST_F(ServeTest, StoreTornTailAndTamperedRowsRejected) {
  const fs::path store = dir_ / "cache.jsonl";
  {
    serve::ResultCache cache({.memory_budget_bytes = 1 << 20,
                              .store_path = store});
    cache.insert(0xaaULL, rows_of({{"honest", "1"}}), 1.0);
    cache.insert(0xbbULL, rows_of({{"fine", "2"}}), 1.0);
  }
  // Tamper with the first entry's rows (its "check" hash no longer
  // matches) and simulate a kill mid-append after the second.
  std::string contents = read_file(store);
  const std::size_t pos = contents.find("honest");
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, 6, "forged");
  contents += "{\"job\":0,\"fp\":\"00";  // torn tail
  write_file(store, contents);

  serve::ResultCache reloaded({.memory_budget_bytes = 1 << 20,
                               .store_path = store});
  const serve::ResultCache::Stats stats = reloaded.stats();
  EXPECT_EQ(stats.store_loaded, 1u);
  EXPECT_EQ(stats.store_rejected, 2u);  // tampered line + torn tail
  EXPECT_FALSE(reloaded.lookup(0xaaULL).has_value());  // never served
  EXPECT_TRUE(reloaded.lookup(0xbbULL).has_value());
}

// ------------------------------------------------------- daemon e2e -------

/// An in-process daemon on a real unix socket, stopped on destruction.
class Daemon {
 public:
  explicit Daemon(serve::ServerOptions options)
      : server_(std::move(options)),
        thread_([this] { server_.serve(stop_); }) {}
  ~Daemon() {
    stop_.store(true);
    thread_.join();
  }
  serve::Server& server() { return server_; }

 private:
  std::atomic<bool> stop_{false};
  serve::Server server_;
  std::thread thread_;
};

serve::ServerOptions daemon_options(const fs::path& dir,
                                    std::size_t threads = 1,
                                    const fs::path& store = {}) {
  serve::ServerOptions options;
  options.socket_path = dir / "s.sock";
  options.threads = threads;
  options.poll_ms = 50;
  options.cache.store_path = store;
  return options;
}

TEST_F(ServeTest, ServedAnswerMatchesRunScenarioAndWarmHitIsIdentical) {
  // Reference: the CSV `dsa_cli run` writes for the same spec.
  const scenario::Plan plan = sweep_plan("reference.csv");
  scenario::run_scenario(plan, quiet_options());
  const std::string expected = read_file(plan.spec.output);

  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  const serve::Response cold = client.query(sweep_spec_text("q.csv"));
  EXPECT_EQ(cold.body, expected);
  EXPECT_EQ(cold.jobs, 2u);
  EXPECT_EQ(cold.cached_jobs, 0u);
  EXPECT_EQ(cold.executed_jobs, 2u);

  const serve::Response warm = client.query(sweep_spec_text("q.csv"));
  EXPECT_EQ(warm.body, expected);
  EXPECT_EQ(warm.cached_jobs, 2u);
  EXPECT_EQ(warm.executed_jobs, 0u);

  const std::map<std::string, std::uint64_t> counters =
      daemon.server().counters();
  EXPECT_EQ(counters.at("queries"), 2u);
  EXPECT_EQ(counters.at("cache_hits"), 2u);
  EXPECT_EQ(counters.at("jobs_executed"), 2u);
}

TEST_F(ServeTest, CacheKeyIsEngineAndThreadCountIndependent) {
  // Warm the cache on the sparse engine with a single-threaded daemon.
  std::string sparse_body;
  {
    Daemon daemon(daemon_options(dir_, 1, dir_ / "cache.jsonl"));
    serve::Client client(daemon.server().socket_path());
    sparse_body = client.query(sweep_spec_text("q.csv", "sparse")).body;
  }
  // A multi-threaded daemon restarted from the store must answer dense and
  // sparse phrasings of the same question from cache, byte-identically.
  Daemon daemon(daemon_options(dir_, 3, dir_ / "cache.jsonl"));
  serve::Client client(daemon.server().socket_path());
  for (const std::string engine : {"dense", "sparse"}) {
    const serve::Response response =
        client.query(sweep_spec_text("q.csv", engine));
    EXPECT_EQ(response.body, sparse_body) << engine;
    EXPECT_EQ(response.cached_jobs, 2u) << engine;
    EXPECT_EQ(response.executed_jobs, 0u) << engine;
  }
  // And a cold multi-threaded computation of a different seed still matches
  // a fresh single-threaded one bite for byte.
  const std::string threaded =
      client.query(sweep_spec_text("t3.csv", "sparse", 11)).body;
  const scenario::Plan plan = sweep_plan("t1.csv", "sparse", 11);
  scenario::run_scenario(plan, quiet_options(1));
  EXPECT_EQ(threaded, read_file(plan.spec.output));
}

TEST_F(ServeTest, TableWantRendersTheReportTable) {
  const scenario::Plan plan = sweep_plan("reference.csv");
  scenario::run_scenario(plan, quiet_options());

  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  const serve::Response response =
      client.query(sweep_spec_text("q.csv"), "table");
  EXPECT_EQ(response.want, "table");
  EXPECT_EQ(response.body, report::render_csv_table(
                               util::CsvTable::load(plan.spec.output)));
}

TEST_F(ServeTest, MalformedSpecIsAServerSideErrorNotADisconnect) {
  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  try {
    (void)client.query("{\"scenario\":\"x\",\"kind\":\"nope\"}");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("serve daemon:"),
              std::string::npos)
        << error.what();
  }
  // The connection survives the failed query.
  client.ping();
  EXPECT_EQ(daemon.server().counters().at("queries_failed"), 1u);
}

TEST_F(ServeTest, OversizedFrameDropsOnlyThatConnection) {
  Daemon daemon(daemon_options(dir_));
  // A raw client streams one frame past the line cap and never ends it.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string path = daemon.server().socket_path().string();
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string chunk(1 << 20, 'x');
  std::size_t sent = 0;
  while (sent <= util::kMaxLineBytes + chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the daemon already hung up
    sent += static_cast<std::size_t>(n);
  }
  // The daemon closes the connection without an answer. Close our end
  // before checking, so a daemon that kept reading cannot hang the test.
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, 30000);
  char byte = 0;
  const ssize_t got = ready == 1 ? ::recv(fd, &byte, 1, MSG_DONTWAIT) : 1;
  ::close(fd);
  EXPECT_EQ(ready, 1) << "the oversized connection is still open";
  EXPECT_LE(got, 0);

  // Other clients are still served.
  serve::Client client(daemon.server().socket_path());
  client.ping();
}

TEST_F(ServeTest, HalfSentFrameDoesNotHoldUpShutdown) {
  auto options = daemon_options(dir_);
  const int poll_ms = options.poll_ms;
  serve::Server server(std::move(options));
  std::atomic<bool> stop{false};
  std::atomic<bool> returned{false};
  std::thread thread([&] {
    server.serve(stop);
    returned.store(true);
  });

  // A raw client sends part of a frame and then idles, leaving its
  // connection thread waiting for the rest of the line.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string path = server.socket_path().string();
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string half = R"({"op": "pi)";
  ASSERT_EQ(::send(fd, half.data(), half.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(half.size()));

  // A second client is still answered while the first one idles.
  {
    serve::Client client(server.socket_path());
    client.ping();
  }

  const auto stopped_at = std::chrono::steady_clock::now();
  stop.store(true);
  // Wait well past the few poll periods a clean shutdown needs, then close
  // our end, so a daemon that kept waiting for the line cannot hang the
  // test.
  while (!returned.load() && std::chrono::steady_clock::now() - stopped_at <
                                 std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto waited = std::chrono::steady_clock::now() - stopped_at;
  const bool returned_in_time = returned.load();
  ::close(fd);
  thread.join();
  EXPECT_TRUE(returned_in_time) << "serve() still running 10 s after stop";
  EXPECT_LT(waited, std::chrono::milliseconds(20 * poll_ms));
}

TEST_F(ServeTest, StopDrainsAQueryAlreadyRunning) {
  // Stop arrives while the daemon is still computing a query (right after
  // its first progress line, before any job has finished): shutting down
  // the live connections must not cut off the answer.
  const std::string spec =
      "{\"scenario\":\"serve-slow\",\"kind\":\"sweep\",\"output\":\"" +
      (dir_ / "slow.csv").string() +
      "\",\"chunk\":1,\"params\":{\"protocols\":\"bt,birds\","
      "\"rounds\":2000,\"population\":50,\"performance_runs\":1,"
      "\"encounter_runs\":1,\"opponent_sample\":1,"
      "\"minority_fraction\":0.1,\"seed\":7}}";
  serve::Server server(daemon_options(dir_));
  std::atomic<bool> stop{false};
  std::thread thread([&] { server.serve(stop); });

  serve::Response answer;
  std::string failure;
  try {
    serve::Client client(server.socket_path());
    answer = client.query(spec, "csv", [&](std::uint64_t done, std::uint64_t,
                                           std::uint64_t) {
      if (done == 0) stop.store(true);
    });
  } catch (const std::exception& error) {
    failure = error.what();
  }
  stop.store(true);
  thread.join();
  EXPECT_EQ(failure, "");
  EXPECT_EQ(answer.type, "result");
  EXPECT_EQ(answer.executed_jobs, 2u);
  EXPECT_FALSE(answer.body.empty());
}

TEST_F(ServeTest, ShutdownRequestStopsTheServeLoop) {
  auto options = daemon_options(dir_);
  serve::Server server(std::move(options));
  std::atomic<bool> stop{false};
  std::thread thread([&] { server.serve(stop); });
  serve::Client client(server.socket_path());
  client.ping();
  client.shutdown();
  thread.join();  // returns because the shutdown request set `stop`
  EXPECT_TRUE(stop.load());
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::size_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST_F(ServeTest, FinishedConnectionThreadsAreJoined) {
  // Each connection runs on its own thread, and a thread nobody joins
  // keeps its stack mapped. Many short sequential connections must
  // therefore not grow the daemon by a stack per connection ever accepted.
  pthread_attr_t attr;
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const std::size_t stack_kib = stack_bytes / 1024;

  Daemon daemon(daemon_options(dir_));
  serve::Client(daemon.server().socket_path()).ping();
  const std::size_t before = vm_size_kib();
  constexpr std::size_t kConnections = 64;
  for (std::size_t i = 0; i < kConnections; ++i) {
    serve::Client(daemon.server().socket_path()).ping();
  }
  const std::size_t after = vm_size_kib();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after - std::min(after, before), kConnections / 4 * stack_kib)
      << "VmSize grew from " << before << " KiB to " << after
      << " KiB over " << kConnections << " connections";
  EXPECT_EQ(daemon.server().counters().at("connections"), kConnections + 1);
}

TEST_F(ServeTest, SecondDaemonOnTheSameSocketFailsConstruction) {
  Daemon daemon(daemon_options(dir_));
  EXPECT_THROW(serve::Server{daemon_options(dir_)}, std::runtime_error);
}

// ------------------------------------------------------- report table ----

TEST(ServeReport, RenderCsvTableAlignsColumns) {
  util::CsvTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = report::render_csv_table(table);
  EXPECT_EQ(text,
            "name   value\n"
            "------------\n"
            "alpha  1    \n"
            "b      22   \n");
}

}  // namespace
