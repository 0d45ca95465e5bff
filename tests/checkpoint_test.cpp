// Crash-tolerant PRA sweep machinery: per-protocol engine methods must
// reproduce the batch passes exactly (the property that makes resuming
// sound), and the checkpoint helpers must fingerprint options, round-trip
// partial results, and reject anything that is not a clean protocol prefix.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace dsa;

/// Seed-sensitive toy domain: utilities depend on (protocol, seed), so any
/// change in per-item seed derivation shows up as a numeric mismatch.
class SeededModel final : public core::EncounterModel {
 public:
  explicit SeededModel(std::uint32_t protocols) : protocols_(protocols) {}

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return protocols_;
  }
  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return "seeded-" + std::to_string(id);
  }
  [[nodiscard]] double homogeneous_utility(std::uint32_t p, std::size_t,
                                           std::uint64_t seed) const override {
    return static_cast<double>(util::hash64(seed ^ (p * 2654435761ULL)) %
                               10000) /
           100.0;
  }
  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a, std::size_t,
      std::uint64_t seed) const override {
    const std::uint64_t mix =
        util::hash64(seed ^ (static_cast<std::uint64_t>(a) << 32) ^ b ^
                     count_a);
    return {static_cast<double>(mix % 997), static_cast<double>(mix % 991)};
  }

 private:
  std::uint32_t protocols_;
};

TEST(PraPerProtocol, MatchesBatchPassesExactly) {
  SeededModel model(7);
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = 3;
  config.encounter_runs = 2;
  config.seed = 99;
  config.threads = 2;
  const core::PraEngine engine(model, config);

  const std::vector<double> raw = engine.raw_performance();
  const std::vector<double> robustness = engine.tournament(0.5);
  const std::vector<double> aggressiveness = engine.tournament(0.1);
  for (std::uint32_t p = 0; p < model.protocol_count(); ++p) {
    EXPECT_DOUBLE_EQ(raw[p], engine.raw_performance_of(p)) << p;
    EXPECT_DOUBLE_EQ(robustness[p], engine.win_rate_of(p, 0.5)) << p;
    EXPECT_DOUBLE_EQ(aggressiveness[p], engine.win_rate_of(p, 0.1)) << p;
  }
}

TEST(PraCheckpoint, PathFingerprintsTheOptions) {
  swarming::PraDatasetOptions a;
  a.path = "results/pra_results.csv";
  swarming::PraDatasetOptions b = a;
  EXPECT_EQ(swarming::pra_checkpoint_path(a),
            swarming::pra_checkpoint_path(b));
  const std::string base = swarming::pra_checkpoint_path(a).string();
  EXPECT_NE(base.find("results/pra_results.csv.partial-"), std::string::npos);

  b.pra.seed = a.pra.seed + 1;
  EXPECT_NE(swarming::pra_checkpoint_path(a), swarming::pra_checkpoint_path(b));
  b = a;
  b.rounds = a.rounds + 1;
  EXPECT_NE(swarming::pra_checkpoint_path(a), swarming::pra_checkpoint_path(b));
  b = a;
  b.pra.encounter_runs = a.pra.encounter_runs + 1;
  EXPECT_NE(swarming::pra_checkpoint_path(a), swarming::pra_checkpoint_path(b));
  // The checkpoint interval is pacing, not physics: same fingerprint.
  b = a;
  b.checkpoint_interval = a.checkpoint_interval * 2;
  EXPECT_EQ(swarming::pra_checkpoint_path(a), swarming::pra_checkpoint_path(b));
}

TEST(PraCheckpoint, SaveLoadRoundTripsAPrefix) {
  std::vector<swarming::PraRecord> records(5);
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    records[i].protocol = i;
    records[i].raw_performance = 10.0 + i;
    records[i].robustness = 0.1 * i;
    records[i].aggressiveness = 0.05 * i;
  }
  const auto path = std::filesystem::temp_directory_path() /
                    "dsa_checkpoint_test.partial-feed";
  swarming::save_pra_checkpoint(records, 3, path);
  const auto loaded = swarming::load_pra_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded[i].protocol, i);
    EXPECT_DOUBLE_EQ(loaded[i].raw_performance, 10.0 + i);
    EXPECT_DOUBLE_EQ(loaded[i].robustness, 0.1 * i);
    EXPECT_DOUBLE_EQ(loaded[i].aggressiveness, 0.05 * i);
  }
  std::filesystem::remove(path);
}

TEST(PraQuantify, MatchesPerProtocolMethodsExactly) {
  SeededModel model(9);
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = 3;
  config.encounter_runs = 2;
  config.opponent_sample = 4;
  config.seed = 123;
  config.threads = 3;
  const core::PraEngine engine(model, config);

  const auto metrics = engine.quantify(2, 7);
  ASSERT_EQ(metrics.size(), 5u);
  for (std::uint32_t i = 0; i < metrics.size(); ++i) {
    const std::uint32_t p = 2 + i;
    EXPECT_DOUBLE_EQ(metrics[i].raw_performance, engine.raw_performance_of(p))
        << p;
    EXPECT_DOUBLE_EQ(metrics[i].robustness, engine.win_rate_of(p, 0.5)) << p;
    EXPECT_DOUBLE_EQ(metrics[i].aggressiveness,
                     engine.win_rate_of(p, config.minority_fraction))
        << p;
  }
  EXPECT_TRUE(engine.quantify(3, 3).empty());
  EXPECT_THROW(engine.quantify(5, 4), std::invalid_argument);
  EXPECT_THROW(engine.quantify(0, 10), std::invalid_argument);
}

// ------------------------------------ sweep determinism & golden bytes ----

/// The scale knobs of one PRA determinism/fingerprint scenario.
struct SliceScale {
  std::size_t rounds = 120;
  std::size_t performance_runs = 3;
  std::size_t encounter_runs = 1;
};

/// Computes a small PRA slice over named protocols with the real simulator
/// and returns the exact bytes save_pra_checkpoint would persist — the same
/// fingerprint the crash-tolerant sweep trusts when resuming. `passes` lets
/// a caller run the same batch repeatedly on one engine (so the second pass
/// reuses the pool's thread-local simulation workspaces).
std::string pra_slice_bytes(swarming::SimEngine sim_engine,
                            std::size_t threads, const SliceScale& scale,
                            std::size_t passes = 1) {
  swarming::SimulationConfig sim;
  sim.rounds = scale.rounds;
  sim.engine = sim_engine;
  const swarming::SwarmingModel model(
      sim, swarming::BandwidthDistribution::piatek());
  const core::SubspaceModel subset(
      model, {swarming::encode_protocol(swarming::bittorrent_protocol()),
              swarming::encode_protocol(swarming::birds_protocol()),
              swarming::encode_protocol(swarming::loyal_when_needed_protocol()),
              swarming::encode_protocol(swarming::sort_s_protocol())});
  core::PraConfig config;
  config.population = 20;
  config.performance_runs = scale.performance_runs;
  config.encounter_runs = scale.encounter_runs;
  config.seed = 2011;
  config.threads = threads;
  const core::PraEngine engine(subset, config);

  std::vector<core::ProtocolMetrics> metrics;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    metrics = engine.quantify(0, subset.protocol_count());
  }
  std::vector<swarming::PraRecord> records(metrics.size());
  for (std::uint32_t i = 0; i < metrics.size(); ++i) {
    records[i].protocol = i;
    records[i].raw_performance = metrics[i].raw_performance;
    records[i].robustness = metrics[i].robustness;
    records[i].aggressiveness = metrics[i].aggressiveness;
  }
  const auto path = std::filesystem::temp_directory_path() /
                    "dsa_slice_test.partial-bytes";
  swarming::save_pra_checkpoint(records, records.size(), path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  return bytes.str();
}

TEST(PraDeterminism, ThreadCountAndWorkspaceReuseDoNotChangeBytes) {
  // The same slice computed with 1 thread, 4 threads, and on an engine
  // whose pool (and thread-local workspaces) already ran the batch must
  // produce byte-identical CSVs — scheduling and workspace reuse are
  // invisible in the numbers.
  const SliceScale scale;
  const std::string one_thread =
      pra_slice_bytes(swarming::SimEngine::kSparse, 1, scale);
  const std::string four_threads =
      pra_slice_bytes(swarming::SimEngine::kSparse, 4, scale);
  const std::string reused_workspace =
      pra_slice_bytes(swarming::SimEngine::kSparse, 4, scale, /*passes=*/2);
  EXPECT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, four_threads);
  EXPECT_EQ(one_thread, reused_workspace);
}

TEST(PraGoldenFingerprint, SparseMatchesDenseAtDefaultScale) {
  // The dense engine is the seed implementation's hot path, byte for byte;
  // equality of the persisted CSVs is the golden-fingerprint guarantee that
  // the optimized sweep changed nothing at the default DSA_* scale.
  const SliceScale scale;  // default-scale knobs: 120 rounds, 3+1 runs
  EXPECT_EQ(pra_slice_bytes(swarming::SimEngine::kSparse, 2, scale),
            pra_slice_bytes(swarming::SimEngine::kDense, 2, scale));
}

TEST(PraGoldenFingerprint, SparseMatchesDenseAtFullSubsetScale) {
  // DSA_FULL-subset scale: the paper-fidelity 500 rounds and 10 encounter
  // runs, on the named-protocol subset so the test stays tier-1 fast.
  SliceScale scale;
  scale.rounds = 500;
  scale.performance_runs = 10;
  scale.encounter_runs = 10;
  EXPECT_EQ(pra_slice_bytes(swarming::SimEngine::kSparse, 2, scale),
            pra_slice_bytes(swarming::SimEngine::kDense, 2, scale));
}

TEST(PraCheckpoint, MissingOrMalformedCheckpointYieldsEmpty) {
  EXPECT_TRUE(
      swarming::load_pra_checkpoint("/nonexistent/missing.partial").empty());

  // Rows that are not a contiguous protocol prefix are treated as corrupt.
  const auto path = std::filesystem::temp_directory_path() /
                    "dsa_checkpoint_gap.partial-feed";
  util::CsvTable table(
      {"protocol", "raw_performance", "robustness", "aggressiveness"});
  table.add_row({"0", "1.0", "0.5", "0.5"});
  table.add_row({"2", "1.0", "0.5", "0.5"});  // gap: protocol 1 missing
  table.save(path);
  EXPECT_TRUE(swarming::load_pra_checkpoint(path).empty());
  std::filesystem::remove(path);
}

// ----------------------------------------------- cached dataset sidecar ----

/// Options for a full 3270-protocol sweep small enough for tier-1: one
/// round, two peers, one run and one sampled opponent per protocol.
swarming::PraDatasetOptions tiny_dataset_options(
    const std::filesystem::path& path, std::uint64_t seed) {
  swarming::PraDatasetOptions options;
  options.rounds = 1;
  options.pra.population = 2;
  options.pra.performance_runs = 1;
  options.pra.encounter_runs = 1;
  options.pra.opponent_sample = 1;
  options.pra.seed = seed;
  options.pra.threads = 2;
  options.checkpoint_interval = 0;
  options.path = path;
  return options;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(PraDataset, CsvCachedForAnotherSeedIsRecomputed) {
  const auto dir =
      std::filesystem::temp_directory_path() / "dsa_pra_dataset_sidecar";
  std::filesystem::remove_all(dir);
  const auto path = dir / "pra.csv";
  const swarming::PraDatasetOptions seed_2011 =
      tiny_dataset_options(path, 2011);
  const swarming::PraDatasetOptions seed_2012 =
      tiny_dataset_options(path, 2012);

  // The first run computes the CSV; another seed must not read those
  // numbers back.
  (void)swarming::load_or_compute_pra_dataset(seed_2011, /*verbose=*/false);
  const std::string bytes_2011 = file_bytes(path);
  const std::vector<swarming::PraRecord> recomputed =
      swarming::load_or_compute_pra_dataset(seed_2012, /*verbose=*/false);
  const std::string bytes_2012 = file_bytes(path);
  EXPECT_TRUE(bytes_2012 != bytes_2011)
      << "seed 2012 reused the seed-2011 CSV";
  swarming::save_pra_dataset(
      swarming::compute_pra_dataset(seed_2012, /*verbose=*/false),
      dir / "fresh.csv");
  EXPECT_EQ(bytes_2012, file_bytes(dir / "fresh.csv"));
  ASSERT_EQ(recomputed.size(), swarming::kProtocolCount);

  // The options live in a one-line sidecar beside the CSV.
  auto sidecar = path;
  sidecar += ".options";
  ASSERT_TRUE(std::filesystem::exists(sidecar));
  EXPECT_EQ(file_bytes(sidecar).size(), 17u);  // 16 hex digits + newline

  // The same seed again is a cache hit: a hand-edited CSV is read back as
  // is, and so is a CSV with no sidecar at all.
  std::vector<swarming::PraRecord> marked = swarming::load_pra_dataset(path);
  marked.front().robustness = 0.123;
  swarming::save_pra_dataset(marked, path);
  EXPECT_EQ(swarming::load_or_compute_pra_dataset(seed_2012, false)
                .front()
                .robustness,
            0.123);
  std::filesystem::remove(sidecar);
  EXPECT_EQ(swarming::load_or_compute_pra_dataset(seed_2011, false)
                .front()
                .robustness,
            0.123);
  std::filesystem::remove_all(dir);
}

}  // namespace
