#include "swarming/pra_dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "swarming/dsa_model.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/thread_pool.hpp"

namespace dsa::swarming {

namespace {

using util::exact_number;

/// Hash of every option that affects the sweep's numbers. Baked into the
/// checkpoint filename so a resume never continues from incompatible data,
/// and recorded in the finished dataset's sidecar.
util::Fingerprint options_fingerprint(const PraDatasetOptions& options) {
  return util::Fingerprint(options.pra.seed ^ 0x50a5c4ec8f21d3b7ULL)
      .mix(static_cast<std::uint64_t>(options.pra.population))
      .mix(static_cast<std::uint64_t>(options.pra.performance_runs))
      .mix(static_cast<std::uint64_t>(options.pra.encounter_runs))
      .mix(static_cast<std::uint64_t>(options.pra.opponent_sample))
      .mix(static_cast<std::uint64_t>(
          std::llround(options.pra.minority_fraction * 1e6)))
      .mix(static_cast<std::uint64_t>(options.rounds));
}

std::filesystem::path options_sidecar_path(const PraDatasetOptions& options) {
  std::filesystem::path path = options.path;
  path += ".options";
  return path;
}

/// One kPra summary event per protocol (run = actor = protocol id, so the
/// canonical event sort equals the dataset's protocol order). Emitted for
/// both computed and CSV-loaded datasets so a recording carries the exact
/// values a report consumes, whichever path produced them.
void record_pra_events(const std::vector<PraRecord>& records) {
  obs::RunCapture capture(obs::Recorder::global());
  if (!capture.rounds()) return;
  for (const PraRecord& rec : records) {
    capture.emit({.kind = obs::EventKind::kPra,
                  .run = rec.protocol,
                  .actor = rec.protocol,
                  .value = {{rec.performance, rec.robustness,
                             rec.aggressiveness, rec.raw_performance}},
                  .label = rec.spec.describe()});
  }
}

}  // namespace

PraDatasetOptions PraDatasetOptions::from_environment() {
  PraDatasetOptions options;
  const bool full = util::env_flag("DSA_FULL");
  options.rounds = static_cast<std::size_t>(
      util::env_int("DSA_ROUNDS", full ? 500 : 120));
  options.pra.population = static_cast<std::size_t>(
      util::env_int("DSA_POPULATION", 50));
  options.pra.performance_runs = static_cast<std::size_t>(
      util::env_int("DSA_PERF_RUNS", full ? 100 : 3));
  options.pra.encounter_runs = static_cast<std::size_t>(
      util::env_int("DSA_ENCOUNTER_RUNS", full ? 10 : 1));
  options.pra.opponent_sample = static_cast<std::size_t>(
      util::env_int("DSA_OPPONENTS", full ? 0 : 24));
  options.pra.threads =
      static_cast<std::size_t>(util::env_int("DSA_THREADS", 0));
  options.pra.seed =
      static_cast<std::uint64_t>(util::env_int("DSA_SEED", 2011));
  options.engine =
      util::env_enum("DSA_ENGINE", "sparse", {"sparse", "dense"}) == "dense"
          ? SimEngine::kDense
          : SimEngine::kSparse;
  options.path = util::env_string("DSA_RESULTS", "results/pra_results.csv");
  options.checkpoint_interval =
      static_cast<std::size_t>(util::env_int("DSA_CHECKPOINT", 256));
  return options;
}

std::filesystem::path pra_checkpoint_path(const PraDatasetOptions& options) {
  return util::checkpoint_path(options.path,
                               options_fingerprint(options).value());
}

void save_pra_checkpoint(const std::vector<PraRecord>& records,
                         std::size_t count,
                         const std::filesystem::path& path) {
  util::CsvTable table(
      {"protocol", "raw_performance", "robustness", "aggressiveness"});
  count = std::min(count, records.size());
  for (std::size_t i = 0; i < count; ++i) {
    table.add_row({
        std::to_string(records[i].protocol),
        exact_number(records[i].raw_performance),
        exact_number(records[i].robustness),
        exact_number(records[i].aggressiveness),
    });
  }
  table.save(path);
}

std::vector<PraRecord> load_pra_checkpoint(const std::filesystem::path& path) {
  std::vector<PraRecord> records;
  if (!std::filesystem::exists(path)) return records;
  try {
    const util::CsvTable table = util::CsvTable::load(path);
    records.reserve(table.row_count());
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      PraRecord rec;
      rec.protocol =
          static_cast<std::uint32_t>(table.number_at(r, "protocol"));
      if (rec.protocol != r || rec.protocol >= kProtocolCount) {
        // Not a contiguous protocol prefix — treat as corrupt.
        records.clear();
        return records;
      }
      rec.spec = decode_protocol(rec.protocol);
      rec.raw_performance = table.number_at(r, "raw_performance");
      rec.robustness = table.number_at(r, "robustness");
      rec.aggressiveness = table.number_at(r, "aggressiveness");
      records.push_back(rec);
    }
  } catch (const std::exception&) {
    records.clear();
  }
  return records;
}

std::vector<PraRecord> compute_pra_dataset(const PraDatasetOptions& options,
                                           bool verbose) {
  SimulationConfig sim;
  sim.rounds = options.rounds;
  sim.engine = options.engine;
  SwarmingModel model(sim, BandwidthDistribution::piatek());
  // One pool for the whole sweep, shared with the engine: the pool must
  // outlive the engine, and every checkpoint chunk reuses its threads (and
  // their thread-local simulation workspaces).
  util::ThreadPool pool(options.pra.threads == 0
                            ? util::ThreadPool::default_thread_count()
                            : options.pra.threads);

  // Heartbeat + time-series for `dsa_cli top`/`status`. Declared after the
  // pool (destroyed first, so the queue-depth watch can never dangle) and
  // before the engine (whose progress callback references it). A pure
  // observer: consumes no RNG, so the sweep's bytes are identical with
  // DSA_STATUS on or off.
  obs::TelemetryRun telemetry = obs::Telemetry::global().begin_run(
      {.name = obs::sanitize_run_name(options.path.stem().string()),
       .kind = "sweep",
       .spec_fingerprint = options_fingerprint(options).value(),
       .jobs_total = kProtocolCount,
       .output = options.path.string()});
  telemetry.watch_pool(&pool);

  // Live progress + ETA over the whole 3270-protocol sweep. The engine's
  // per-chunk progress callback reports chunk-local completions; adding the
  // chunk base converts them to a global protocol count. Progress reads
  // only the wall clock and writes only stderr, so it cannot change any
  // result (and it stays monotone even with out-of-order callbacks).
  obs::ProgressMeter meter("pra", kProtocolCount, verbose);
  std::atomic<std::size_t> chunk_base{0};
  core::PraConfig pra_config = options.pra;
  pra_config.progress = [&meter, &chunk_base,
                         &telemetry](std::size_t done, std::size_t) {
    const std::size_t global =
        chunk_base.load(std::memory_order_relaxed) + done;
    meter.update(global);
    telemetry.update_done(global);
  };
  core::PraEngine engine(model, pra_config, &pool);

  // The sweep runs protocol-by-protocol (all three metrics per protocol)
  // instead of metric-by-metric so a checkpoint prefix is self-contained.
  // Per-item seeds depend only on (seed, protocol, run), so the order change
  // does not change any number.
  std::vector<PraRecord> records(kProtocolCount);
  const std::filesystem::path checkpoint = pra_checkpoint_path(options);
  std::size_t first_missing = 0;
  telemetry.set_phase("resume-check");
  if (options.checkpoint_interval > 0) {
    const std::vector<PraRecord> resumed = load_pra_checkpoint(checkpoint);
    for (const PraRecord& rec : resumed) records[rec.protocol] = rec;
    first_missing = resumed.size();
    if (first_missing > 0) {
      if (verbose) {
        std::fprintf(stderr,
                     "resuming PRA sweep from checkpoint %s (%zu/%u)\n",
                     checkpoint.string().c_str(), first_missing,
                     kProtocolCount);
      }
      if (obs::enabled()) {
        obs::Registry::global().counter("pra.checkpoint_resumes").increment();
      }
      obs::TraceSink::global().instant("pra/checkpoint-resume");
      meter.update(first_missing);
      telemetry.update_done(first_missing);
    }
  }

  const std::size_t chunk_size = options.checkpoint_interval > 0
                                     ? options.checkpoint_interval
                                     : kProtocolCount;
  // One telemetry shard per checkpoint chunk, so `dsa_cli top` shows which
  // slices of the protocol space are resumed/running/done.
  {
    std::vector<std::string> chunk_labels;
    for (std::size_t begin = 0; begin < kProtocolCount; begin += chunk_size) {
      const std::size_t end =
          std::min<std::size_t>(begin + chunk_size, kProtocolCount);
      chunk_labels.push_back("protocols-" + std::to_string(begin) + "-" +
                             std::to_string(end));
    }
    telemetry.init_shards(std::move(chunk_labels));
    for (std::size_t begin = 0; begin + chunk_size <= first_missing;
         begin += chunk_size) {
      telemetry.set_shard_state(begin / chunk_size, obs::ShardState::kResumed);
    }
  }
  telemetry.set_phase("quantify");
  for (std::size_t begin = first_missing; begin < kProtocolCount;
       begin += chunk_size) {
    const std::size_t end = std::min<std::size_t>(begin + chunk_size,
                                                  kProtocolCount);
    chunk_base.store(begin, std::memory_order_relaxed);
    telemetry.set_shard_state(begin / chunk_size, obs::ShardState::kRunning);
    // One flattened task grid per chunk: every simulation of every protocol
    // in [begin, end) schedules independently, so a slow protocol cannot
    // straggle the chunk the way the old per-protocol parallel_for could.
    const std::vector<core::ProtocolMetrics> metrics = engine.quantify(
        static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(end));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(begin + i);
      PraRecord& rec = records[id];
      rec.protocol = id;
      rec.spec = decode_protocol(id);
      rec.raw_performance = metrics[i].raw_performance;
      rec.robustness = metrics[i].robustness;
      rec.aggressiveness = metrics[i].aggressiveness;
    }
    if (options.checkpoint_interval > 0 && end < kProtocolCount) {
      DSA_OBS_PHASE("pra/checkpoint-save");
      telemetry.set_phase("checkpoint-save");
      save_pra_checkpoint(records, end, checkpoint);
      if (obs::enabled()) {
        obs::Registry::global().counter("pra.checkpoint_saves").increment();
      }
      obs::TraceSink::global().instant("pra/checkpoint-save");
      telemetry.set_phase("quantify");
    }
    telemetry.set_shard_state(begin / chunk_size, obs::ShardState::kDone);
    meter.update(end);
    telemetry.update_done(end);
  }
  meter.finish();
  telemetry.set_phase("normalize");

  // Normalize performance against the global best only once every raw value
  // exists (a checkpoint prefix has no meaningful normalization).
  double best = 0.0;
  for (const PraRecord& rec : records) {
    best = std::max(best, rec.raw_performance);
  }
  for (PraRecord& rec : records) {
    rec.performance = best > 0.0 ? rec.raw_performance / best : 0.0;
  }
  record_pra_events(records);
  return records;
}

void save_pra_dataset(const std::vector<PraRecord>& records,
                      const std::filesystem::path& path) {
  util::CsvTable table({"protocol", "stranger_policy", "h", "window",
                        "ranking", "k", "allocation", "raw_performance",
                        "performance", "robustness", "aggressiveness"});
  for (const PraRecord& rec : records) {
    table.add_row({
        std::to_string(rec.protocol),
        to_string(rec.spec.stranger_policy),
        std::to_string(rec.spec.stranger_slots),
        to_string(rec.spec.window),
        to_string(rec.spec.ranking),
        std::to_string(rec.spec.partner_slots),
        to_string(rec.spec.allocation),
        util::format_number(rec.raw_performance),
        util::format_number(rec.performance),
        util::format_number(rec.robustness),
        util::format_number(rec.aggressiveness),
    });
  }
  table.save(path);
}

std::vector<PraRecord> load_pra_dataset(const std::filesystem::path& path) {
  const util::CsvTable table = util::CsvTable::load(path);
  std::vector<PraRecord> records;
  records.reserve(table.row_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    PraRecord rec;
    rec.protocol =
        static_cast<std::uint32_t>(table.number_at(r, "protocol"));
    rec.spec = decode_protocol(rec.protocol);
    rec.raw_performance = table.number_at(r, "raw_performance");
    rec.performance = table.number_at(r, "performance");
    rec.robustness = table.number_at(r, "robustness");
    rec.aggressiveness = table.number_at(r, "aggressiveness");
    records.push_back(rec);
  }
  record_pra_events(records);
  return records;
}

std::vector<PraRecord> load_or_compute_pra_dataset(
    const PraDatasetOptions& options, bool verbose) {
  const std::filesystem::path sidecar = options_sidecar_path(options);
  const std::string fingerprint = options_fingerprint(options).hex();
  std::string stale;
  if (util::reuse_cached_output(options.path, sidecar, fingerprint, &stale)) {
    if (verbose) {
      std::fprintf(stderr, "loading cached PRA dataset: %s\n",
                   options.path.string().c_str());
    }
    return load_pra_dataset(options.path);
  }
  if (verbose && !stale.empty()) {
    std::fprintf(stderr,
                 "cached PRA dataset %s was computed with options %s, not "
                 "these options' %s; recomputing\n",
                 options.path.string().c_str(), stale.c_str(),
                 fingerprint.c_str());
  }
  if (verbose) {
    std::fprintf(stderr,
                 "no cached PRA dataset at %s; computing (set DSA_* env vars "
                 "to rescale)...\n",
                 options.path.string().c_str());
  }
  std::vector<PraRecord> records = compute_pra_dataset(options, verbose);
  util::write_sidecar(sidecar, fingerprint);
  save_pra_dataset(records, options.path);
  // The finished dataset supersedes any partial checkpoint.
  std::error_code ignored;
  std::filesystem::remove(pra_checkpoint_path(options), ignored);
  if (verbose) {
    std::fprintf(stderr, "saved PRA dataset: %s\n",
                 options.path.string().c_str());
  }
  return records;
}

}  // namespace dsa::swarming
