// Shared helpers for the figure/table bench binaries: PRA dataset access
// (cached in results/pra_results.csv), standardized perf output
// (results/BENCH_<name>.json), and small formatting utilities.
//
// Every bench prints (a) a short header with the experiment id and the
// paper's claim, (b) machine-readable series rows, and (c) a summary that
// states whether the claim's *shape* reproduced at the current scale.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/flame/flame.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "obs/sketch/sketch.hpp"
#include "stats/descriptive.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/proc_stat.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace dsa::bench {

/// Metrics collection defaults to on for benches (DSA_METRICS=0 disables it,
/// e.g. when measuring the disabled-path overhead of the obs layer itself).
/// It also gates the BENCH_<name>.json perf summary below.
inline bool metrics_requested() {
  const std::string value = util::env_string("DSA_METRICS", "1");
  return value != "0" && value != "false";
}

/// Output directory for METRICS_*.jsonl and BENCH_*.json files. Defaults to
/// results/; CI's perf-smoke job points it at a scratch directory.
inline std::string metrics_dir() {
  return util::env_string("DSA_METRICS_DIR", "results");
}

/// Writes the process-wide metrics snapshot to
/// <DSA_METRICS_DIR>/METRICS_<name>.jsonl (atomically). No-op when metrics
/// are disabled.
inline void write_metrics(const std::string& name) {
  if (!obs::enabled()) return;
  const std::string path = metrics_dir() + "/METRICS_" + name + ".jsonl";
  obs::Registry::global().snapshot().save_jsonl(path);
  std::fprintf(stderr, "[metrics] wrote %s\n", path.c_str());
}

/// Display name of a simulation engine, for banners and BENCH json.
inline const char* engine_name(swarming::SimEngine engine) {
  switch (engine) {
    case swarming::SimEngine::kDense:
      return "dense";
    case swarming::SimEngine::kSparse:
      break;
  }
  return "sparse";
}

/// Renders the shared BENCH_<name>.json schema: bench id, the env scale
/// knobs plus any bench-specific ones, engine, threads, and the wall-time
/// distribution over the sample list (median / p10 / p90, milliseconds).
/// tools/bench_compare diffs two of these files (or directories of them).
inline std::string bench_json(
    const std::string& name, const std::vector<double>& wall_ms,
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  const auto options = swarming::PraDatasetOptions::from_environment();
  // End-of-run memory footprint (zeros off-Linux). bench_compare reads only
  // the fields it is asked about, so the extra object never breaks committed
  // baselines.
  const util::ProcStat mem = util::read_proc_stat();
  const std::size_t threads = options.pra.threads == 0
                                  ? util::ThreadPool::default_thread_count()
                                  : options.pra.threads;
  std::ostringstream out;
  out << "{\"type\":\"bench\",\"schema\":1,\"bench\":\""
      << util::json::escape(name) << "\",\"engine\":\""
      << engine_name(options.engine) << "\",\"threads\":" << threads
      << ",\"repetitions\":" << wall_ms.size() << ",\"wall_time_ms\":{"
      << "\"median\":" << util::exact_number(stats::percentile(wall_ms, 0.5))
      << ",\"p10\":" << util::exact_number(stats::percentile(wall_ms, 0.1))
      << ",\"p90\":" << util::exact_number(stats::percentile(wall_ms, 0.9))
      << "},\"mem_kb\":{\"rss\":" << mem.rss_kb
      << ",\"peak\":" << mem.peak_rss_kb << "},\"knobs\":{";
  bool first = true;
  for (const auto& [key, json_value] : knobs) {
    if (!first) out << ',';
    first = false;
    out << '"' << util::json::escape(key) << "\":" << json_value;
  }
  out << "}}\n";
  return std::move(out).str();
}

/// RAII guard for bench mains: enables metrics on entry (unless DSA_METRICS=0)
/// and on every exit path dumps the metrics snapshot plus the
/// BENCH_<name>.json perf summary. Benches with a real repetition loop feed
/// per-repetition wall times through add_wall_ms(); otherwise the scope's
/// own lifetime becomes the single sample.
struct MetricsScope {
  explicit MetricsScope(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    if (metrics_requested()) obs::set_enabled(true);
    // DSA_METRICS_QUANTILES picks the histogram quantiles the metrics
    // snapshot exports; DSA_PROF=on samples this bench's wall-clock stacks
    // into <DSA_METRICS_DIR>/PROF_<name>.folded (unless DSA_PROF_OUT says
    // otherwise).
    obs::set_export_quantiles(obs::quantiles_from_environment());
    obs::FlameOptions prof = obs::FlameOptions::from_environment();
    if (prof.enabled && util::env_string("DSA_PROF_OUT", "").empty()) {
      prof.out = metrics_dir() + "/PROF_" + name_ + ".folded";
    }
    obs::FlameSampler::global().configure(prof);
  }

  /// One timed repetition, in milliseconds (steady-clock measured).
  void add_wall_ms(double ms) { wall_ms_.push_back(ms); }

  /// Bench-specific config knob for the BENCH json. The typed overloads
  /// render the JSON value; keys appear in insertion order.
  void knob(const std::string& key, std::int64_t value) {
    knobs_.emplace_back(key, std::to_string(value));
  }
  void knob(const std::string& key, std::size_t value) {
    knobs_.emplace_back(key, std::to_string(value));
  }
  void knob(const std::string& key, double value) {
    knobs_.emplace_back(key, util::exact_number(value));
  }
  void knob(const std::string& key, const std::string& value) {
    knobs_.emplace_back(key, '"' + util::json::escape(value) + '"');
  }

  ~MetricsScope() {
    // A bench's perf summary must never turn a successful run into a crash:
    // swallow I/O errors (e.g. a missing results/ dir on a read-only mount).
    try {
      if (obs::enabled()) {
        const util::ProcStat mem = util::read_proc_stat();
        obs::Registry::global().gauge("proc.rss_kb").set(
            static_cast<double>(mem.rss_kb));
        obs::Registry::global().gauge("proc.peak_rss_kb").set(
            static_cast<double>(mem.peak_rss_kb));
      }
      write_metrics(name_);
      if (metrics_requested()) {
        if (wall_ms_.empty()) {
          const auto elapsed =
              std::chrono::steady_clock::now() - start_;
          wall_ms_.push_back(
              std::chrono::duration<double, std::milli>(elapsed).count());
        }
        const std::string path =
            metrics_dir() + "/BENCH_" + name_ + ".json";
        util::atomic_write(path, bench_json(name_, wall_ms_, knobs_));
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
      }
      if (obs::FlameSampler::global().enabled()) {
        const std::string out =
            obs::FlameSampler::global().options().out.string();
        const std::uint64_t samples =
            obs::FlameSampler::global().stop_and_write();
        if (samples > 0) {
          std::fprintf(stderr, "[prof] %llu samples -> %s\n",
                       static_cast<unsigned long long>(samples), out.c_str());
        }
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[bench] perf summary failed: %s\n", error.what());
    }
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<double> wall_ms_;
  std::vector<std::pair<std::string, std::string>> knobs_;
};

/// Saves the process-wide flight recording to $DSA_RECORD_OUT when the
/// variable is set and the bench armed the recorder — this is how the
/// committed example recordings under examples/recordings/ were produced.
inline void save_recording_if_requested() {
  const std::string out = util::env_string("DSA_RECORD_OUT", "");
  if (out.empty()) return;
  obs::Recorder::global().save(out);
  std::fprintf(stderr, "[record] %zu events -> %s\n",
               obs::Recorder::global().event_count(), out.c_str());
}

/// Loads (or computes and caches) the PRA dataset at env-configured scale.
inline std::vector<swarming::PraRecord> dataset() {
  return swarming::load_or_compute_pra_dataset(
      swarming::PraDatasetOptions::from_environment());
}

/// Prints the effective runtime configuration — thread count and every DSA_*
/// scale knob — to stderr, so any captured bench output records the scale it
/// ran at and runs are comparable across machines/PRs.
inline void runtime_banner() {
  const auto options = swarming::PraDatasetOptions::from_environment();
  const std::size_t threads = options.pra.threads == 0
                                  ? util::ThreadPool::default_thread_count()
                                  : options.pra.threads;
  std::fprintf(
      stderr,
      "[config] threads=%zu rounds=%zu population=%zu perf_runs=%zu "
      "encounter_runs=%zu opponents=%zu seed=%llu engine=%s\n",
      threads, options.rounds, options.pra.population,
      options.pra.performance_runs, options.pra.encounter_runs,
      options.pra.opponent_sample,
      static_cast<unsigned long long>(options.pra.seed),
      engine_name(options.engine));
}

/// Prints the standard bench banner (and the runtime config to stderr).
inline void banner(const std::string& experiment, const std::string& claim) {
  runtime_banner();
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// `open` + first + `separator` + second + `close`, e.g. "[0.2,0.4)". Built
/// by appending: `"[" + std::string(...)` trips a GCC 12 -Wrestrict false
/// positive.
inline std::string bracketed(char open, const std::string& first,
                             const char* separator, const std::string& second,
                             char close) {
  std::string text(1, open);
  text += first;
  text += separator;
  text += second;
  text += close;
  return text;
}

/// "REPRODUCED" / "DEVIATION" verdict line.
inline void verdict(bool reproduced, const std::string& detail) {
  std::printf("[%s] %s\n", reproduced ? "REPRODUCED" : "DEVIATION",
              detail.c_str());
}

}  // namespace dsa::bench
