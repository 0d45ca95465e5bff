// Content-addressed result cache for the `dsa_cli serve` daemon.
//
// Keyed by the per-job util::Fingerprint chain the scenario runner already
// writes into its manifests: two queries that pin the same parameters hash
// to the same key, so the second is a lookup instead of a simulation. The
// repo-wide determinism invariant (bitwise-identical results at any thread
// count, on any engine) is what makes this sound — a cached answer is the
// answer.
//
// Keys are *canonical* fingerprints (canonical_plan below): the sweep
// kind's `engine` axis selects equivalent implementations of the same
// numbers, so it is pinned to sparse before hashing and a dense query warms
// the cache for a sparse one.
//
// Storage is an in-memory LRU under a byte budget, backed by an append-only
// on-disk JSONL store whose lines use the manifest job-line schema (plus a
// "check" content hash) — a restarted daemon reloads it, and entries whose
// check does not match their rows are rejected, never served.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"

namespace dsa::serve {

/// The plan whose job fingerprints key the cache: `spec` with the sweep
/// engine axis pinned to sparse (other kinds pass through unchanged). Job count and order always match expand_plan(spec) — only
/// the fingerprints differ.
[[nodiscard]] scenario::Plan canonical_plan(const scenario::ScenarioSpec& spec);

/// Content hash of a job's rows — the "check" field of store lines. A
/// store entry whose rows were altered after the fact no longer matches
/// and is rejected on load.
[[nodiscard]] std::uint64_t rows_check(const scenario::JobRows& rows);

class ResultCache {
 public:
  struct Options {
    /// In-memory LRU budget; the least-recently-used entries are evicted
    /// once the estimated footprint exceeds it (the most recent entry is
    /// always retained, even if alone over budget).
    std::size_t memory_budget_bytes = 64ull << 20;
    /// Append-only JSONL store; empty = memory-only (no persistence).
    /// Loaded on construction: complete, verified lines become entries
    /// (newest-loaded most recent), torn tails and tampered lines are
    /// skipped and counted.
    std::filesystem::path store_path;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t store_loaded = 0;    // entries restored from disk
    std::uint64_t store_rejected = 0;  // disk lines skipped (torn/tampered)
    std::size_t entries = 0;           // current resident entries
    std::size_t bytes = 0;             // current estimated footprint
  };

  explicit ResultCache(Options options);

  /// Returns the rows cached under `fingerprint` (bumping it to
  /// most-recently-used) or nullopt. Counts a hit or miss either way.
  [[nodiscard]] std::optional<scenario::JobRows> lookup(
      std::uint64_t fingerprint);

  /// Caches `rows` under `fingerprint` and appends it to the store (when
  /// persistent). A fingerprint already resident is bumped, not rewritten.
  /// `wall_ms` is provenance carried into the store line, never identity.
  void insert(std::uint64_t fingerprint, const scenario::JobRows& rows,
              double wall_ms);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string packed;  // the rows, packed into one buffer (cache.cpp)
    std::size_t cost = 0;
  };

  void insert_locked(std::uint64_t fingerprint,
                     const scenario::JobRows& rows, double wall_ms,
                     bool persist);
  void load_store();

  Options options_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::ofstream store_;
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace dsa::serve
