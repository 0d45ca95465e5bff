// Definition of SimWorkspace::Impl — the sparse engine's round-state layout
// (simulator.cpp) — plus the pieces the batch-lockstep engine
// (batch_engine.cpp) shares with it. Everything here is an internal detail
// of the swarming library, not part of its public interface.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "obs/sketch/sketch.hpp"
#include "swarming/simulator.hpp"
#include "util/virtual_shuffle.hpp"

namespace dsa::swarming {

/// One ranked candidate with its ordering key hoisted out, so the partial
/// sort compares scalars instead of re-reading the history on every
/// comparison.
struct RankEntry {
  double key;
  std::uint32_t tie;
  std::uint32_t id;
};

struct SimWorkspace::Impl {
  /// One generation of the interaction history. The now/prev/next roles
  /// rotate between rounds instead of copying. Row `receiver` of `bits`
  /// holds ⌈n/64⌉ words; bit g is set when giver g opened a slot to that
  /// receiver this round. value[receiver * n + giver] carries the slot's
  /// bandwidth and means something only where the bit is set, so
  /// recycling a generation zeroes n·⌈n/64⌉ words and never touches the
  /// n^2 values.
  struct Generation {
    std::vector<std::uint64_t> bits;
    std::vector<double> value;
  };

  std::array<Generation, 3> gen;
  std::size_t words = 0;  // ⌈n/64⌉, the length of one bit row
  /// Consecutive rounds with a positive gift, [receiver * n + giver]. Only
  /// a Loyal ranker reads it, so a run without one leaves it untouched.
  std::vector<std::uint16_t> streak;

  std::vector<double> capacities;
  std::vector<double> aspiration;
  std::vector<double> round_received;
  std::vector<double> total_received;

  // Per-peer scratch reused across rounds. `candidates` and
  // `candidate_window` hold n entries; a peer's list fills their front.
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> eligible_strangers;
  util::VirtualShuffle stranger_shuffle;
  std::vector<std::uint32_t> tie_priority;
  std::vector<std::uint32_t> victim_scratch;
  std::vector<RankEntry> rank_entries;
  /// Window bandwidth per candidate, aligned with `candidates` at build
  /// time — the Fastest/Slowest ranking key without re-reading the
  /// history. Filled only for those rankers.
  std::vector<double> candidate_window;

  /// True when the last prepare() found the n^2 arrays already sized.
  bool last_prepare_reused = false;

  /// Readies the workspace for a fresh n-peer run: O(n·⌈n/64⌉) zeroing
  /// (O(n^2) more with `keep_streaks`) and, once the buffers have grown to
  /// this n, zero allocations.
  void prepare(std::size_t n, const std::vector<double>& caps,
               bool keep_streaks) {
    const std::size_t cells = n * n;
    words = (n + 63) / 64;
    // A reuse hit means the n^2 arrays were already big enough — the
    // whole run proceeds allocation-free (reported as the
    // sim.sparse.workspace_reuse_hits metric).
    last_prepare_reused = gen[0].value.size() >= cells &&
                          (!keep_streaks || streak.size() >= cells);
    for (Generation& g : gen) {
      g.bits.assign(n * words, 0);
      g.value.resize(cells);
    }
    if (keep_streaks) streak.assign(cells, 0);

    capacities = caps;
    aspiration = caps;
    round_received.assign(n, 0.0);
    total_received.assign(n, 0.0);
    candidates.resize(n);
    eligible_strangers.clear();
    eligible_strangers.reserve(n);
    tie_priority.assign(n, 0);
    victim_scratch.clear();
    rank_entries.clear();
    rank_entries.reserve(n);
    candidate_window.resize(n);
  }
};

/// Streams one finished run's per-peer score spread into the swarm-health
/// sketches ("sim.score" quantiles + moments). Shared by all three engines
/// so the telemetry timeline reads the same regardless of engine choice;
/// pure observer — never touches RNG or outcome values.
inline void observe_score_spread(const std::vector<double>& peer_throughput) {
  if (!obs::enabled()) return;
  static const obs::QuantileSketch score =
      obs::SketchRegistry::global().sketch("sim.score");
  static const obs::MomentsAccumulator spread =
      obs::SketchRegistry::global().moments("sim.score");
  for (double value : peer_throughput) {
    score.insert(value);
    spread.insert(value);
  }
}

}  // namespace dsa::swarming
