// Definition of SimWorkspace::Impl — the epoch-stamped round-state layout
// shared by the sparse engine (simulator.cpp) and the batch-lockstep engine
// (batch_engine.cpp). Lives in its own header so both translation units see
// one Cell/Streak/Generation definition; everything here is an internal
// detail of the swarming library, not part of its public interface.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "obs/sketch/sketch.hpp"
#include "swarming/simulator.hpp"
#include "util/virtual_shuffle.hpp"

namespace dsa::swarming {

struct SimWorkspace::Impl {
  /// One generation of the interaction history. The now/prev/next roles
  /// rotate between rounds instead of copying. value[receiver * n + giver]
  /// carries a slot's bandwidth; the slot exists only while stamp matches
  /// the generation's epoch, so recycling a generation is an epoch bump
  /// plus list clears instead of an O(n^2) fill, and invalidating a churned
  /// peer's history is an O(n) stamp walk.
  /// A slot's bandwidth and the epoch stamp that says whether it is live.
  /// Packed together so a give or a stamped read touches one cache line.
  struct Cell {
    double value;
    std::uint64_t stamp;
  };
  struct Streak {
    std::uint64_t stamp;
    std::uint16_t value;
  };

  struct Generation {
    std::vector<Cell> cell;
    std::uint64_t epoch = 0;
    /// Per receiver: the givers that opened a slot to it this round, in
    /// ascending order (peers act in index order). Doubles as the round's
    /// touched-cell list — each ordered (giver, receiver) pair opens at
    /// most one slot per round.
    std::vector<std::vector<std::uint32_t>> in;
  };

  std::array<Generation, 3> gen;
  std::vector<Streak> streak;
  std::uint64_t streak_epoch = 0;
  /// Monotone epoch source, never reset: stamps written in earlier rounds
  /// or earlier runs can never collide with a live epoch, which is what
  /// makes cross-run reuse safe without clearing the O(n^2) arrays.
  std::uint64_t epoch_counter = 0;

  std::vector<double> capacities;
  std::vector<double> aspiration;
  std::vector<double> round_received;
  std::vector<double> total_received;

  // Per-peer scratch reused across rounds.
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> eligible_strangers;
  util::VirtualShuffle stranger_shuffle;
  std::vector<std::uint32_t> tie_priority;
  std::vector<std::uint32_t> victim_scratch;
  std::vector<double> intake_scale;

  /// One ranked candidate with its ordering key hoisted out, so the
  /// partial sort compares scalars instead of re-reading the stamped
  /// history matrices on every comparison.
  struct RankEntry {
    double key;
    std::uint32_t tie;
    std::uint32_t id;
  };
  std::vector<RankEntry> rank_entries;
  std::vector<std::uint32_t> excluded_scratch;
  /// Window bandwidth per candidate, aligned with `candidates` at build
  /// time — the Fastest/Slowest ranking key without re-reading the
  /// history matrices.
  std::vector<double> candidate_window;

  std::uint64_t next_epoch() noexcept { return ++epoch_counter; }

  /// True when the last prepare() found the O(n^2) arrays already sized.
  bool last_prepare_reused = false;

  /// Readies the workspace for a fresh n-peer run. O(n) work and, once the
  /// buffers have grown to this n, zero allocations.
  void prepare(std::size_t n, const std::vector<double>& caps) {
    const std::size_t cells = n * n;
    // A reuse hit means the epoch-stamped arrays were already big enough —
    // the whole run proceeds allocation-free (reported as the
    // sim.sparse.workspace_reuse_hits metric).
    last_prepare_reused =
        gen[0].cell.size() >= cells && streak.size() >= cells;
    for (Generation& g : gen) {
      g.cell.resize(cells);
      g.epoch = next_epoch();
      // Clear every receiver list, including ones beyond this run's n left
      // over from an earlier, larger run.
      for (auto& list : g.in) list.clear();
      g.in.resize(n);
    }
    streak.resize(cells);
    streak_epoch = next_epoch();

    capacities = caps;
    aspiration = caps;
    round_received.assign(n, 0.0);
    total_received.assign(n, 0.0);
    candidates.clear();
    candidates.reserve(n);
    eligible_strangers.clear();
    eligible_strangers.reserve(n);
    tie_priority.assign(n, 0);
    victim_scratch.clear();
    intake_scale.assign(n, 0.0);
    rank_entries.clear();
    rank_entries.reserve(n);
    excluded_scratch.clear();
    excluded_scratch.reserve(n);
    candidate_window.clear();
    candidate_window.reserve(n);
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
