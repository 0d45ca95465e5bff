#include "swarming/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "swarming/engine_detail.hpp"
#include "util/rng.hpp"
#include "util/virtual_shuffle.hpp"

namespace dsa::swarming {

// ------------------------------------------------------------ workspace --

struct BatchWorkspace::Impl {
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

  /// One generation of a lane's interaction history. The now/prev/next
  /// roles rotate between rounds instead of copying. cell[receiver * n +
  /// giver] carries a slot's bandwidth; the slot exists only while its
  /// stamp matches the generation's epoch, so recycling a generation is an
  /// epoch bump plus list clears instead of an O(n^2) fill, and
  /// invalidating a churned peer's history is an O(n) stamp walk.
  struct Generation {
    std::vector<Cell> cell;
    std::uint64_t epoch = 0;
    /// Per receiver: the givers that opened a slot to it this round, in
    /// ascending order (peers act in index order). Doubles as the round's
    /// touched-cell list — each ordered (giver, receiver) pair opens at
    /// most one slot per round.
    std::vector<std::vector<std::uint32_t>> in;
  };

  /// One lane's interaction history: epoch-stamped generations and a
  /// streak table, private to the lane. Histories stay array-of-lanes
  /// (act() walks one lane's in-lists at a time); only the per-peer
  /// scalars below transpose into W-wide lanes.
  struct LaneHist {
    std::array<Generation, 3> gen;
    std::vector<Streak> streak;
    std::uint64_t streak_epoch = 0;
  };

  std::vector<LaneHist> lane;
  /// Monotone epoch source shared by every lane, never reset: stamps
  /// written in earlier rounds or earlier runs can never collide with a
  /// live epoch, which is what makes cross-run reuse safe without clearing
  /// the O(n^2) arrays.
  std::uint64_t epoch_counter = 0;

  std::size_t width = 0;  // W of the current batch
  std::size_t n = 0;      // population size of the current batch

  // W-wide per-peer state lanes, indexed [peer * width + w] so the batch
  // dimension is contiguous and the lockstep update loops vectorize.
  std::vector<double> capacities;
  std::vector<double> aspiration;
  std::vector<double> round_received;
  std::vector<double> total_received;
  /// max(1.0, partner_slots) per (peer, lane) — protocols never change
  /// within a run, so the aspiration divisor is precomputed once. Values
  /// only; the division itself stays in the round loop so the arithmetic
  /// matches the scalar engines bit-for-bit.
  std::vector<double> slots;
  std::vector<std::uint32_t> tie_priority;  // [peer * width + w]
  std::vector<std::uint64_t> draw_buf;      // width-sized next_all target
  std::vector<std::uint64_t> seed_scratch;
  util::LaneRng rng;

  // Transient scratch shared across lanes: each buffer is only live inside
  // one lane's act()/fault step, so lanes can safely take turns with them.
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> eligible_strangers;
  util::VirtualShuffle stranger_shuffle;
  std::vector<std::uint32_t> victim_scratch;
  std::vector<double> intake_scale;
  std::vector<RankEntry> rank_entries;
  std::vector<std::uint32_t> excluded_scratch;
  std::vector<double> candidate_window;

  std::uint64_t next_epoch() noexcept { return ++epoch_counter; }

  /// True when the last prepare() found every O(n^2) array already sized.
  bool last_prepare_reused = false;

  /// Readies the workspace for a W-lane, n-peer batch. Zero allocations
  /// once the buffers have grown to this (W, n).
  void prepare(std::span<const BatchLane> lanes) {
    width = lanes.size();
    n = lanes.front().protocols->size();
    const std::size_t cells = n * n;

    last_prepare_reused = lane.size() >= width;
    if (lane.size() < width) lane.resize(width);
    for (std::size_t w = 0; w < width; ++w) {
      LaneHist& h = lane[w];
      last_prepare_reused = last_prepare_reused &&
                            h.gen[0].cell.size() >= cells &&
                            h.streak.size() >= cells;
      for (Generation& g : h.gen) {
        g.cell.resize(cells);
        g.epoch = next_epoch();
        for (auto& list : g.in) list.clear();
        g.in.resize(n);
      }
      h.streak.resize(cells);
      h.streak_epoch = next_epoch();
    }

    const std::size_t wide = n * width;
    capacities.resize(wide);
    aspiration.resize(wide);
    slots.resize(wide);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t w = 0; w < width; ++w) {
        const double cap = (*lanes[w].capacities)[i];
        capacities[i * width + w] = cap;
        aspiration[i * width + w] = cap;
        slots[i * width + w] = std::max<double>(
            1.0, (*lanes[w].protocols)[i].partner_slots);
      }
    }
    round_received.assign(wide, 0.0);
    total_received.assign(wide, 0.0);
    tie_priority.assign(wide, 0);
    draw_buf.resize(width);
    seed_scratch.resize(width);
    for (std::size_t w = 0; w < width; ++w) seed_scratch[w] = lanes[w].seed;
    rng.reset(seed_scratch);

    candidates.clear();
    candidates.reserve(n);
    eligible_strangers.clear();
    eligible_strangers.reserve(n);
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

BatchWorkspace::BatchWorkspace() : impl_(std::make_unique<Impl>()) {}
BatchWorkspace::~BatchWorkspace() = default;
BatchWorkspace::BatchWorkspace(BatchWorkspace&&) noexcept = default;
BatchWorkspace& BatchWorkspace::operator=(BatchWorkspace&&) noexcept = default;

namespace {

/// The W-wide lockstep port of SparseEngine: per lane it executes the same
/// model steps, the same RNG draws, and the same floating-point expressions
/// in the same order as a solo sparse run with that lane's seed — the
/// equivalence tests assert bitwise identity at every width. The batch wins
/// come from the lockstep structure: the tie-priority draws bulk-advance
/// all W RNG streams per peer (LaneRng::next_all vectorizes), the
/// aspiration/accumulator update is one flat vectorizable loop over the
/// n*W state lanes, and the protocol/config tables stay hot across the
/// whole batch instead of being re-walked per run.
class BatchEngine {
  using Cell = BatchWorkspace::Impl::Cell;
  using Generation = BatchWorkspace::Impl::Generation;

 public:
  BatchEngine(std::span<const BatchLane> lanes,
              const SimulationConfig& config,
              const BandwidthDistribution* churn_source,
              BatchWorkspace::Impl& ws)
      : lanes_(lanes),
        config_(config),
        churn_source_(churn_source),
        n_(lanes.front().protocols->size()),
        W_(lanes.size()),
        ws_(ws) {
    ws_.prepare(lanes);
    peers_replaced_.assign(W_, 0);
    captures_.reserve(W_);
    for (std::size_t w = 0; w < W_; ++w) {
      captures_.push_back(
          std::make_unique<obs::RunCapture>(obs::Recorder::global()));
    }
  }

  std::vector<SimulationOutcome> run() {
    DSA_OBS_PHASE("sim/run");
    std::vector<SimulationOutcome> outcomes(W_);
    for (std::size_t w = 0; w < W_; ++w) {
      if (config_.record_round_series) {
        outcomes[w].round_throughput.reserve(config_.rounds);
      }
      if (captures_[w]->rounds()) {
        captures_[w]->emit({.kind = obs::EventKind::kRun,
                            .run = lanes_[w].seed,
                            .value = {{static_cast<double>(n_),
                                       static_cast<double>(config_.rounds),
                                       config_.churn_rate, 2.0}},
                            .label = "round",
                            .detail = captures_[w]->context()});
      }
    }
    {
      // Inner-loop span for the wall-clock sampler: one scope over the
      // whole lockstep round loop, so batch samples attribute as
      // sim/run;sim/rounds like the scalar engines.
      DSA_OBS_PHASE("sim/rounds");
      for (std::size_t round = 0; round < config_.rounds; ++round) {
        step(round);
        if (config_.record_round_series) {
          for (std::size_t w = 0; w < W_; ++w) {
            double round_mean = 0.0;
            for (std::size_t i = 0; i < n_; ++i) {
              round_mean += ws_.round_received[i * W_ + w];
            }
            outcomes[w].round_throughput.push_back(round_mean /
                                                   static_cast<double>(n_));
          }
        }
        if (captures_.front()->rounds() && captures_.front()->sampled(round)) {
          for (std::size_t w = 0; w < W_; ++w) {
            double round_mean = 0.0;
            for (std::size_t i = 0; i < n_; ++i) {
              round_mean += ws_.round_received[i * W_ + w];
            }
            captures_[w]->emit(
                {.kind = obs::EventKind::kRound,
                 .run = lanes_[w].seed,
                 .time = static_cast<std::uint32_t>(round),
                 .value = {{round_mean / static_cast<double>(n_),
                            static_cast<double>(peers_replaced_[w]), 0.0,
                            0.0}}});
          }
        }
      }
    }
    for (std::size_t w = 0; w < W_; ++w) {
      outcomes[w].peer_throughput.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        outcomes[w].peer_throughput[i] =
            ws_.total_received[i * W_ + w] /
            static_cast<double>(config_.rounds);
      }
      outcomes[w].peers_replaced = peers_replaced_[w];
      observe_score_spread(outcomes[w].peer_throughput);
      if (captures_[w]->rounds()) {
        for (std::size_t i = 0; i < n_; ++i) {
          captures_[w]->emit(
              {.kind = obs::EventKind::kPeer,
               .run = lanes_[w].seed,
               .actor = static_cast<std::uint32_t>(i),
               .value = {{ws_.capacities[i * W_ + w],
                          outcomes[w].peer_throughput[i], 0.0, 0.0}},
               .label = (*lanes_[w].protocols)[i].describe()});
        }
      }
    }
    flush_metrics();
    return outcomes;
  }

 private:
  [[nodiscard]] Generation& gen(std::size_t w, int role) {
    return ws_.lane[w].gen[static_cast<std::size_t>(role)];
  }
  [[nodiscard]] const Generation& gen(std::size_t w, int role) const {
    return ws_.lane[w].gen[static_cast<std::size_t>(role)];
  }

  void step(std::size_t round) {
    std::fill(ws_.round_received.begin(),
              ws_.round_received.begin() +
                  static_cast<std::ptrdiff_t>(n_ * W_),
              0.0);
    // Tie-break draws in lockstep: for each peer j all W streams advance by
    // one draw, so per lane the draws land in the same positions as the
    // scalar engines' per-round fill — and the lane loop vectorizes.
    for (std::size_t j = 0; j < n_; ++j) {
      ws_.rng.next_all(ws_.draw_buf.data());
      std::uint32_t* tie = &ws_.tie_priority[j * W_];
      const std::uint64_t* buf = ws_.draw_buf.data();
      for (std::size_t w = 0; w < W_; ++w) {
        tie[w] = static_cast<std::uint32_t>(buf[w]);
      }
    }

    round_ = static_cast<std::uint32_t>(round);
    // All captures latched the same level at construction, so one flag
    // covers the batch. act() stays templated on it as in the scalar
    // engines: the non-recording instantiation carries no emit code.
    const bool record_full =
        captures_.front()->full() && captures_.front()->sampled(round);
    for (std::size_t me = 0; me < n_; ++me) {
      for (std::size_t w = 0; w < W_; ++w) {
        if (record_full) {
          act<true>(w, me);
        } else {
          act<false>(w, me);
        }
      }
    }

    finish_round(round);
  }

  /// Candidate list of `me` on lane `w`, in ascending peer order: the
  /// lane's ascending giver lists merged, keeping givers whose slot is
  /// still live in either generation.
  void build_candidates(std::size_t w, std::size_t me, bool two_rounds) {
    auto& candidates = ws_.candidates;
    candidates.clear();
    ws_.candidate_window.clear();
    const Generation& now = gen(w, now_);
    const std::size_t base = me * n_;
    auto push = [&](std::uint32_t j, double window) {
      candidates.push_back(j);
      ws_.candidate_window.push_back(window);
    };
    const std::vector<std::uint32_t>& now_in = now.in[me];
    if (!two_rounds) {
      for (const std::uint32_t j : now_in) {
        const Cell& cell = now.cell[base + j];
        if (cell.stamp == now.epoch) push(j, cell.value);
      }
      return;
    }
    const Generation& prev = gen(w, prev_);
    const std::vector<std::uint32_t>& prev_in = prev.in[me];
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < now_in.size() || b < prev_in.size()) {
      if (b == prev_in.size() ||
          (a < now_in.size() && now_in[a] < prev_in[b])) {
        const std::uint32_t j = now_in[a++];
        const Cell& cell = now.cell[base + j];
        if (cell.stamp == now.epoch) push(j, cell.value + 0.0);
      } else if (a == now_in.size() || prev_in[b] < now_in[a]) {
        const std::uint32_t j = prev_in[b++];
        const Cell& cell = prev.cell[base + j];
        if (cell.stamp == prev.epoch) push(j, 0.0 + cell.value);
      } else {
        const std::uint32_t j = now_in[a];
        ++a;
        ++b;
        const Cell& now_cell = now.cell[base + j];
        const Cell& prev_cell = prev.cell[base + j];
        const bool now_live = now_cell.stamp == now.epoch;
        const bool prev_live = prev_cell.stamp == prev.epoch;
        if (now_live || prev_live) {
          double window = now_live ? now_cell.value : 0.0;
          window += prev_live ? prev_cell.value : 0.0;
          push(j, window);
        }
      }
    }
  }

  template <bool kRecordFull>
  void act(std::size_t w, std::size_t me) {
    const ProtocolSpec& spec = (*lanes_[w].protocols)[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list.
    build_candidates(w, me, two_rounds);
    auto& candidates = ws_.candidates;
    candidates_scanned_ += candidates.size();
    ws_.excluded_scratch.assign(candidates.begin(), candidates.end());

    // 2. Rank and select the top k partners.
    const std::size_t k = spec.partner_slots;
    std::size_t partner_count = std::min(k, candidates.size());
    if (partner_count > 0) rank_candidates(w, me, spec, partner_count);

    // 3. Strangers — same "when needed" fullness rule as the scalar engines.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (window_received(w, me, candidates[p], two_rounds) > 0.0) {
            ++contributing;
          }
        }
        wants_strangers = contributing < k;
      }
      if (wants_strangers) {
        stranger_count = pick_strangers(w, me, spec.stranger_slots);
      }
    }

    // 4. Allocation over FIXED lanes (see DenseEngine::act for the paper
    // rationale; the arithmetic is operation-for-operation the same).
    const bool defects_on_strangers =
        spec.stranger_policy == StrangerPolicy::kDefect;
    const std::size_t gifted_strangers =
        defects_on_strangers ? 0 : stranger_count;
    const std::size_t partner_lanes =
        config_.lane_model == LaneModel::kFixedLanes ? k : partner_count;
    const std::size_t lanes = partner_lanes + gifted_strangers;
    if constexpr (kRecordFull) {
      captures_[w]->emit({.kind = obs::EventKind::kSelect,
                          .run = lanes_[w].seed,
                          .time = round_,
                          .actor = static_cast<std::uint32_t>(me),
                          .value = {{static_cast<double>(candidates.size()),
                                     static_cast<double>(partner_count),
                                     static_cast<double>(stranger_count),
                                     static_cast<double>(lanes)}}});
    }
    auto record_give = [&](obs::EventKind kind, std::uint32_t to,
                           double amount) {
      if constexpr (!kRecordFull) {
        (void)kind;
        (void)to;
        (void)amount;
        return;
      } else {
        obs::Event event{.kind = kind,
                         .run = lanes_[w].seed,
                         .time = round_,
                         .actor = static_cast<std::uint32_t>(me),
                         .peer = to};
        event.value[0] = amount;
        if (kind == obs::EventKind::kPartner) {
          event.value[1] = window_received(w, me, to, two_rounds);
        }
        captures_[w]->emit(std::move(event));
      }
    };
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(w, me, ws_.eligible_strangers[s], 0.0);  // visible defection
        record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s],
                    0.0);
      }
    }
    if (lanes == 0) return;

    const double capacity = ws_.capacities[me * W_ + w];
    const double lane_rate = capacity / static_cast<double>(lanes);
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(w, me, ws_.eligible_strangers[s], gift);
      record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s], gift);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(w, me, candidates[p], lane_rate);
          record_give(obs::EventKind::kPartner, candidates[p], lane_rate);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum +=
              window_received(w, me, candidates[p], two_rounds);
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          const double share =
              contribution_sum > 0.0
                  ? partner_budget *
                        window_received(w, me, candidates[p], two_rounds) /
                        contribution_sum
                  : 0.0;
          give(w, me, candidates[p], share);
          record_give(obs::EventKind::kPartner, candidates[p], share);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(w, me, candidates[p], 0.0);
          record_give(obs::EventKind::kPartner, candidates[p], 0.0);
        }
        break;
      }
    }
  }

  [[nodiscard]] double window_received(std::size_t w, std::size_t me,
                                       std::size_t j, bool two_rounds) const {
    const std::size_t idx = me * n_ + j;
    const Generation& now = gen(w, now_);
    const Cell& now_cell = now.cell[idx];
    double amount = now_cell.stamp == now.epoch ? now_cell.value : 0.0;
    if (two_rounds) {
      const Generation& prev = gen(w, prev_);
      const Cell& prev_cell = prev.cell[idx];
      amount += prev_cell.stamp == prev.epoch ? prev_cell.value : 0.0;
    }
    return amount;
  }

  [[nodiscard]] double streak_of(std::size_t w, std::size_t me,
                                 std::size_t j) const {
    const BatchWorkspace::Impl::Streak& s = ws_.lane[w].streak[me * n_ + j];
    return s.stamp == ws_.lane[w].streak_epoch ? static_cast<double>(s.value)
                                               : 0.0;
  }

  void rank_candidates(std::size_t w, std::size_t me,
                       const ProtocolSpec& spec, std::size_t top) {
    auto& candidates = ws_.candidates;
    auto by_key = [&](auto key, bool descending) {
      auto cmp = [descending](const RankEntry& a, const RankEntry& b) {
        if (a.key != b.key) return descending ? a.key > b.key : a.key < b.key;
        if (a.tie != b.tie) return a.tie < b.tie;
        return a.id < b.id;
      };
      constexpr std::size_t kSmallTop = 16;  // design space: k <= 9
      const std::size_t count = candidates.size();
      if (top <= kSmallTop) {
        ++topk_boundary_scans_;
        RankEntry best[kSmallTop];
        std::size_t filled = 0;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint32_t j = candidates[i];
          const RankEntry e{key(i, j), ws_.tie_priority[j * W_ + w], j};
          if (filled == top && !cmp(e, best[top - 1])) continue;
          std::size_t pos = filled < top ? filled : top - 1;
          while (pos > 0 && cmp(e, best[pos - 1])) {
            best[pos] = best[pos - 1];
            --pos;
          }
          best[pos] = e;
          if (filled < top) ++filled;
        }
        for (std::size_t i = 0; i < top; ++i) candidates[i] = best[i].id;
        return;
      }
      auto& entries = ws_.rank_entries;
      entries.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t j = candidates[i];
        entries.push_back({key(i, j), ws_.tie_priority[j * W_ + w], j});
      }
      std::partial_sort(entries.begin(), entries.begin() + top, entries.end(),
                        cmp);
      for (std::size_t i = 0; i < top; ++i) candidates[i] = entries[i].id;
    };
    switch (spec.ranking) {
      case RankingFunction::kFastest:
        by_key([&](std::size_t i, std::uint32_t) {
                 return ws_.candidate_window[i];
               },
               /*descending=*/true);
        break;
      case RankingFunction::kSlowest:
        by_key([&](std::size_t i, std::uint32_t) {
                 return ws_.candidate_window[i];
               },
               /*descending=*/false);
        break;
      case RankingFunction::kProximity:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return std::fabs(ws_.capacities[j * W_ + w] -
                               ws_.capacities[me * W_ + w]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kAdaptive:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return std::fabs(ws_.capacities[j * W_ + w] -
                               ws_.aspiration[me * W_ + w]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kLoyal:
        by_key(
            [&](std::size_t, std::uint32_t j) { return streak_of(w, me, j); },
            /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        for (std::size_t i = 0; i < top; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(
                      ws_.rng.below(w, candidates.size() - i));
          std::swap(candidates[i], candidates[j]);
        }
        break;
    }
  }

  /// Virtual-list stranger picks, the same draws as
  /// SparseEngine::pick_strangers, taken from lane w's stream.
  std::size_t pick_strangers(std::size_t w, std::size_t me,
                             std::size_t want) {
    auto& excluded = ws_.excluded_scratch;
    const auto me_id = static_cast<std::uint32_t>(me);
    excluded.insert(std::lower_bound(excluded.begin(), excluded.end(), me_id),
                    me_id);
    const std::size_t eligible_size = n_ - excluded.size();

    auto base = [&](std::size_t x) {
      std::uint32_t value = static_cast<std::uint32_t>(x);
      for (const std::uint32_t e : excluded) {
        if (e <= value) ++value;
      }
      return value;
    };
    const std::size_t found = std::min(want, eligible_size);
    ws_.eligible_strangers.clear();
    ws_.stranger_shuffle.shuffle(
        eligible_size, found, base,
        [this, w](std::size_t bound) { return ws_.rng.below(w, bound); },
        ws_.eligible_strangers);
    return found;
  }

  /// Opens a slot from `me` to `to` on lane `w` carrying `amount`.
  void give(std::size_t w, std::size_t me, std::size_t to, double amount) {
    Generation& next = gen(w, next_);
    next.cell[to * n_ + me] = {amount, next.epoch};
    next.in[to].push_back(static_cast<std::uint32_t>(me));
    ws_.round_received[to * W_ + w] += amount;
  }

  void finish_round(std::size_t round) {
    auto& round_received = ws_.round_received;

    // Receiver intake cap, lane by lane over the touched cells — the same
    // arithmetic as the scalar engines per lane.
    if (config_.intake_factor > 0.0) {
      for (std::size_t w = 0; w < W_; ++w) {
        Generation& next = gen(w, next_);
        bool any_capped = false;
        for (std::size_t j = 0; j < n_; ++j) {
          const double intake =
              config_.intake_factor * ws_.capacities[j * W_ + w];
          if (round_received[j * W_ + w] <= intake) {
            ws_.intake_scale[j] = -1.0;  // sentinel: not capped
            continue;
          }
          ws_.intake_scale[j] = intake / round_received[j * W_ + w];
          round_received[j * W_ + w] = intake;
          any_capped = true;
        }
        if (any_capped) {
          for (std::size_t to = 0; to < n_; ++to) {
            const double scale = ws_.intake_scale[to];
            if (scale < 0.0) continue;
            const std::size_t base = to * n_;
            for (const std::uint32_t giver : next.in[to]) {
              next.cell[base + giver].value *= scale;
            }
          }
        }
      }
    }

    // Shift the history window: the role rotation is shared by all lanes;
    // each lane's recycled generation gets its own fresh epoch.
    const int recycled = prev_;
    prev_ = now_;
    now_ = next_;
    next_ = recycled;
    for (std::size_t w = 0; w < W_; ++w) {
      Generation& fresh = gen(w, next_);
      fresh.epoch = ws_.next_epoch();
      for (std::size_t j = 0; j < n_; ++j) fresh.in[j].clear();
    }

    // Cooperation streaks per lane, over the cells touched this round.
    for (std::size_t w = 0; w < W_; ++w) {
      const Generation& now = gen(w, now_);
      auto& hist = ws_.lane[w];
      const std::uint64_t new_streak_epoch = ws_.next_epoch();
      for (std::size_t to = 0; to < n_; ++to) {
        const std::size_t base = to * n_;
        for (const std::uint32_t giver : now.in[to]) {
          const std::size_t idx = base + giver;
          if (now.cell[idx].value > 0.0) {
            BatchWorkspace::Impl::Streak& s = hist.streak[idx];
            const int prev_streak =
                s.stamp == hist.streak_epoch ? s.value : 0;
            s.value = static_cast<std::uint16_t>(
                std::min<int>(prev_streak + 1, 0xffff));
            s.stamp = new_streak_epoch;
          }
        }
      }
      hist.streak_epoch = new_streak_epoch;
    }

    // Aspiration tracking and the received accumulators: one flat loop over
    // all n*W state lanes — the vectorized heart of the lockstep update.
    // The expression keeps the scalar engines' exact shape (divide by the
    // precomputed slot count, then one smoothing step), so each lane's
    // floating-point results are bit-equal to its solo run.
    {
      const double smoothing = config_.aspiration_smoothing;
      const std::size_t wide = n_ * W_;
      const double* slots = ws_.slots.data();
      double* rr = round_received.data();
      double* asp = ws_.aspiration.data();
      double* tr = ws_.total_received.data();
      for (std::size_t idx = 0; idx < wide; ++idx) {
        const double per_slot = rr[idx] / slots[idx];
        asp[idx] += smoothing * (per_slot - asp[idx]);
        tr[idx] += rr[idx];
      }
    }

    // Churn, then scheduled fault processes — per lane, same draw order as
    // the scalar engines.
    for (std::size_t w = 0; w < W_; ++w) {
      if (config_.churn_rate > 0.0) {
        for (std::size_t i = 0; i < n_; ++i) {
          if (ws_.rng.chance(w, config_.churn_rate)) replace_peer(w, i);
        }
      }
      for (const fault::FaultProcess& process : config_.faults) {
        apply_fault(w, process, round);
      }
    }
  }

  void apply_fault(std::size_t w, const fault::FaultProcess& process,
                   std::size_t round) {
    using fault::FaultProcessKind;
    switch (process.kind) {
      case FaultProcessKind::kMemorylessChurn: {
        if (process.rate <= 0.0) break;
        for (std::size_t i = 0; i < n_; ++i) {
          if (ws_.rng.chance(w, process.rate)) replace_peer(w, i);
        }
        break;
      }
      case FaultProcessKind::kBurstChurn: {
        if ((round + 1) % process.period != 0) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        auto& victims = ws_.victim_scratch;
        victims.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victims[i] = static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < hit; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(ws_.rng.below(w, n_ - i));
          std::swap(victims[i], victims[j]);
          replace_peer(w, victims[i]);
        }
        break;
      }
      case FaultProcessKind::kCapacityDegradation: {
        if (round != process.round) break;
        for (std::size_t i = 0; i < n_; ++i) {
          ws_.capacities[i * W_ + w] *= process.factor;
        }
        break;
      }
      case FaultProcessKind::kTargetedFailure: {
        if (round != process.round) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        auto& victims = ws_.victim_scratch;
        victims.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victims[i] = static_cast<std::uint32_t>(i);
        }
        std::partial_sort(
            victims.begin(),
            victims.begin() +
                static_cast<std::ptrdiff_t>(std::min(hit, n_)),
            victims.end(), [&](std::uint32_t a, std::uint32_t b) {
              if (ws_.capacities[a * W_ + w] != ws_.capacities[b * W_ + w]) {
                return ws_.capacities[a * W_ + w] >
                       ws_.capacities[b * W_ + w];
              }
              return a < b;
            });
        for (std::size_t i = 0; i < std::min(hit, n_); ++i) {
          replace_peer(w, victims[i]);
        }
        break;
      }
    }
  }

  /// Replaces peer i on lane w with a fresh same-protocol peer; the O(n)
  /// stamp walk covers only that lane's history.
  void replace_peer(std::size_t w, std::size_t i) {
    ++peers_replaced_[w];
    // Mirrors BandwidthDistribution::sample — one uniform draw through the
    // inverse CDF — on lane w's stream.
    ws_.capacities[i * W_ + w] =
        churn_source_->capacity_at(ws_.rng.uniform(w));
    ws_.aspiration[i * W_ + w] = ws_.capacities[i * W_ + w];
    Generation& now = gen(w, now_);
    Generation& prev = gen(w, prev_);
    auto& streak = ws_.lane[w].streak;
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t row = i * n_ + j;
      const std::size_t col = j * n_ + i;
      now.cell[row].stamp = 0;
      now.cell[col].stamp = 0;
      prev.cell[row].stamp = 0;
      prev.cell[col].stamp = 0;
      streak[row].stamp = 0;
      streak[col].stamp = 0;
    }
  }

  std::span<const BatchLane> lanes_;
  const SimulationConfig& config_;
  const BandwidthDistribution* churn_source_;
  const std::size_t n_;
  const std::size_t W_;
  BatchWorkspace::Impl& ws_;

  // Roles of every lane's gen entries; rotated once per round.
  int prev_ = 0;
  int now_ = 1;
  int next_ = 2;

  std::vector<std::size_t> peers_replaced_;
  // Plain local tallies, flushed to the metrics registry once per batch.
  std::size_t candidates_scanned_ = 0;
  std::size_t topk_boundary_scans_ = 0;

  // One flight-recorder capture per lane so events carry their lane's run
  // key; all latch the same level at construction.
  std::vector<std::unique_ptr<obs::RunCapture>> captures_;
  std::uint32_t round_ = 0;

  void flush_metrics() const {
    if (!obs::enabled()) return;
    static const obs::Counter batches =
        obs::Registry::global().counter("sim.batch.batches");
    static const obs::Counter runs =
        obs::Registry::global().counter("sim.batch.runs");
    static const obs::Counter rounds =
        obs::Registry::global().counter("sim.batch.rounds");
    static const obs::Counter scanned =
        obs::Registry::global().counter("sim.batch.candidates_scanned");
    static const obs::Counter boundary =
        obs::Registry::global().counter("sim.batch.topk_boundary_scans");
    static const obs::Counter reuse =
        obs::Registry::global().counter("sim.batch.workspace_reuse_hits");
    static const obs::Counter replaced =
        obs::Registry::global().counter("sim.batch.peers_replaced");
    batches.increment();
    runs.add(W_);
    rounds.add(config_.rounds * W_);
    scanned.add(candidates_scanned_);
    boundary.add(topk_boundary_scans_);
    if (ws_.last_prepare_reused) reuse.increment();
    std::size_t total_replaced = 0;
    for (const std::size_t r : peers_replaced_) total_replaced += r;
    replaced.add(total_replaced);
  }
};

}  // namespace

std::vector<SimulationOutcome> simulate_rounds_batch(
    std::span<const BatchLane> lanes, const SimulationConfig& config,
    const BandwidthDistribution* churn_source, BatchWorkspace* workspace) {
  if (lanes.empty()) {
    throw std::invalid_argument("simulate_rounds_batch: empty batch");
  }
  const std::size_t n = lanes.front().protocols == nullptr
                            ? 0
                            : lanes.front().protocols->size();
  for (const BatchLane& lane : lanes) {
    if (lane.protocols == nullptr || lane.capacities == nullptr ||
        lane.protocols->empty() || lane.protocols->size() != n ||
        lane.capacities->size() != n) {
      throw std::invalid_argument(
          "simulate_rounds_batch: every lane needs equal-length, non-empty "
          "protocols/capacities of one shared population size");
    }
  }
  config.validate();
  if (config.needs_churn_source() && churn_source == nullptr) {
    throw std::invalid_argument(
        "simulate_rounds_batch: replacing peers (churn_rate or a fault "
        "process) requires a bandwidth distribution");
  }
  if (workspace == nullptr) {
    // One reusable workspace per thread, as with the sparse engine.
    static thread_local BatchWorkspace shared;
    workspace = &shared;
  }
  BatchEngine engine(lanes, config, churn_source, workspace->impl());
  return engine.run();
}

void run_homogeneous_throughput_batch(const ProtocolSpec& spec,
                                      std::size_t count,
                                      const SimulationConfig& config,
                                      const BandwidthDistribution& bandwidths,
                                      std::span<const std::uint64_t> seeds,
                                      std::span<double> out) {
  if (count == 0) {
    throw std::invalid_argument("run_homogeneous_throughput_batch: empty swarm");
  }
  if (seeds.size() != out.size()) {
    throw std::invalid_argument(
        "run_homogeneous_throughput_batch: seeds/out size mismatch");
  }
  if (seeds.empty()) return;
  const std::vector<ProtocolSpec> protocols(count, spec);
  std::vector<std::vector<double>> capacities(seeds.size());
  std::vector<BatchLane> lanes(seeds.size());
  for (std::size_t w = 0; w < seeds.size(); ++w) {
    capacities[w] = shuffled_capacities(count, bandwidths, seeds[w]);
    lanes[w] = {&protocols, &capacities[w], seeds[w]};
  }
  const std::vector<SimulationOutcome> outcomes =
      simulate_rounds_batch(lanes, config, &bandwidths);
  for (std::size_t w = 0; w < seeds.size(); ++w) {
    out[w] = outcomes[w].population_mean();
  }
}

void run_encounter_batch(const ProtocolSpec& a, std::size_t count_a,
                         std::size_t count_b, const SimulationConfig& config,
                         const BandwidthDistribution& bandwidths,
                         std::span<const BatchEncounter> encounters,
                         std::span<EncounterOutcome> out) {
  if (count_a == 0 || count_b == 0) {
    throw std::invalid_argument(
        "run_encounter_batch: both groups must be non-empty");
  }
  if (encounters.size() != out.size()) {
    throw std::invalid_argument(
        "run_encounter_batch: encounters/out size mismatch");
  }
  if (encounters.empty()) return;
  const std::size_t n = count_a + count_b;
  std::vector<std::vector<ProtocolSpec>> protocols(encounters.size());
  std::vector<std::vector<double>> capacities(encounters.size());
  std::vector<BatchLane> lanes(encounters.size());
  for (std::size_t w = 0; w < encounters.size(); ++w) {
    protocols[w].reserve(n);
    protocols[w].insert(protocols[w].end(), count_a, a);
    protocols[w].insert(protocols[w].end(), count_b, encounters[w].opponent);
    capacities[w] = shuffled_capacities(n, bandwidths, encounters[w].seed);
    lanes[w] = {&protocols[w], &capacities[w], encounters[w].seed};
  }
  const std::vector<SimulationOutcome> outcomes =
      simulate_rounds_batch(lanes, config, &bandwidths);
  for (std::size_t w = 0; w < encounters.size(); ++w) {
    out[w].group_a_mean = outcomes[w].group_mean(0, count_a);
    out[w].group_b_mean = outcomes[w].group_mean(count_a, n);
  }
}

}  // namespace dsa::swarming
