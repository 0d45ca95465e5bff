#include "swarming/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "swarming/batch_engine.hpp"
#include "swarming/engine_detail.hpp"

namespace dsa::swarming {

void SimulationConfig::validate() const {
  if (rounds == 0) {
    throw std::invalid_argument("SimulationConfig.rounds: must be > 0");
  }
  if (!(churn_rate >= 0.0 && churn_rate <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.churn_rate: must be in [0, 1]");
  }
  if (!(aspiration_smoothing >= 0.0 && aspiration_smoothing <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.aspiration_smoothing: must be in [0, 1]");
  }
  if (!(stranger_efficiency >= 0.0 && stranger_efficiency <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.stranger_efficiency: must be in [0, 1]");
  }
  if (!(intake_factor >= 0.0)) {
    throw std::invalid_argument(
        "SimulationConfig.intake_factor: must be >= 0");
  }
  for (const fault::FaultProcess& process : faults) process.validate();
}

bool SimulationConfig::needs_churn_source() const noexcept {
  if (churn_rate > 0.0) return true;
  for (const fault::FaultProcess& process : faults) {
    if (process.replaces_peers()) return true;
  }
  return false;
}

double SimulationOutcome::group_mean(std::size_t begin, std::size_t end) const {
  if (begin >= end || end > peer_throughput.size()) {
    throw std::invalid_argument("SimulationOutcome::group_mean: bad range");
  }
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += peer_throughput[i];
  return sum / static_cast<double>(end - begin);
}

double SimulationOutcome::population_mean() const {
  return group_mean(0, peer_throughput.size());
}

// ------------------------------------------------------------ workspace --
// SimWorkspace::Impl itself is defined in engine_detail.hpp.

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

namespace {

/// The original (seed) implementation: all mutable per-run state laid out as
/// dense n^2 matrices refilled every round, freshly allocated per run.
/// Matrices are indexed [receiver * n + giver] so that one peer's view of
/// everyone who served it is a contiguous row. Kept verbatim as the
/// reference the sparse engine is tested bitwise-identical against, and as
/// the "before" side of bench_sweep_throughput.
class DenseEngine {
 public:
  DenseEngine(const std::vector<ProtocolSpec>& protocols,
              const std::vector<double>& capacities,
              const SimulationConfig& config,
              const BandwidthDistribution* churn_source)
      : protocols_(protocols),
        capacities_(capacities),
        config_(config),
        churn_source_(churn_source),
        n_(protocols.size()),
        rng_(config.seed),
        received_now_(n_ * n_, 0.0),
        received_prev_(n_ * n_, 0.0),
        received_next_(n_ * n_, 0.0),
        interacted_now_(n_ * n_, 0),
        interacted_prev_(n_ * n_, 0),
        interacted_next_(n_ * n_, 0),
        streak_(n_ * n_, 0),
        aspiration_(capacities),
        round_received_(n_, 0.0),
        total_received_(n_, 0.0) {
    candidates_.reserve(n_);
    eligible_strangers_.reserve(n_);
    is_candidate_.assign(n_, 0);
    tie_priority_.assign(n_, 0);
  }

  SimulationOutcome run() {
    DSA_OBS_PHASE("sim/run");
    SimulationOutcome outcome;
    if (config_.record_round_series) {
      outcome.round_throughput.reserve(config_.rounds);
    }
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kRun,
                     .run = config_.seed,
                     .value = {{static_cast<double>(n_),
                                static_cast<double>(config_.rounds),
                                config_.churn_rate, 0.0}},
                     .label = "round",
                     .detail = capture_.context()});
    }
    {
      // The inner-loop span: a wall-clock sample landing anywhere in the
      // round loop attributes as sim/run;sim/rounds (one span per run, so
      // the disabled path stays a single branch).
      DSA_OBS_PHASE("sim/rounds");
      for (std::size_t round = 0; round < config_.rounds; ++round) {
        step(round);
        if (config_.record_round_series) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) round_mean += round_received_[i];
          outcome.round_throughput.push_back(round_mean /
                                             static_cast<double>(n_));
        }
        if (capture_.rounds() && capture_.sampled(round)) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) round_mean += round_received_[i];
          capture_.emit({.kind = obs::EventKind::kRound,
                         .run = config_.seed,
                         .time = static_cast<std::uint32_t>(round),
                         .value = {{round_mean / static_cast<double>(n_),
                                    static_cast<double>(peers_replaced_), 0.0,
                                    0.0}}});
        }
      }
    }
    outcome.peer_throughput.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      outcome.peer_throughput[i] =
          total_received_[i] / static_cast<double>(config_.rounds);
    }
    outcome.peers_replaced = peers_replaced_;
    observe_score_spread(outcome.peer_throughput);
    if (capture_.rounds()) {
      for (std::size_t i = 0; i < n_; ++i) {
        capture_.emit({.kind = obs::EventKind::kPeer,
                       .run = config_.seed,
                       .actor = static_cast<std::uint32_t>(i),
                       .value = {{capacities_[i], outcome.peer_throughput[i],
                                  0.0, 0.0}},
                       .label = protocols_[i].describe()});
      }
    }
    flush_metrics();
    return outcome;
  }

 private:
  void step(std::size_t round) {
    std::fill(round_received_.begin(), round_received_.end(), 0.0);
    std::fill(received_next_.begin(), received_next_.end(), 0.0);
    std::fill(interacted_next_.begin(), interacted_next_.end(), 0);
    // Fresh random ranking tie-breaks each round; a fixed (e.g. index-based)
    // order would funnel every all-zero-tied choice onto the same peers.
    for (auto& priority : tie_priority_) {
      priority = static_cast<std::uint32_t>(rng_());
    }

    round_ = static_cast<std::uint32_t>(round);
    // act() is templated on the record flag, and the dispatch sits outside
    // the peer loop, so the non-recording round compiles to exactly the
    // pre-recorder hot path — the emit sites must not cost codegen (or
    // loop shape) when recording is off.
    if (capture_.full() && capture_.sampled(round)) {
      for (std::size_t me = 0; me < n_; ++me) act<true>(me);
    } else {
      for (std::size_t me = 0; me < n_; ++me) act<false>(me);
    }

    finish_round(round);
  }

  /// Peer `me` selects partners/strangers and allocates its capacity,
  /// reading only the *_now_ / *_prev_ state and writing *_next_.
  /// noinline+flatten: keeps each instantiation a standalone function with
  /// rank_candidates/pick_strangers inlined into it — the same codegen
  /// shape as the pre-template build. Without this the inliner splits the
  /// helpers out (they now have two callers), costing ~3% on the dense
  /// engine's bench_sweep_throughput path.
  template <bool kRecordFull>
  [[gnu::noinline]] [[gnu::flatten]] void act(std::size_t me) {
    const ProtocolSpec& spec = protocols_[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list: everyone that interacted with me in the window.
    candidates_.clear();
    const std::uint8_t* now_row = &interacted_now_[me * n_];
    const std::uint8_t* prev_row = &interacted_prev_[me * n_];
    for (std::size_t j = 0; j < n_; ++j) {
      const bool known = now_row[j] || (two_rounds && prev_row[j]);
      is_candidate_[j] = known ? 1 : 0;
      if (known) candidates_.push_back(static_cast<std::uint32_t>(j));
    }
    candidates_scanned_ += n_;  // the dense build always walks the full row

    // 2. Rank and select the top k partners.
    const std::size_t k = spec.partner_slots;
    std::size_t partner_count = std::min(k, candidates_.size());
    if (partner_count > 0) rank_candidates(me, spec, partner_count);

    // 3. Strangers. "When needed" measures fullness in *contributing*
    // partners (positive receipts over the window): a partner set stuffed
    // with zero-giving candidates is not full, so the peer keeps recruiting
    // — otherwise freeriders could permanently lock it out of cooperation by
    // flooding its candidate list.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (window_received(me, candidates_[p], two_rounds) > 0.0) {
            ++contributing;
          }
        }
        wants_strangers = contributing < k;
      }
      if (wants_strangers) {
        stranger_count = pick_strangers(me, spec.stranger_slots);
      }
    }

    // 4. Allocation over FIXED lanes. The protocol's partner-slot count k is
    // one of its "magic numbers": capacity is split across k partner lanes
    // plus one lane per gifted stranger, and a partner lane with no partner
    // behind it simply wastes its bandwidth. This fixed-lane structure is
    // what makes low-k protocols the performance leaders (Fig. 3: filling 1
    // lane is easy, filling 9 is not) and caps partner-freeriders' utility
    // at their stranger-gift fraction (the ~0.31 ceiling of Sec. 4.4).
    // Defect-policy stranger contacts open no lane: defecting costs nothing.
    const bool defects_on_strangers =
        spec.stranger_policy == StrangerPolicy::kDefect;
    const std::size_t gifted_strangers =
        defects_on_strangers ? 0 : stranger_count;
    // Under kDivideAmongSelected the partner-lane count shrinks to the
    // partners actually present, so nothing is wasted (the ablation mode).
    const std::size_t partner_lanes =
        config_.lane_model == LaneModel::kFixedLanes ? k : partner_count;
    const std::size_t lanes = partner_lanes + gifted_strangers;
    // Decision events (full level, strided): pure reads of already-computed
    // values — no RNG, no sim-state writes.
    if constexpr (kRecordFull) {
      capture_.emit({.kind = obs::EventKind::kSelect,
                     .run = config_.seed,
                     .time = round_,
                     .actor = static_cast<std::uint32_t>(me),
                     .value = {{static_cast<double>(candidates_.size()),
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
                         .run = config_.seed,
                         .time = round_,
                         .actor = static_cast<std::uint32_t>(me),
                         .peer = to};
        event.value[0] = amount;
        if (kind == obs::EventKind::kPartner) {
          event.value[1] = window_received(me, to, two_rounds);
        }
        capture_.emit(std::move(event));
      }
    };
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(me, eligible_strangers_[s], 0.0);  // visible defection
        record_give(obs::EventKind::kStranger, eligible_strangers_[s], 0.0);
      }
    }
    if (lanes == 0) return;

    const double capacity = capacities_[me];
    const double lane_rate = capacity / static_cast<double>(lanes);
    // Stranger lanes are short-lived probes; only a fraction of the lane's
    // bandwidth reaches the stranger (see SimulationConfig).
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(me, eligible_strangers_[s], gift);
      record_give(obs::EventKind::kStranger, eligible_strangers_[s], gift);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        // One lane per partner; unfilled lanes (partner_count < k) waste.
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates_[p], lane_rate);
          record_give(obs::EventKind::kPartner, candidates_[p], lane_rate);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum += window_received(me, candidates_[p], two_rounds);
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          // An all-zero window gives nothing — the paper's bootstrap hazard.
          const double share =
              contribution_sum > 0.0
                  ? partner_budget *
                        window_received(me, candidates_[p], two_rounds) /
                        contribution_sum
                  : 0.0;
          give(me, candidates_[p], share);
          record_give(obs::EventKind::kPartner, candidates_[p], share);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates_[p], 0.0);
          record_give(obs::EventKind::kPartner, candidates_[p], 0.0);
        }
        break;
      }
    }
  }

  /// Bandwidth `me` observed from `j` over the candidate window.
  [[nodiscard]] double window_received(std::size_t me, std::size_t j,
                                       bool two_rounds) const {
    double amount = received_now_[me * n_ + j];
    if (two_rounds) amount += received_prev_[me * n_ + j];
    return amount;
  }

  /// Partially sorts candidates_ so its first `top` entries are the selected
  /// partners under `spec.ranking`. Ties break on peer index for
  /// reproducibility.
  void rank_candidates(std::size_t me, const ProtocolSpec& spec,
                       std::size_t top) {
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;
    auto by_key = [&](auto key, bool descending) {
      auto cmp = [&, descending](std::uint32_t a, std::uint32_t b) {
        const double ka = key(a);
        const double kb = key(b);
        if (ka != kb) return descending ? ka > kb : ka < kb;
        if (tie_priority_[a] != tie_priority_[b]) {
          return tie_priority_[a] < tie_priority_[b];
        }
        return a < b;
      };
      std::partial_sort(candidates_.begin(), candidates_.begin() + top,
                        candidates_.end(), cmp);
    };
    switch (spec.ranking) {
      case RankingFunction::kFastest:
        by_key([&](std::uint32_t j) { return window_received(me, j, two_rounds); },
               /*descending=*/true);
        break;
      case RankingFunction::kSlowest:
        by_key([&](std::uint32_t j) { return window_received(me, j, two_rounds); },
               /*descending=*/false);
        break;
      case RankingFunction::kProximity:
        by_key(
            [&](std::uint32_t j) {
              return std::fabs(capacities_[j] - capacities_[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kAdaptive:
        by_key(
            [&](std::uint32_t j) {
              return std::fabs(capacities_[j] - aspiration_[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kLoyal:
        by_key(
            [&](std::uint32_t j) {
              return static_cast<double>(streak_[me * n_ + j]);
            },
            /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        // A random draw of `top` candidates via partial Fisher-Yates.
        for (std::size_t i = 0; i < top; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(candidates_.size() - i));
          std::swap(candidates_[i], candidates_[j]);
        }
        break;
    }
  }

  /// Fills the front of eligible_strangers_ with up to `want` uniformly
  /// chosen peers outside the candidate list; returns how many were found.
  std::size_t pick_strangers(std::size_t me, std::size_t want) {
    eligible_strangers_.clear();
    for (std::size_t j = 0; j < n_; ++j) {
      if (j != me && !is_candidate_[j]) {
        eligible_strangers_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    const std::size_t found = std::min(want, eligible_strangers_.size());
    for (std::size_t i = 0; i < found; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(
                  rng_.below(eligible_strangers_.size() - i));
      std::swap(eligible_strangers_[i], eligible_strangers_[j]);
    }
    return found;
  }

  /// Opens a slot from `me` to `to` carrying `amount` (possibly zero).
  void give(std::size_t me, std::size_t to, double amount) {
    interacted_next_[to * n_ + me] = 1;
    received_next_[to * n_ + me] = amount;
    round_received_[to] += amount;
  }

  void finish_round(std::size_t round) {
    // Receiver intake cap: a peer absorbs at most intake_factor * capacity
    // per round; excess inbound is lost proportionally across senders.
    if (config_.intake_factor > 0.0) {
      for (std::size_t j = 0; j < n_; ++j) {
        const double intake = config_.intake_factor * capacities_[j];
        if (round_received_[j] <= intake) continue;
        const double scale = intake / round_received_[j];
        double* row = &received_next_[j * n_];
        for (std::size_t i = 0; i < n_; ++i) row[i] *= scale;
        round_received_[j] = intake;
      }
    }

    // Shift the history window.
    received_prev_.swap(received_now_);
    received_now_.swap(received_next_);
    interacted_prev_.swap(interacted_now_);
    interacted_now_.swap(interacted_next_);

    // Cooperation streaks (Loyal): consecutive rounds with a positive gift.
    for (std::size_t idx = 0; idx < n_ * n_; ++idx) {
      streak_[idx] = received_now_[idx] > 0.0
                         ? static_cast<std::uint16_t>(
                               std::min<int>(streak_[idx] + 1, 0xffff))
                         : std::uint16_t{0};
    }

    // Aspiration tracking (Adaptive): smooth toward this round's per-slot
    // receipts.
    for (std::size_t i = 0; i < n_; ++i) {
      const double slots =
          std::max<double>(1.0, protocols_[i].partner_slots);
      const double per_slot = round_received_[i] / slots;
      aspiration_[i] += config_.aspiration_smoothing *
                        (per_slot - aspiration_[i]);
      total_received_[i] += round_received_[i];
    }

    // Churn: replace peers with fresh same-protocol ones. The legacy knob
    // runs first (preserving the historical RNG draw order), then the
    // scheduled fault processes in list order.
    if (config_.churn_rate > 0.0) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (rng_.chance(config_.churn_rate)) replace_peer(i);
      }
    }
    for (const fault::FaultProcess& process : config_.faults) {
      apply_fault(process, round);
    }
  }

  void apply_fault(const fault::FaultProcess& process, std::size_t round) {
    using fault::FaultProcessKind;
    switch (process.kind) {
      case FaultProcessKind::kMemorylessChurn: {
        if (process.rate <= 0.0) break;
        for (std::size_t i = 0; i < n_; ++i) {
          if (rng_.chance(process.rate)) replace_peer(i);
        }
        break;
      }
      case FaultProcessKind::kBurstChurn: {
        // The burst strikes at the end of rounds period-1, 2*period-1, ...
        if ((round + 1) % process.period != 0) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        victim_scratch_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victim_scratch_[i] = static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < hit; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(n_ - i));
          std::swap(victim_scratch_[i], victim_scratch_[j]);
          replace_peer(victim_scratch_[i]);
        }
        break;
      }
      case FaultProcessKind::kCapacityDegradation: {
        if (round != process.round) break;
        for (std::size_t i = 0; i < n_; ++i) {
          capacities_[i] *= process.factor;
        }
        break;
      }
      case FaultProcessKind::kTargetedFailure: {
        if (round != process.round) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        // Take out exactly the top-capacity class (ties break on index so
        // replays are deterministic).
        victim_scratch_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victim_scratch_[i] = static_cast<std::uint32_t>(i);
        }
        std::partial_sort(victim_scratch_.begin(),
                          victim_scratch_.begin() +
                              static_cast<std::ptrdiff_t>(std::min(hit, n_)),
                          victim_scratch_.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            if (capacities_[a] != capacities_[b]) {
                              return capacities_[a] > capacities_[b];
                            }
                            return a < b;
                          });
        for (std::size_t i = 0; i < std::min(hit, n_); ++i) {
          replace_peer(victim_scratch_[i]);
        }
        break;
      }
    }
  }

  void replace_peer(std::size_t i) {
    ++peers_replaced_;
    capacities_[i] = churn_source_->sample(rng_);
    aspiration_[i] = capacities_[i];
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t row = i * n_ + j;
      const std::size_t col = j * n_ + i;
      for (auto* m : {&received_now_, &received_prev_}) {
        (*m)[row] = 0.0;
        (*m)[col] = 0.0;
      }
      for (auto* m : {&interacted_now_, &interacted_prev_}) {
        (*m)[row] = 0;
        (*m)[col] = 0;
      }
      streak_[row] = 0;
      streak_[col] = 0;
    }
    // The fresh peer's past downloads belong to the departed peer; the
    // paper measures population throughput, so the accumulator stays.
  }

  const std::vector<ProtocolSpec>& protocols_;
  std::vector<double> capacities_;
  const SimulationConfig& config_;
  const BandwidthDistribution* churn_source_;
  const std::size_t n_;
  util::Rng rng_;

  // History matrices, [receiver * n + giver].
  std::vector<double> received_now_, received_prev_, received_next_;
  std::vector<std::uint8_t> interacted_now_, interacted_prev_,
      interacted_next_;
  std::vector<std::uint16_t> streak_;

  std::vector<double> aspiration_;
  std::vector<double> round_received_;
  std::vector<double> total_received_;

  // Scratch buffers reused across rounds.
  std::vector<std::uint32_t> candidates_;
  std::vector<std::uint32_t> eligible_strangers_;
  std::vector<std::uint8_t> is_candidate_;
  std::vector<std::uint32_t> tie_priority_;
  std::vector<std::uint32_t> victim_scratch_;

  std::size_t peers_replaced_ = 0;
  // Plain local tallies, flushed to the metrics registry once per run —
  // the hot loops never touch an atomic.
  std::size_t candidates_scanned_ = 0;

  // Flight recorder: level/stride latched at construction, events buffered
  // locally and flushed once when the engine dies. Never touches rng_.
  obs::RunCapture capture_{obs::Recorder::global()};
  std::uint32_t round_ = 0;

  void flush_metrics() const {
    if (!obs::enabled()) return;
    static const obs::Counter runs =
        obs::Registry::global().counter("sim.dense.runs");
    static const obs::Counter rounds =
        obs::Registry::global().counter("sim.dense.rounds");
    static const obs::Counter scanned =
        obs::Registry::global().counter("sim.dense.candidates_scanned");
    static const obs::Counter replaced =
        obs::Registry::global().counter("sim.dense.peers_replaced");
    runs.increment();
    rounds.add(config_.rounds);
    scanned.add(candidates_scanned_);
    replaced.add(peers_replaced_);
  }
};

/// The production hot path: same model, same RNG draw sequence, same
/// floating-point operations in the same order as DenseEngine — the
/// simulator tests assert bitwise-identical outcomes — but with the state
/// held in a reusable SimWorkspace and per-round cost proportional to the
/// slots actually opened plus n·⌈n/64⌉ words of bit rows:
///
///  * Each history generation is one bit row per receiver (bit g: giver g
///    opened a slot this round) over a plain n^2 value array. The three
///    generations rotate roles; recycling one zeroes its bit rows.
///  * Candidate lists walk the set bits of now[me] (TF2T: now[me] |
///    prev[me]) in ascending order, which is the dense row scan's order;
///    the same words plus bit `me` are the stranger-exclusion set.
///  * Only the state some peer reads is kept: the streak table when a
///    Loyal ranker has partner slots, the aspiration levels when an
///    Adaptive one does, and the per-candidate window for Fastest/Slowest.
///    Protocols are fixed for a run and churn keeps a peer's protocol, so
///    this is decided once per run.
///  * Churn clears the churned peer's bit row and its bit in every row.
class SparseEngine {
  using Generation = SimWorkspace::Impl::Generation;

 public:
  SparseEngine(const std::vector<ProtocolSpec>& protocols,
               const std::vector<double>& capacities,
               const SimulationConfig& config,
               const BandwidthDistribution* churn_source,
               SimWorkspace::Impl& ws)
      : protocols_(protocols),
        config_(config),
        churn_source_(churn_source),
        n_(protocols.size()),
        rng_(config.seed),
        ws_(ws) {
    for (const ProtocolSpec& spec : protocols) {
      if (spec.partner_slots == 0) continue;
      keep_streaks_ |= spec.ranking == RankingFunction::kLoyal;
      keep_aspiration_ |= spec.ranking == RankingFunction::kAdaptive;
    }
    ws_.prepare(n_, capacities, keep_streaks_);
    words_ = ws_.words;
  }

  SimulationOutcome run() {
    DSA_OBS_PHASE("sim/run");
    SimulationOutcome outcome;
    if (config_.record_round_series) {
      outcome.round_throughput.reserve(config_.rounds);
    }
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kRun,
                     .run = config_.seed,
                     .value = {{static_cast<double>(n_),
                                static_cast<double>(config_.rounds),
                                config_.churn_rate, 1.0}},
                     .label = "round",
                     .detail = capture_.context()});
    }
    {
      DSA_OBS_PHASE("sim/rounds");
      for (std::size_t round = 0; round < config_.rounds; ++round) {
        step(round);
        if (config_.record_round_series) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) {
            round_mean += ws_.round_received[i];
          }
          outcome.round_throughput.push_back(round_mean /
                                             static_cast<double>(n_));
        }
        if (capture_.rounds() && capture_.sampled(round)) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) {
            round_mean += ws_.round_received[i];
          }
          capture_.emit({.kind = obs::EventKind::kRound,
                         .run = config_.seed,
                         .time = static_cast<std::uint32_t>(round),
                         .value = {{round_mean / static_cast<double>(n_),
                                    static_cast<double>(peers_replaced_), 0.0,
                                    0.0}}});
        }
      }
    }
    outcome.peer_throughput.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      outcome.peer_throughput[i] =
          ws_.total_received[i] / static_cast<double>(config_.rounds);
    }
    outcome.peers_replaced = peers_replaced_;
    observe_score_spread(outcome.peer_throughput);
    if (capture_.rounds()) {
      for (std::size_t i = 0; i < n_; ++i) {
        capture_.emit({.kind = obs::EventKind::kPeer,
                       .run = config_.seed,
                       .actor = static_cast<std::uint32_t>(i),
                       .value = {{ws_.capacities[i], outcome.peer_throughput[i],
                                  0.0, 0.0}},
                       .label = protocols_[i].describe()});
      }
    }
    flush_metrics();
    return outcome;
  }

 private:
  [[nodiscard]] Generation& gen(int role) { return ws_.gen[role]; }
  [[nodiscard]] const Generation& gen(int role) const { return ws_.gen[role]; }

  /// Receiver `me`'s bit row in the generation playing `role`.
  [[nodiscard]] const std::uint64_t* bit_row(int role, std::size_t me) const {
    return &gen(role).bits[me * words_];
  }

  [[nodiscard]] static bool has_bit(const std::uint64_t* row,
                                    std::size_t j) noexcept {
    return (row[j / 64] >> (j % 64)) & 1U;
  }

  void step(std::size_t round) {
    std::fill(ws_.round_received.begin(), ws_.round_received.end(), 0.0);
    // Same tie-break draws, in the same RNG positions, as the dense engine.
    for (auto& priority : ws_.tie_priority) {
      priority = static_cast<std::uint32_t>(rng_());
    }

    round_ = static_cast<std::uint32_t>(round);
    // act() is templated on the record flag so the non-recording
    // instantiation compiles to exactly the pre-recorder hot path — the
    // emit sites must not cost codegen when recording is off.
    const bool record_full = capture_.full() && capture_.sampled(round);
    for (std::size_t me = 0; me < n_; ++me) {
      if (record_full) {
        act<true>(me);
      } else {
        act<false>(me);
      }
    }

    finish_round(round);
  }

  /// Writes the candidate list of `me` — everyone with a slot to it in the
  /// window — to the front of ws_.candidates in ascending peer order,
  /// matching the dense row scan, and returns its length. With
  /// `record_window` each candidate's window bandwidth is recorded beside
  /// it, addend for addend what window_received() computes, so a ranking
  /// key read from candidate_window is bit-equal to recomputing it.
  std::size_t build_candidates(std::size_t me, bool two_rounds,
                               bool record_window) {
    std::uint32_t* candidates = ws_.candidates.data();
    double* windows = ws_.candidate_window.data();
    const std::uint64_t* now_bits = bit_row(now_, me);
    const std::uint64_t* prev_bits = bit_row(prev_, me);
    const double* now_value = &gen(now_).value[me * n_];
    const double* prev_value = &gen(prev_).value[me * n_];
    std::size_t count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t now_word = now_bits[w];
      const std::uint64_t prev_word = two_rounds ? prev_bits[w] : 0;
      for (std::uint64_t live = now_word | prev_word; live != 0;
           live &= live - 1) {
        const int bit = std::countr_zero(live);
        const auto j = static_cast<std::uint32_t>(w * 64 + bit);
        if (record_window) {
          double window = (now_word >> bit) & 1U ? now_value[j] : 0.0;
          if (two_rounds) {
            window += (prev_word >> bit) & 1U ? prev_value[j] : 0.0;
          }
          windows[count] = window;
        }
        candidates[count++] = j;
      }
    }
    return count;
  }

  template <bool kRecordFull>
  void act(std::size_t me) {
    const ProtocolSpec& spec = protocols_[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list (see build_candidates).
    const std::size_t candidate_count = build_candidates(
        me, two_rounds,
        spec.ranking == RankingFunction::kFastest ||
            spec.ranking == RankingFunction::kSlowest);
    const std::uint32_t* candidates = ws_.candidates.data();
    candidates_scanned_ += candidate_count;  // only live slots are touched

    // 2. Rank and select the top k partners. When every candidate is
    // selected, ranking only orders them, and only Prop Share's running
    // sum and Random's draws read that order: the gives go to distinct
    // receivers, and each receiver's sum still accumulates in `me` order.
    // A full recording ranks anyway, so its events are emitted in the
    // dense engine's order. No test observes this: the recorder sorts
    // events by peer before anything reads them.
    const std::size_t k = spec.partner_slots;
    std::size_t partner_count = std::min(k, candidate_count);
    const bool reads_order = kRecordFull ||
                             spec.allocation == AllocationPolicy::kPropShare ||
                             spec.ranking == RankingFunction::kRandom;
    if (partner_count > 0 && (partner_count < candidate_count || reads_order)) {
      rank_candidates(me, spec, candidate_count, partner_count);
    }

    // 3. Strangers — same "when needed" fullness rule as the dense engine.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (window_received(me, candidates[p], two_rounds) > 0.0) {
            ++contributing;
          }
        }
        wants_strangers = contributing < k;
      }
      if (wants_strangers) {
        stranger_count = pick_strangers(me, spec.stranger_slots, two_rounds,
                                        candidate_count);
      }
    }

    // 4. Allocation over FIXED lanes (see DenseEngine::act for the paper
    // rationale; the arithmetic here is operation-for-operation the same).
    const bool defects_on_strangers =
        spec.stranger_policy == StrangerPolicy::kDefect;
    const std::size_t gifted_strangers =
        defects_on_strangers ? 0 : stranger_count;
    const std::size_t partner_lanes =
        config_.lane_model == LaneModel::kFixedLanes ? k : partner_count;
    const std::size_t lanes = partner_lanes + gifted_strangers;
    // Decision events: same sites and payloads as the dense engine, so a
    // recording is engine-independent. Pure reads; rng_ is never touched.
    if constexpr (kRecordFull) {
      capture_.emit({.kind = obs::EventKind::kSelect,
                     .run = config_.seed,
                     .time = round_,
                     .actor = static_cast<std::uint32_t>(me),
                     .value = {{static_cast<double>(candidate_count),
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
                         .run = config_.seed,
                         .time = round_,
                         .actor = static_cast<std::uint32_t>(me),
                         .peer = to};
        event.value[0] = amount;
        if (kind == obs::EventKind::kPartner) {
          event.value[1] = window_received(me, to, two_rounds);
        }
        capture_.emit(std::move(event));
      }
    };
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(me, ws_.eligible_strangers[s], 0.0);  // visible defection
        record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s], 0.0);
      }
    }
    if (lanes == 0) return;

    const double capacity = ws_.capacities[me];
    const double lane_rate = capacity / static_cast<double>(lanes);
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(me, ws_.eligible_strangers[s], gift);
      record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s], gift);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates[p], lane_rate);
          record_give(obs::EventKind::kPartner, candidates[p], lane_rate);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum += window_received(me, candidates[p], two_rounds);
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          const double share =
              contribution_sum > 0.0
                  ? partner_budget *
                        window_received(me, candidates[p], two_rounds) /
                        contribution_sum
                  : 0.0;
          give(me, candidates[p], share);
          record_give(obs::EventKind::kPartner, candidates[p], share);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates[p], 0.0);
          record_give(obs::EventKind::kPartner, candidates[p], 0.0);
        }
        break;
      }
    }
  }

  /// Bandwidth `me` observed from `j` over the window; a slot whose bit is
  /// clear (never opened, recycled, or churned away) contributes 0.0.
  [[nodiscard]] double window_received(std::size_t me, std::size_t j,
                                       bool two_rounds) const {
    const std::size_t idx = me * n_ + j;
    double amount = has_bit(bit_row(now_, me), j) ? gen(now_).value[idx] : 0.0;
    if (two_rounds) {
      amount += has_bit(bit_row(prev_, me), j) ? gen(prev_).value[idx] : 0.0;
    }
    return amount;
  }

  /// Moves the selected `top` of the first `count` candidates to the
  /// front, in rank order.
  void rank_candidates(std::size_t me, const ProtocolSpec& spec,
                       std::size_t count, std::size_t top) {
    std::uint32_t* candidates = ws_.candidates.data();
    // The ordering (key, then tie priority, then index) is a strict total
    // order, so the selected top-k — and their order — is the same for any
    // correct selection algorithm; hoisting the keys out of the comparator
    // cannot change the result, only the cost per comparison.
    auto by_key = [&](auto key, bool descending) {
      auto cmp = [descending](const RankEntry& a, const RankEntry& b) {
        if (a.key != b.key) return descending ? a.key > b.key : a.key < b.key;
        if (a.tie != b.tie) return a.tie < b.tie;
        return a.id < b.id;
      };
      constexpr std::size_t kSmallTop = 16;  // design space: k <= 9
      if (top <= kSmallTop) {
        ++topk_boundary_scans_;
        // Boundary-scan selection: keep a sorted window of the best `top`
        // seen so far; most entries fail the single compare against the
        // window's worst and cost nothing more.
        RankEntry best[kSmallTop];
        std::size_t filled = 0;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint32_t j = candidates[i];
          const RankEntry e{key(i, j), ws_.tie_priority[j], j};
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
        entries.push_back({key(i, j), ws_.tie_priority[j], j});
      }
      std::partial_sort(entries.begin(), entries.begin() + top, entries.end(),
                        cmp);
      for (std::size_t i = 0; i < top; ++i) candidates[i] = entries[i].id;
    };
    // Keys take (position, id): Fastest/Slowest read the window recorded at
    // build time (bit-equal to window_received, see build_candidates), the
    // others derive from the id.
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
              return std::fabs(ws_.capacities[j] - ws_.capacities[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kAdaptive:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return std::fabs(ws_.capacities[j] - ws_.aspiration[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kLoyal:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return static_cast<double>(ws_.streak[me * n_ + j]);
            },
            /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        for (std::size_t i = 0; i < top; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(count - i));
          std::swap(candidates[i], candidates[j]);
        }
        break;
    }
  }

  /// Uniform strangers without materializing the eligible list. The dense
  /// engine builds `eligible` = ascending [0, n) minus {me} minus the
  /// candidates, then partially Fisher-Yates-shuffles its front; here the
  /// same draws (`below(eligible_size - i)`, identical arguments, identical
  /// order) index a *virtual* copy of that list through util::VirtualShuffle.
  /// The exclusion set is the candidate bit row (TF2T: now | prev) plus bit
  /// `me`, read in place.
  std::size_t pick_strangers(std::size_t me, std::size_t want, bool two_rounds,
                             std::size_t candidate_count) {
    const std::size_t eligible_size = n_ - candidate_count - 1;
    const std::uint64_t* now_bits = bit_row(now_, me);
    const std::uint64_t* prev_bits = bit_row(prev_, me);
    const std::uint64_t prev_mask = two_rounds ? ~std::uint64_t{0} : 0;
    const std::size_t me_word = me / 64;
    const std::uint64_t me_bit = std::uint64_t{1} << (me % 64);

    // x-th element of ascending [0, n) minus the exclusions: walk the
    // excluded peers in ascending order, stepping past each one at or
    // below the running value.
    auto base = [&](std::size_t x) {
      std::size_t value = x;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t excluded = now_bits[w] | (prev_bits[w] & prev_mask);
        if (w == me_word) excluded |= me_bit;
        for (; excluded != 0; excluded &= excluded - 1) {
          if (w * 64 + std::countr_zero(excluded) > value) {
            return static_cast<std::uint32_t>(value);
          }
          ++value;
        }
      }
      return static_cast<std::uint32_t>(value);
    };
    const std::size_t found = std::min(want, eligible_size);
    ws_.eligible_strangers.clear();
    ws_.stranger_shuffle.shuffle(
        eligible_size, found, base,
        [this](std::size_t bound) { return rng_.below(bound); },
        ws_.eligible_strangers);
    return found;
  }

  /// Opens a slot from `me` to `to` carrying `amount` (possibly zero).
  void give(std::size_t me, std::size_t to, double amount) {
    Generation& next = gen(next_);
    next.value[to * n_ + me] = amount;
    next.bits[to * words_ + me / 64] |= std::uint64_t{1} << (me % 64);
    ws_.round_received[to] += amount;
  }

  void finish_round(std::size_t round) {
    auto& round_received = ws_.round_received;

    // Receiver intake cap, over the slots opened this round only: scaling
    // the rest of the row would multiply zeros.
    if (config_.intake_factor > 0.0) {
      Generation& next = gen(next_);
      for (std::size_t to = 0; to < n_; ++to) {
        const double intake = config_.intake_factor * ws_.capacities[to];
        if (round_received[to] <= intake) continue;
        const double scale = intake / round_received[to];
        round_received[to] = intake;
        for (std::size_t w = 0; w < words_; ++w) {
          for (std::uint64_t live = next.bits[to * words_ + w]; live != 0;
               live &= live - 1) {
            next.value[to * n_ + w * 64 + std::countr_zero(live)] *= scale;
          }
        }
      }
    }

    // Shift the history window: rotate generation roles and clear the
    // recycled one's bit rows.
    const int recycled = prev_;
    prev_ = now_;
    now_ = next_;
    next_ = recycled;
    std::fill(gen(next_).bits.begin(), gen(next_).bits.end(), 0);

    // Cooperation streaks (Loyal). A streak can be positive only where a
    // slot was opened last round (prev) or this round (now), so walking
    // now | prev visits every cell the dense full-matrix pass changes.
    if (keep_streaks_) {
      const Generation& now = gen(now_);
      const Generation& prev = gen(prev_);
      for (std::size_t to = 0; to < n_; ++to) {
        for (std::size_t w = 0; w < words_; ++w) {
          const std::uint64_t now_word = now.bits[to * words_ + w];
          for (std::uint64_t live = now_word | prev.bits[to * words_ + w];
               live != 0; live &= live - 1) {
            const int bit = std::countr_zero(live);
            const std::size_t idx = to * n_ + w * 64 + bit;
            std::uint16_t& streak = ws_.streak[idx];
            streak = ((now_word >> bit) & 1U) && now.value[idx] > 0.0
                         ? static_cast<std::uint16_t>(
                               std::min<int>(streak + 1, 0xffff))
                         : std::uint16_t{0};
          }
        }
      }
    }

    // Aspiration tracking (Adaptive): smooth toward this round's per-slot
    // receipts.
    if (keep_aspiration_) {
      for (std::size_t i = 0; i < n_; ++i) {
        const double slots =
            std::max<double>(1.0, protocols_[i].partner_slots);
        const double per_slot = round_received[i] / slots;
        ws_.aspiration[i] += config_.aspiration_smoothing *
                             (per_slot - ws_.aspiration[i]);
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      ws_.total_received[i] += round_received[i];
    }

    // Churn, then scheduled fault processes — same RNG draw order as the
    // dense engine.
    if (config_.churn_rate > 0.0) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (rng_.chance(config_.churn_rate)) replace_peer(i);
      }
    }
    for (const fault::FaultProcess& process : config_.faults) {
      apply_fault(process, round);
    }
  }

  void apply_fault(const fault::FaultProcess& process, std::size_t round) {
    using fault::FaultProcessKind;
    switch (process.kind) {
      case FaultProcessKind::kMemorylessChurn: {
        if (process.rate <= 0.0) break;
        for (std::size_t i = 0; i < n_; ++i) {
          if (rng_.chance(process.rate)) replace_peer(i);
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
              i + static_cast<std::size_t>(rng_.below(n_ - i));
          std::swap(victims[i], victims[j]);
          replace_peer(victims[i]);
        }
        break;
      }
      case FaultProcessKind::kCapacityDegradation: {
        if (round != process.round) break;
        for (std::size_t i = 0; i < n_; ++i) {
          ws_.capacities[i] *= process.factor;
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
        std::partial_sort(victims.begin(),
                          victims.begin() +
                              static_cast<std::ptrdiff_t>(std::min(hit, n_)),
                          victims.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            if (ws_.capacities[a] != ws_.capacities[b]) {
                              return ws_.capacities[a] > ws_.capacities[b];
                            }
                            return a < b;
                          });
        for (std::size_t i = 0; i < std::min(hit, n_); ++i) {
          replace_peer(victims[i]);
        }
        break;
      }
    }
  }

  /// Replaces peer i with a fresh same-protocol peer: clears i's bit row
  /// and its bit in every row of the live generations, and its streak row
  /// and column — the dense engine's row/column zeroing.
  void replace_peer(std::size_t i) {
    ++peers_replaced_;
    ws_.capacities[i] = churn_source_->sample(rng_);
    ws_.aspiration[i] = ws_.capacities[i];
    const std::size_t word = i / 64;
    const std::uint64_t keep = ~(std::uint64_t{1} << (i % 64));
    for (Generation* g : {&gen(now_), &gen(prev_)}) {
      std::fill_n(g->bits.begin() + static_cast<std::ptrdiff_t>(i * words_),
                  words_, 0);
      for (std::size_t row = 0; row < n_; ++row) {
        g->bits[row * words_ + word] &= keep;
      }
    }
    if (keep_streaks_) {
      for (std::size_t j = 0; j < n_; ++j) {
        ws_.streak[i * n_ + j] = 0;
        ws_.streak[j * n_ + i] = 0;
      }
    }
  }

  const std::vector<ProtocolSpec>& protocols_;
  const SimulationConfig& config_;
  const BandwidthDistribution* churn_source_;
  const std::size_t n_;
  std::size_t words_ = 0;
  util::Rng rng_;
  SimWorkspace::Impl& ws_;
  // What the population reads (see the class comment).
  bool keep_streaks_ = false;
  bool keep_aspiration_ = false;

  // Roles of ws_.gen entries; rotated each round.
  int prev_ = 0;
  int now_ = 1;
  int next_ = 2;

  std::size_t peers_replaced_ = 0;
  // Plain local tallies, flushed to the metrics registry once per run —
  // the hot loops never touch an atomic.
  std::size_t candidates_scanned_ = 0;
  std::size_t topk_boundary_scans_ = 0;

  // Flight recorder: level/stride latched at construction, events buffered
  // locally and flushed once when the engine dies. Never touches rng_.
  obs::RunCapture capture_{obs::Recorder::global()};
  std::uint32_t round_ = 0;

  void flush_metrics() const {
    if (!obs::enabled()) return;
    static const obs::Counter runs =
        obs::Registry::global().counter("sim.sparse.runs");
    static const obs::Counter rounds =
        obs::Registry::global().counter("sim.sparse.rounds");
    static const obs::Counter scanned =
        obs::Registry::global().counter("sim.sparse.candidates_scanned");
    static const obs::Counter boundary =
        obs::Registry::global().counter("sim.sparse.topk_boundary_scans");
    static const obs::Counter reuse =
        obs::Registry::global().counter("sim.sparse.workspace_reuse_hits");
    static const obs::Counter replaced =
        obs::Registry::global().counter("sim.sparse.peers_replaced");
    runs.increment();
    rounds.add(config_.rounds);
    scanned.add(candidates_scanned_);
    boundary.add(topk_boundary_scans_);
    if (ws_.last_prepare_reused) reuse.increment();
    replaced.add(peers_replaced_);
  }
};

}  // namespace

SimulationOutcome simulate_rounds(const std::vector<ProtocolSpec>& protocols,
                                  const std::vector<double>& capacities,
                                  const SimulationConfig& config,
                                  const BandwidthDistribution* churn_source,
                                  SimWorkspace* workspace) {
  if (protocols.empty() || protocols.size() != capacities.size()) {
    throw std::invalid_argument(
        "simulate_rounds: protocols/capacities must be equal-length and "
        "non-empty");
  }
  config.validate();
  if (config.needs_churn_source() && churn_source == nullptr) {
    throw std::invalid_argument(
        "simulate_rounds: replacing peers (churn_rate or a fault process) "
        "requires a bandwidth distribution");
  }
  if (config.engine == SimEngine::kDense) {
    DenseEngine engine(protocols, capacities, config, churn_source);
    return engine.run();
  }
  if (config.engine == SimEngine::kBatch) {
    // A single-lane batch: the lockstep engine degenerates to one stream,
    // so the scalar entry point exercises the same code the W-wide path
    // runs — and stays bitwise-identical to the other engines.
    const BatchLane lane{&protocols, &capacities, config.seed};
    return std::move(
        simulate_rounds_batch(std::span<const BatchLane>(&lane, 1), config,
                              churn_source)
            .front());
  }
  if (workspace == nullptr) {
    // One reusable workspace per thread: a sweep's worker threads each
    // allocate once and then run every simulation allocation-free.
    static thread_local SimWorkspace shared;
    workspace = &shared;
  }
  SparseEngine engine(protocols, capacities, config, churn_source,
                      workspace->impl());
  return engine.run();
}

std::vector<double> shuffled_capacities(std::size_t count,
                                        const BandwidthDistribution& dist,
                                        std::uint64_t seed) {
  std::vector<double> capacities = dist.stratified_sample(count);
  util::Rng rng(util::hash64(seed ^ 0x9d2c5680cafef00dULL));
  rng.shuffle(capacities);
  return capacities;
}

EncounterOutcome run_encounter(const ProtocolSpec& a, const ProtocolSpec& b,
                               std::size_t count_a, std::size_t count_b,
                               const SimulationConfig& config,
                               const BandwidthDistribution& bandwidths) {
  if (count_a == 0 || count_b == 0) {
    throw std::invalid_argument("run_encounter: both groups must be non-empty");
  }
  const std::size_t n = count_a + count_b;
  std::vector<ProtocolSpec> protocols;
  protocols.reserve(n);
  protocols.insert(protocols.end(), count_a, a);
  protocols.insert(protocols.end(), count_b, b);
  const SimulationOutcome outcome =
      simulate_rounds(protocols, shuffled_capacities(n, bandwidths, config.seed),
                      config, &bandwidths);
  EncounterOutcome result;
  result.group_a_mean = outcome.group_mean(0, count_a);
  result.group_b_mean = outcome.group_mean(count_a, n);
  return result;
}

double run_homogeneous_throughput(const ProtocolSpec& spec, std::size_t count,
                                  const SimulationConfig& config,
                                  const BandwidthDistribution& bandwidths) {
  if (count == 0) {
    throw std::invalid_argument("run_homogeneous_throughput: empty swarm");
  }
  std::vector<ProtocolSpec> protocols(count, spec);
  const SimulationOutcome outcome = simulate_rounds(
      protocols, shuffled_capacities(count, bandwidths, config.seed), config,
      &bandwidths);
  return outcome.population_mean();
}

}  // namespace dsa::swarming
