// Cycle-based simulation model of Sec. 4.3.1.
//
// Time advances in synchronous rounds. Every round each peer, using only the
// previous rounds' state:
//   1. builds its candidate list — the peers that *interacted* with it
//      (allocated it an upload slot, possibly of zero bandwidth) within its
//      candidate window (TFT: last round; TF2T: last two rounds);
//   2. ranks the candidates with its ranking function and selects the top
//      k as partners;
//   3. contacts strangers (peers outside the candidate list) per its
//      stranger policy — Periodic: always h of them; When-needed: h only
//      while it has fewer than k *contributing* partners (positive receipts
//      over the window — zero-giving candidates don't make a partner set
//      "full", or freeriders could lock a peer out of recruitment forever);
//      Defect: contacts h strangers but allocates them nothing (the
//      defection is visible to the stranger, which the paper's Sort-Slowest
//      analysis relies on);
//   4. divides its upload capacity across FIXED lanes: k partner lanes (the
//      protocol's configured slot count — a "magic number" of the design)
//      plus one lane per gifted stranger. A partner lane with nobody behind
//      it wastes its bandwidth, which is why low-k protocols lead the
//      performance ranking (Fig. 3) and partner-freeriders cap out at their
//      stranger-gift fraction (Sec. 4.4's ~0.31 ceiling). Partner lanes
//      carry Equal Split (one lane each), Prop Share (the k-lane budget
//      split proportionally to contributions over the candidate window; an
//      all-zero window yields nothing, reproducing the paper's
//      bootstrap-failure observation), or Freeride (nothing). Defect-policy
//      stranger contacts open no lane — defecting costs nothing.
//
// A peer's utility is its mean received bandwidth per round ("download
// speed"); the population's performance is the mean peer utility
// ("throughput of the population").
//
// Churn (studied in Sec. 4.4) replaces a peer with a fresh same-protocol
// peer (new capacity, empty history) with a per-round probability. The
// legacy churn_rate knob is one instance of the pluggable fault processes
// in fault/fault_process.hpp — burst churn, capacity degradation, and
// targeted failure of the top-capacity class plug in the same way via
// SimulationConfig::faults.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_process.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "util/rng.hpp"

namespace dsa::swarming {

/// Which implementation of the round model executes a run. Both engines
/// produce bitwise-identical outcomes for every configuration (enforced by
/// the simulator tests and the golden-fingerprint tests); kSparse is the
/// production path, kDense the original O(n^2)-per-round implementation
/// kept as the readable reference it is tested against.
enum class SimEngine : std::uint8_t {
  /// Per-receiver bitset round state + reusable workspace, keeping only the
  /// state the population reads: per-round cost O(n * (k + h)) plus
  /// n * ceil(n/64) words instead of O(n^2), O(1) allocations per reused
  /// workspace instead of ~10 per simulation.
  kSparse,
  /// The seed implementation: dense n^2 matrices refilled every round,
  /// freshly allocated per simulation.
  kDense,
};

/// Reusable scratch memory for the sparse engine: the interaction-history
/// generations (bit rows over bandwidth arrays), streaks, and per-peer
/// scratch vectors of a run. Reusing one workspace across many
/// simulate_rounds calls (one per thread — a workspace must never be shared
/// between concurrent runs) keeps a sweep at O(1) heap allocations per
/// thread; a run clears only the bit rows, never the O(n^2) bandwidth
/// arrays, since a bandwidth is read only where its bit is set. A
/// default-constructed workspace holds no memory until its first run. The
/// dense engine ignores it.
class SimWorkspace {
 public:
  SimWorkspace();
  ~SimWorkspace();
  SimWorkspace(SimWorkspace&&) noexcept;
  SimWorkspace& operator=(SimWorkspace&&) noexcept;
  SimWorkspace(const SimWorkspace&) = delete;
  SimWorkspace& operator=(const SimWorkspace&) = delete;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// How a peer's capacity maps onto its partner slots. kFixedLanes is the
/// paper-faithful model (see the header comment); kDivideAmongSelected is
/// the idealized alternative where unfilled slots redistribute instead of
/// wasting — kept for the ablation bench, which shows that Fig. 3's
/// low-partner-count advantage hinges on the fixed-lane assumption.
enum class LaneModel : std::uint8_t {
  kFixedLanes,
  kDivideAmongSelected,
};

/// Controls for one simulation run.
struct SimulationConfig {
  std::size_t rounds = 500;    // the paper's default
  double churn_rate = 0.0;     // per-peer per-round replacement probability
  std::uint64_t seed = 1;
  /// Smoothing factor of the Adaptive ranking's aspiration level
  /// (Posch-style win-stay/lose-shift adjustment).
  double aspiration_smoothing = 0.25;
  LaneModel lane_model = LaneModel::kFixedLanes;
  /// Fraction of a stranger lane's bandwidth that actually reaches the
  /// stranger. Stranger cooperation is a short-lived probe (BitTorrent's
  /// optimistic unchoke is active only "for some iterations" within a
  /// choke period), so a gift lane delivers less than a settled partner
  /// lane. This is what caps gift-only protocols (freeriders, partnerless
  /// gifters) near the paper's ~0.31 performance ceiling while leaving
  /// reciprocal relationships at full efficiency.
  double stranger_efficiency = 0.3;
  /// Optional receiver-side intake cap, as a multiple of the peer's own
  /// upload capacity: inbound bandwidth beyond intake_factor * capacity is
  /// lost (scaled down proportionally across senders). Disabled (<= 0) by
  /// default; exposed for ablations of download-constrained settings.
  double intake_factor = 0.0;
  /// When true, SimulationOutcome::round_throughput records the population
  /// mean received bandwidth of every round (convergence analysis).
  bool record_round_series = false;
  /// Fault processes applied in order at the end of every round, after the
  /// legacy churn_rate (kept for backward compatibility — it is equivalent
  /// to a leading memoryless_churn process). Any process that replaces
  /// peers requires a churn_source.
  std::vector<fault::FaultProcess> faults;
  /// Which engine executes the run. The two paths are bitwise-identical;
  /// kDense exists for equivalence checks and before/after benchmarks.
  SimEngine engine = SimEngine::kSparse;

  /// Rejects degenerate configurations with std::invalid_argument naming
  /// the offending field.
  void validate() const;

  /// True when the run replaces peers (legacy churn or a fault process) and
  /// therefore needs a bandwidth distribution for fresh capacities.
  [[nodiscard]] bool needs_churn_source() const noexcept;
};

/// Result of one run.
struct SimulationOutcome {
  /// Mean received bandwidth per round, per peer (KBps).
  std::vector<double> peer_throughput;

  /// Population mean received bandwidth per round (only filled when
  /// SimulationConfig::record_round_series is set).
  std::vector<double> round_throughput;

  /// Peers replaced over the run by churn and fault processes.
  std::size_t peers_replaced = 0;

  /// Mean throughput over peers [begin, end).
  [[nodiscard]] double group_mean(std::size_t begin, std::size_t end) const;

  /// Mean throughput over the whole population.
  [[nodiscard]] double population_mean() const;
};

/// Runs the round-based model for an arbitrary mixed population.
///
/// `protocols[i]` and `capacities[i]` describe peer i; the two vectors must
/// be equal-length and non-empty (throws std::invalid_argument otherwise).
/// `churn_source` must be provided whenever the config replaces peers —
/// churn_rate > 0 or any peer-replacing fault process (fresh peers draw
/// their capacity from it).
///
/// `workspace` supplies reusable scratch memory for the sparse engine; when
/// null, a thread-local workspace is used, so back-to-back runs on one
/// thread already reuse allocations. Passing an explicit workspace gives the
/// caller control over reuse (e.g. a fresh workspace per run for the
/// determinism tests). The outcome never depends on which workspace is used
/// or what it previously ran.
SimulationOutcome simulate_rounds(
    const std::vector<ProtocolSpec>& protocols,
    const std::vector<double>& capacities, const SimulationConfig& config,
    const BandwidthDistribution* churn_source = nullptr,
    SimWorkspace* workspace = nullptr);

/// Stratified capacities shuffled with the run's seed so group membership is
/// uncorrelated with capacity — the capacity draw every encounter and
/// homogeneous run uses. Exposed so callers of simulate_rounds can reproduce
/// the exact per-run capacity vectors.
std::vector<double> shuffled_capacities(std::size_t count,
                                        const BandwidthDistribution& dist,
                                        std::uint64_t seed);

/// Mean utilities of the two protocol groups in a mixed population.
struct EncounterOutcome {
  double group_a_mean = 0.0;
  double group_b_mean = 0.0;

  [[nodiscard]] bool a_wins() const { return group_a_mean > group_b_mean; }
};

/// Runs one encounter (Sec. 4.3.2): `count_a` peers run `a` and `count_b`
/// run `b`; capacities are a stratified draw from `bandwidths`, shuffled so
/// both groups face the same capacity mix in expectation.
EncounterOutcome run_encounter(const ProtocolSpec& a, const ProtocolSpec& b,
                               std::size_t count_a, std::size_t count_b,
                               const SimulationConfig& config,
                               const BandwidthDistribution& bandwidths);

/// Population throughput when all `count` peers execute `spec` (the
/// Performance experiments of Sec. 4.3.2).
double run_homogeneous_throughput(const ProtocolSpec& spec, std::size_t count,
                                  const SimulationConfig& config,
                                  const BandwidthDistribution& bandwidths);

}  // namespace dsa::swarming
