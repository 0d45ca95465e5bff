// Behavioral tests of the Sec. 4.3.1 round-based simulator — the properties
// the paper's results depend on: bootstrap via strangers, Prop Share's
// bootstrap failure without them, freerider collapse, the Sort-Slowest
// effect, churn, and encounter mechanics.
#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "fault/fault_process.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/batch_engine.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"

namespace {

using namespace dsa::swarming;

const BandwidthDistribution& piatek() {
  static const BandwidthDistribution dist = BandwidthDistribution::piatek();
  return dist;
}

SimulationConfig quick(std::uint64_t seed = 1, std::size_t rounds = 150) {
  SimulationConfig config;
  config.rounds = rounds;
  config.seed = seed;
  return config;
}

ProtocolSpec make(StrangerPolicy sp, int h, CandidateWindow w,
                  RankingFunction rank, int k, AllocationPolicy alloc) {
  ProtocolSpec spec;
  spec.stranger_policy = sp;
  spec.stranger_slots = static_cast<std::uint8_t>(h);
  spec.window = w;
  spec.ranking = rank;
  spec.partner_slots = static_cast<std::uint8_t>(k);
  spec.allocation = alloc;
  return spec;
}

// ------------------------------------------------------- fundamentals ----

TEST(RoundSim, DeterministicForSameSeed) {
  const auto a = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(42), piatek());
  const auto b = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(42), piatek());
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(RoundSim, DifferentSeedsDiffer) {
  const auto a = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(1), piatek());
  const auto b = run_homogeneous_throughput(bittorrent_protocol(), 30,
                                            quick(2), piatek());
  EXPECT_NE(a, b);
}

TEST(RoundSim, ValidatesInput) {
  const SimulationConfig config = quick();
  EXPECT_THROW(simulate_rounds({}, {}, config), std::invalid_argument);
  EXPECT_THROW(
      simulate_rounds({bittorrent_protocol()}, {1.0, 2.0}, config),
      std::invalid_argument);
  SimulationConfig zero_rounds = quick();
  zero_rounds.rounds = 0;
  EXPECT_THROW(simulate_rounds({bittorrent_protocol()}, {10.0}, zero_rounds),
               std::invalid_argument);
  SimulationConfig churny = quick();
  churny.churn_rate = 0.1;
  EXPECT_THROW(simulate_rounds({bittorrent_protocol()}, {10.0}, churny,
                               /*churn_source=*/nullptr),
               std::invalid_argument);
  EXPECT_THROW(run_homogeneous_throughput(bittorrent_protocol(), 0, config,
                                          piatek()),
               std::invalid_argument);
  EXPECT_THROW(run_encounter(bittorrent_protocol(), birds_protocol(), 0, 5,
                             config, piatek()),
               std::invalid_argument);
}

TEST(RoundSim, ThroughputNeverExceedsOfferedCapacity) {
  // Received bandwidth is conserved: population mean throughput cannot
  // exceed mean upload capacity.
  const std::vector<double> caps = piatek().stratified_sample(50);
  double cap_mean = 0.0;
  for (double c : caps) cap_mean += c;
  cap_mean /= 50.0;
  const double throughput = run_homogeneous_throughput(
      bittorrent_protocol(), 50, quick(5), piatek());
  EXPECT_LE(throughput, cap_mean * 1.0001);
  EXPECT_GT(throughput, 0.0);
}

TEST(RoundSim, BitTorrentUsesNearlyAllCapacityInSteadyState) {
  // With Equal Split and everyone running BT, every opened slot carries
  // bandwidth, so population throughput should be close to mean capacity.
  const std::vector<double> caps = piatek().stratified_sample(50);
  double cap_mean = 0.0;
  for (double c : caps) cap_mean += c;
  cap_mean /= 50.0;
  const double throughput = run_homogeneous_throughput(
      bittorrent_protocol(), 50, quick(9, 300), piatek());
  EXPECT_GT(throughput, 0.8 * cap_mean);
}

TEST(RoundSim, GroupMeanChecksRange) {
  SimulationOutcome outcome;
  outcome.peer_throughput = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(outcome.group_mean(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(outcome.group_mean(2, 4), 3.5);
  EXPECT_DOUBLE_EQ(outcome.population_mean(), 2.5);
  EXPECT_THROW((void)outcome.group_mean(2, 2), std::invalid_argument);
  EXPECT_THROW((void)outcome.group_mean(0, 9), std::invalid_argument);
}

// ---------------------------------------------- paper-critical behavior ----

TEST(RoundSim, TotalFreeridersReceiveAlmostNothingFromEachOther) {
  // Freeride allocation + Defect strangers: nobody ever uploads a byte.
  const ProtocolSpec freerider =
      make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft,
           RankingFunction::kFastest, 4, AllocationPolicy::kFreeride);
  const double throughput =
      run_homogeneous_throughput(freerider, 50, quick(3), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, PropShareWithDefectStrangersFailsToBootstrap) {
  // The paper's bootstrap hazard: Prop Share never seeds cooperation when
  // strangers get nothing (Sec. 4.4).
  const ProtocolSpec spec =
      make(StrangerPolicy::kDefect, 2, CandidateWindow::kTft,
           RankingFunction::kSlowest, 1, AllocationPolicy::kPropShare);
  const double throughput =
      run_homogeneous_throughput(spec, 50, quick(4), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, PropShareWithWhenNeededStrangersBootstraps) {
  // ... while the When-needed stranger policy is the paper's lightweight
  // bootstrapping alternative.
  const ProtocolSpec spec =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTft,
           RankingFunction::kFastest, 7, AllocationPolicy::kPropShare);
  const double throughput =
      run_homogeneous_throughput(spec, 50, quick(4, 300), piatek());
  EXPECT_GT(throughput, 0.0);
}

TEST(RoundSim, SortSlowestFamilyPeaksAtOnePartner) {
  // Sec. 4.4's Sort-S story in our model: within the Sort Slowest family,
  // one partner is best (the few-lanes-always-filled effect), and Sort-S
  // stays within ~15% of the BitTorrent reference. (Deviation from the
  // paper: their simulator puts Sort-S at the global performance maximum;
  // ours tops the family but not the space — see EXPERIMENTS.md.)
  auto family_perf = [&](int k) {
    ProtocolSpec spec = sort_s_protocol();
    spec.partner_slots = static_cast<std::uint8_t>(k);
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      total += run_homogeneous_throughput(spec, 50, quick(seed, 300),
                                          piatek());
    }
    return total;
  };
  const double k1 = family_perf(1);
  EXPECT_GT(k1, family_perf(3));
  double bt_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    bt_total += run_homogeneous_throughput(bittorrent_protocol(), 50,
                                           quick(seed, 300), piatek());
  }
  EXPECT_GT(k1, 0.85 * bt_total);
}

TEST(RoundSim, TopPerformersMaintainFewPartners) {
  // Fig. 3's headline: the best homogeneous performers keep k low. The
  // strongest protocol we know of (Loyal-When-needed with one partner)
  // must beat both its own high-k variant and the BitTorrent reference.
  auto perf = [&](ProtocolSpec spec) {
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      total += run_homogeneous_throughput(spec, 50, quick(seed, 300),
                                          piatek());
    }
    return total;
  };
  ProtocolSpec loyal1 = loyal_when_needed_protocol();
  loyal1.partner_slots = 1;
  ProtocolSpec loyal9 = loyal_when_needed_protocol();
  loyal9.partner_slots = 9;
  const double top = perf(loyal1);
  EXPECT_GT(top, perf(loyal9));
  EXPECT_GT(top, perf(bittorrent_protocol()));
}

TEST(RoundSim, NoPartnerNoStrangerProtocolIsInert) {
  // The doubly-degenerate protocol neither gives nor receives reciprocation;
  // in a homogeneous population nothing ever flows.
  ProtocolSpec inert;
  inert.stranger_slots = 0;
  inert.partner_slots = 0;
  const double throughput =
      run_homogeneous_throughput(inert, 30, quick(8), piatek());
  EXPECT_DOUBLE_EQ(throughput, 0.0);
}

TEST(RoundSim, RobustProtocolBeatsFreeriderInEncounter) {
  // A When-needed + Sort Fastest + Prop Share protocol (the paper's most
  // robust family) must outperform invading freeriders.
  const ProtocolSpec robust =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTft,
           RankingFunction::kFastest, 7, AllocationPolicy::kPropShare);
  const ProtocolSpec freerider =
      make(StrangerPolicy::kPeriodic, 3, CandidateWindow::kTft,
           RankingFunction::kFastest, 9, AllocationPolicy::kFreeride);
  int robust_wins = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto outcome = run_encounter(robust, freerider, 25, 25,
                                       quick(seed, 300), piatek());
    if (outcome.a_wins()) ++robust_wins;
  }
  EXPECT_GE(robust_wins, 4);
}

TEST(RoundSim, EncounterGroupsAreOrderSymmetric) {
  // Swapping the groups swaps the reported means (same seed, same capacity
  // assignment by index).
  const auto ab = run_encounter(bittorrent_protocol(), birds_protocol(), 20,
                                30, quick(11), piatek());
  const auto ba = run_encounter(birds_protocol(), bittorrent_protocol(), 20,
                                30, quick(11), piatek());
  // Note: groups sit at different indices, so this is a sanity check that
  // both orderings produce finite, positive utilities rather than an exact
  // symmetry claim.
  EXPECT_GT(ab.group_a_mean + ab.group_b_mean, 0.0);
  EXPECT_GT(ba.group_a_mean + ba.group_b_mean, 0.0);
}

TEST(RoundSim, StrangerlessProtocolStillReceivesOptimisticContacts) {
  // h = 0 peers never contact anyone first, but periodic-stranger peers
  // find them, so in a mixed population they still bootstrap.
  ProtocolSpec hermit = bittorrent_protocol();
  hermit.stranger_slots = 0;
  const auto outcome = run_encounter(hermit, bittorrent_protocol(), 10, 40,
                                     quick(13, 300), piatek());
  EXPECT_GT(outcome.group_a_mean, 0.0);
}

TEST(RoundSim, KZeroProtocolGivesOnlyToStrangers) {
  // k = 0 with Periodic strangers: gives stranger gifts but never
  // reciprocates. Against BT it still receives optimistic contacts.
  ProtocolSpec no_partners;
  no_partners.stranger_policy = StrangerPolicy::kPeriodic;
  no_partners.stranger_slots = 3;
  no_partners.partner_slots = 0;
  const auto outcome = run_encounter(no_partners, bittorrent_protocol(), 25,
                                     25, quick(17, 300), piatek());
  EXPECT_GT(outcome.group_b_mean, 0.0);
  // BT reciprocates what the strangers gift, so group A receives something
  // too, but less than the reciprocating majority.
  EXPECT_LT(outcome.group_a_mean, outcome.group_b_mean);
}

// --------------------------------------------------------------- churn ----

TEST(RoundSim, ChurnKeepsRunningAndChangesOutcome) {
  SimulationConfig churny = quick(19, 200);
  churny.churn_rate = 0.05;
  const std::vector<ProtocolSpec> protocols(30, bittorrent_protocol());
  const std::vector<double> caps = piatek().stratified_sample(30);
  const auto with_churn =
      simulate_rounds(protocols, caps, churny, &piatek());
  const auto without =
      simulate_rounds(protocols, caps, quick(19, 200), &piatek());
  EXPECT_EQ(with_churn.peer_throughput.size(), 30u);
  EXPECT_NE(with_churn.population_mean(), without.population_mean());
  EXPECT_GT(with_churn.population_mean(), 0.0);
}

TEST(RoundSim, LowPartnerCountStillWinsUnderChurn) {
  // Sec. 4.4: "we ran Performance tests for the whole space under churn
  // rates of 0.01 and 0.1 ... it was still the protocols that employed a
  // low number of partners that performed the best." Low-k variants must
  // beat their high-k siblings at churn 0.1, and by a wider margin than at
  // churn 0 (churn punishes large partner sets hardest).
  auto perf = [&](ProtocolSpec spec, double churn) {
    SimulationConfig config = quick(0, 300);
    config.churn_rate = churn;
    double total = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      config.seed = seed;
      total += run_homogeneous_throughput(spec, 50, config, piatek());
    }
    return total / 5.0;
  };
  ProtocolSpec loyal1 = loyal_when_needed_protocol();
  loyal1.partner_slots = 1;
  ProtocolSpec loyal9 = loyal_when_needed_protocol();
  loyal9.partner_slots = 9;
  const double ratio_calm = perf(loyal1, 0.0) / perf(loyal9, 0.0);
  const double ratio_churny = perf(loyal1, 0.1) / perf(loyal9, 0.1);
  EXPECT_GT(ratio_churny, 1.0);
  EXPECT_GT(ratio_churny, ratio_calm);

  ProtocolSpec bt9 = bittorrent_protocol();
  bt9.partner_slots = 9;
  EXPECT_GT(perf(bittorrent_protocol(), 0.1), perf(bt9, 0.1));
}

// ------------------------------------------------- ranking differences ----

class RankingSweep : public ::testing::TestWithParam<RankingFunction> {};

TEST_P(RankingSweep, EveryRankingBootstrapsWithEqualSplit) {
  const ProtocolSpec spec =
      make(StrangerPolicy::kPeriodic, 1, CandidateWindow::kTft, GetParam(), 4,
           AllocationPolicy::kEqualSplit);
  const double throughput =
      run_homogeneous_throughput(spec, 40, quick(29, 200), piatek());
  EXPECT_GT(throughput, 0.0) << "ranking " << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllRankings, RankingSweep,
    ::testing::Values(RankingFunction::kFastest, RankingFunction::kSlowest,
                      RankingFunction::kProximity, RankingFunction::kAdaptive,
                      RankingFunction::kLoyal, RankingFunction::kRandom));

class WindowSweep : public ::testing::TestWithParam<CandidateWindow> {};

TEST_P(WindowSweep, BothWindowsSustainCooperation) {
  ProtocolSpec spec = bittorrent_protocol();
  spec.window = GetParam();
  const double throughput =
      run_homogeneous_throughput(spec, 40, quick(31, 200), piatek());
  EXPECT_GT(throughput, 10.0);
}

INSTANTIATE_TEST_SUITE_P(BothWindows, WindowSweep,
                         ::testing::Values(CandidateWindow::kTft,
                                           CandidateWindow::kTf2t));

// -------------------------------------- dense/sparse/batch equivalence ----
// The production engines' contract is bitwise identity with the dense
// reference (the seed implementation), for every configuration — same RNG
// draw sequence, same floating-point operations in the same order. These
// tests compare the three engines on exactly the configurations where their
// internals differ most: churn (stamp invalidation vs row zeroing), faults,
// the intake cap (touched-list scaling vs row scaling), TF2T (two-generation
// candidate merge), and every ranking function (Loyal reads sparse streaks,
// Random consumes RNG draws that must stay aligned). The batch engine joins
// through its scalar entry point here (a single-lane batch); the W-wide
// lockstep paths are covered by the BatchEngine tests below.

void expect_bitwise_equal(const SimulationOutcome& actual,
                          const SimulationOutcome& expected) {
  ASSERT_EQ(actual.peer_throughput.size(), expected.peer_throughput.size());
  for (std::size_t i = 0; i < actual.peer_throughput.size(); ++i) {
    EXPECT_EQ(actual.peer_throughput[i], expected.peer_throughput[i]) << i;
  }
  ASSERT_EQ(actual.round_throughput.size(), expected.round_throughput.size());
  for (std::size_t i = 0; i < actual.round_throughput.size(); ++i) {
    EXPECT_EQ(actual.round_throughput[i], expected.round_throughput[i]) << i;
  }
  EXPECT_EQ(actual.peers_replaced, expected.peers_replaced);
}

void expect_engines_agree(const std::vector<ProtocolSpec>& protocols,
                          SimulationConfig config,
                          SimWorkspace* workspace = nullptr) {
  const std::vector<double> caps =
      piatek().stratified_sample(protocols.size());
  config.engine = SimEngine::kSparse;
  const auto sparse =
      simulate_rounds(protocols, caps, config, &piatek(), workspace);
  config.engine = SimEngine::kDense;
  const auto dense = simulate_rounds(protocols, caps, config, &piatek());
  expect_bitwise_equal(sparse, dense);
  config.engine = SimEngine::kBatch;
  const auto batch = simulate_rounds(protocols, caps, config, &piatek());
  expect_bitwise_equal(batch, dense);
}

TEST(EngineEquivalence, HomogeneousPopulation) {
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(101, 200));
}

TEST(EngineEquivalence, MixedPopulationWithChurnAndRoundSeries) {
  ProtocolSpec freerider = bittorrent_protocol();
  freerider.allocation = AllocationPolicy::kFreeride;
  std::vector<ProtocolSpec> protocols(15, bittorrent_protocol());
  protocols.insert(protocols.end(), 15, loyal_when_needed_protocol());
  protocols.insert(protocols.end(), 10, freerider);
  SimulationConfig config = quick(103, 250);
  config.churn_rate = 0.04;
  config.record_round_series = true;
  expect_engines_agree(protocols, config);
}

TEST(EngineEquivalence, Tf2tPropShareWithIntakeCap) {
  const ProtocolSpec spec =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t,
           RankingFunction::kFastest, 4, AllocationPolicy::kPropShare);
  SimulationConfig config = quick(107, 200);
  config.intake_factor = 1.2;
  expect_engines_agree(std::vector<ProtocolSpec>(35, spec), config);
}

TEST(EngineEquivalence, EveryFaultProcess) {
  SimulationConfig config = quick(109, 200);
  config.faults = {
      dsa::fault::FaultProcess::memoryless_churn(0.02),
      dsa::fault::FaultProcess::burst_churn(40, 0.2),
      dsa::fault::FaultProcess::capacity_degradation(100, 0.6),
      dsa::fault::FaultProcess::targeted_failure(150, 0.1),
  };
  expect_engines_agree(std::vector<ProtocolSpec>(30, bittorrent_protocol()),
                       config);
}

class EngineEquivalenceRankings
    : public ::testing::TestWithParam<RankingFunction> {};

TEST_P(EngineEquivalenceRankings, AllRankingsAndPoliciesAgree) {
  // TF2T + churn stresses the two-generation merge, Loyal the sparse streak
  // table, Random the RNG draw alignment; mix the stranger policies so
  // defect-contact zero slots appear in the candidate lists of both engines.
  const ProtocolSpec reciprocator =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t, GetParam(),
           3, AllocationPolicy::kEqualSplit);
  const ProtocolSpec defector =
      make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft, GetParam(), 2,
           AllocationPolicy::kPropShare);
  std::vector<ProtocolSpec> protocols(20, reciprocator);
  protocols.insert(protocols.end(), 10, defector);
  SimulationConfig config = quick(113, 200);
  config.churn_rate = 0.03;
  expect_engines_agree(protocols, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllRankings, EngineEquivalenceRankings,
    ::testing::Values(RankingFunction::kFastest, RankingFunction::kSlowest,
                      RankingFunction::kProximity, RankingFunction::kAdaptive,
                      RankingFunction::kLoyal, RankingFunction::kRandom));

TEST(EngineEquivalence, WorkspaceReuseAcrossRunsAndSizes) {
  // One workspace reused across runs of different populations and configs
  // must behave exactly like a fresh workspace every time — the epoch
  // stamping must never leak state from a previous run, including after a
  // shrink-then-grow resize.
  SimWorkspace reused;
  SimulationConfig churny = quick(127, 150);
  churny.churn_rate = 0.05;
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(131, 150), &reused);
  expect_engines_agree(
      std::vector<ProtocolSpec>(20, loyal_when_needed_protocol()), churny,
      &reused);
  expect_engines_agree(std::vector<ProtocolSpec>(40, bittorrent_protocol()),
                       quick(131, 150), &reused);

  // And a reused workspace matches the thread-local (null) path bit for bit.
  const std::vector<ProtocolSpec> protocols(25, bittorrent_protocol());
  const std::vector<double> caps = piatek().stratified_sample(25);
  const auto with_reused =
      simulate_rounds(protocols, caps, quick(137, 150), &piatek(), &reused);
  const auto with_thread_local =
      simulate_rounds(protocols, caps, quick(137, 150), &piatek());
  expect_bitwise_equal(with_reused, with_thread_local);
}

TEST(EngineEquivalence, PopulationsAcrossBitRowWordBoundaries) {
  // The sparse engine keeps one bit row of ceil(n/64) words per receiver:
  // sizes on both sides of each word boundary, with TF2T windows, churn,
  // every fault process and the intake cap all active at once.
  const ProtocolSpec tf2t =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t,
           RankingFunction::kFastest, 4, AllocationPolicy::kPropShare);
  const ProtocolSpec loyal =
      make(StrangerPolicy::kPeriodic, 3, CandidateWindow::kTf2t,
           RankingFunction::kLoyal, 2, AllocationPolicy::kEqualSplit);
  const ProtocolSpec defector =
      make(StrangerPolicy::kDefect, 1, CandidateWindow::kTft,
           RankingFunction::kSlowest, 3, AllocationPolicy::kEqualSplit);
  for (const std::size_t n : {63u, 64u, 65u, 128u, 129u}) {
    std::vector<ProtocolSpec> protocols;
    for (std::size_t i = 0; i < n; ++i) {
      protocols.push_back(i % 3 == 0 ? tf2t : i % 3 == 1 ? loyal : defector);
    }
    SimulationConfig config = quick(139 + n, 60);
    config.churn_rate = 0.03;
    config.intake_factor = 1.2;
    config.record_round_series = true;
    config.faults = {
        dsa::fault::FaultProcess::memoryless_churn(0.02),
        dsa::fault::FaultProcess::burst_churn(15, 0.2),
        dsa::fault::FaultProcess::capacity_degradation(30, 0.6),
        dsa::fault::FaultProcess::targeted_failure(45, 0.1),
    };
    SCOPED_TRACE(n);
    expect_engines_agree(protocols, config);
  }
}

TEST(EngineEquivalence, StreaksKeptForOneLoyalPeerAndSkippedForNone) {
  // The streak table is maintained only when some peer ranks by Loyal with
  // partner slots. One such peer among Fastest rankers must still see
  // exact streaks, including across churn; with none, skipping the table
  // must change nothing.
  const ProtocolSpec loyal =
      make(StrangerPolicy::kWhenNeeded, 1, CandidateWindow::kTft,
           RankingFunction::kLoyal, 2, AllocationPolicy::kEqualSplit);
  const ProtocolSpec loyal_without_partners =
      make(StrangerPolicy::kPeriodic, 2, CandidateWindow::kTft,
           RankingFunction::kLoyal, 0, AllocationPolicy::kEqualSplit);
  std::vector<ProtocolSpec> one_loyal(30, bittorrent_protocol());
  one_loyal[17] = loyal;
  SimulationConfig config = quick(149, 200);
  config.churn_rate = 0.02;
  expect_engines_agree(one_loyal, config);

  std::vector<ProtocolSpec> no_loyal(30, bittorrent_protocol());
  no_loyal[17] = loyal_without_partners;
  expect_engines_agree(no_loyal, config);
}

TEST(EngineEquivalence, FullRecordingMatchesDenseWhenAllCandidatesSelected) {
  // With every candidate selected, ranking only orders the partners and
  // the sparse engine skips it unless something reads that order; a full
  // recording keeps ranking on. Nine partner slots against few candidates
  // make "all selected" the common case. The recorder sorts each actor's
  // events by peer, so what this pins is that the recorded decisions
  // agree with the dense engine's, event for event.
  const ProtocolSpec wide =
      make(StrangerPolicy::kPeriodic, 1, CandidateWindow::kTft,
           RankingFunction::kFastest, 9, AllocationPolicy::kEqualSplit);
  const std::vector<ProtocolSpec> protocols(20, wide);
  const std::vector<double> caps = piatek().stratified_sample(20);
  dsa::obs::Recorder& recorder = dsa::obs::Recorder::global();
  auto record = [&](SimEngine engine) {
    SimulationConfig config = quick(151, 40);
    config.engine = engine;
    recorder.reset();
    recorder.configure({dsa::obs::RecordLevel::kFull, 1});
    const SimulationOutcome outcome =
        simulate_rounds(protocols, caps, config, &piatek());
    recorder.configure({dsa::obs::RecordLevel::kOff, 1});
    std::vector<dsa::obs::Event> events = recorder.snapshot();
    recorder.reset();
    return std::make_pair(outcome, events);
  };
  const auto [sparse, sparse_events] = record(SimEngine::kSparse);
  const auto [dense, dense_events] = record(SimEngine::kDense);
  expect_bitwise_equal(sparse, dense);

  // Decision events match one for one, in order. (The run header differs:
  // it names the engine.)
  ASSERT_EQ(sparse_events.size(), dense_events.size());
  std::size_t ordered_selections = 0;
  for (std::size_t i = 0; i < sparse_events.size(); ++i) {
    const dsa::obs::Event& a = sparse_events[i];
    const dsa::obs::Event& b = dense_events[i];
    if (a.kind == dsa::obs::EventKind::kRun) continue;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.time, b.time) << i;
    EXPECT_EQ(a.actor, b.actor) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
    EXPECT_EQ(a.value, b.value) << i;
    if (a.kind == dsa::obs::EventKind::kSelect && a.value[0] == a.value[1] &&
        a.value[1] > 1.0) {
      ++ordered_selections;
    }
  }
#if DSA_OBS_COMPILED_IN
  EXPECT_GT(ordered_selections, 0u) << "no selection took every candidate";
#endif
}

TEST(EngineEquivalence, WorkspaceReuseAcrossShrinkingAndRegrowingSizes) {
  // One workspace from 200 peers (four-word bit rows) down to 40 (one
  // word) and back up to 65 (two words): rows and values left by the
  // larger runs must never leak into the smaller ones.
  SimWorkspace reused;
  SimulationConfig config = quick(157, 80);
  config.churn_rate = 0.02;
  std::vector<ProtocolSpec> protocols;
  for (const std::size_t n : {200u, 40u, 65u}) {
    protocols.assign(n, bittorrent_protocol());
    for (std::size_t i = 0; i < n; i += 4) {
      protocols[i] = loyal_when_needed_protocol();
    }
    SCOPED_TRACE(n);
    expect_engines_agree(protocols, config, &reused);
  }
}

// ------------------------------------------------ batch-lockstep engine ----
// The W-wide paths: every lane of a batch must be bitwise-identical to the
// same simulation run alone on the sparse engine, at every width (including
// width 1 and odd remainders), and workspace reuse across batches of
// different widths and populations must never leak state between lanes.

std::vector<SimulationOutcome> solo_sparse_runs(
    const std::vector<ProtocolSpec>& protocols,
    const std::vector<std::vector<double>>& caps, SimulationConfig config,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<SimulationOutcome> outcomes;
  config.engine = SimEngine::kSparse;
  for (std::size_t w = 0; w < seeds.size(); ++w) {
    config.seed = seeds[w];
    outcomes.push_back(
        simulate_rounds(protocols, caps[w], config, &piatek()));
  }
  return outcomes;
}

TEST(BatchEngine, EveryLaneMatchesSoloSparseRunAtEveryWidth) {
  ProtocolSpec freerider = bittorrent_protocol();
  freerider.allocation = AllocationPolicy::kFreeride;
  std::vector<ProtocolSpec> protocols(12, bittorrent_protocol());
  protocols.insert(protocols.end(), 10, loyal_when_needed_protocol());
  protocols.insert(protocols.end(), 8, freerider);
  SimulationConfig config = quick(139, 150);
  config.churn_rate = 0.04;
  config.record_round_series = true;

  // Widths 1, 4, 8 plus an odd remainder width, as the PRA batcher produces
  // when runs % width != 0.
  for (const std::size_t width : {1u, 4u, 8u, 5u}) {
    std::vector<std::uint64_t> seeds;
    std::vector<std::vector<double>> caps;
    std::vector<BatchLane> lanes;
    for (std::size_t w = 0; w < width; ++w) {
      seeds.push_back(1000 + 7 * w);
      caps.push_back(piatek().stratified_sample(protocols.size()));
      // Perturb one capacity per lane so lanes genuinely differ.
      caps.back()[w % caps.back().size()] += static_cast<double>(w);
    }
    for (std::size_t w = 0; w < width; ++w) {
      lanes.push_back({&protocols, &caps[w], seeds[w]});
    }
    const auto batch = simulate_rounds_batch(lanes, config, &piatek());
    const auto solo = solo_sparse_runs(protocols, caps, config, seeds);
    ASSERT_EQ(batch.size(), width);
    for (std::size_t w = 0; w < width; ++w) {
      SCOPED_TRACE("width " + std::to_string(width) + " lane " +
                   std::to_string(w));
      expect_bitwise_equal(batch[w], solo[w]);
    }
  }
}

TEST(BatchEngine, LanesWithDistinctProtocolVectorsStayIndependent) {
  // The PRA tournament batches encounters against different opponents into
  // one batch: each lane carries its own protocol vector.
  SimulationConfig config = quick(149, 150);
  config.intake_factor = 1.2;
  const ProtocolSpec base =
      make(StrangerPolicy::kWhenNeeded, 2, CandidateWindow::kTf2t,
           RankingFunction::kFastest, 4, AllocationPolicy::kPropShare);
  std::vector<std::vector<ProtocolSpec>> protocols;
  std::vector<std::vector<double>> caps;
  std::vector<std::uint64_t> seeds;
  const std::vector<ProtocolSpec> opponents = {
      bittorrent_protocol(), loyal_when_needed_protocol(), birds_protocol()};
  for (std::size_t w = 0; w < opponents.size(); ++w) {
    std::vector<ProtocolSpec> mix(10, base);
    mix.insert(mix.end(), 15, opponents[w]);
    protocols.push_back(std::move(mix));
    caps.push_back(piatek().stratified_sample(25));
    seeds.push_back(500 + w);
  }
  std::vector<BatchLane> lanes;
  for (std::size_t w = 0; w < opponents.size(); ++w) {
    lanes.push_back({&protocols[w], &caps[w], seeds[w]});
  }
  const auto batch = simulate_rounds_batch(lanes, config, &piatek());
  SimulationConfig solo_config = config;
  solo_config.engine = SimEngine::kSparse;
  for (std::size_t w = 0; w < opponents.size(); ++w) {
    SCOPED_TRACE("lane " + std::to_string(w));
    solo_config.seed = seeds[w];
    expect_bitwise_equal(
        batch[w],
        simulate_rounds(protocols[w], caps[w], solo_config, &piatek()));
  }
}

TEST(BatchEngine, WorkspaceReuseAcrossWidthsAndSizesIsStateless) {
  BatchWorkspace reused;
  SimulationConfig config = quick(151, 120);
  config.churn_rate = 0.05;
  auto run_width = [&](std::size_t width, std::size_t population,
                       std::uint64_t seed_base) {
    const std::vector<ProtocolSpec> protocols(population,
                                              bittorrent_protocol());
    std::vector<std::vector<double>> caps;
    std::vector<std::uint64_t> seeds;
    for (std::size_t w = 0; w < width; ++w) {
      caps.push_back(piatek().stratified_sample(population));
      seeds.push_back(seed_base + w);
    }
    std::vector<BatchLane> lanes;
    for (std::size_t w = 0; w < width; ++w) {
      lanes.push_back({&protocols, &caps[w], seeds[w]});
    }
    const auto batch =
        simulate_rounds_batch(lanes, config, &piatek(), &reused);
    const auto solo = solo_sparse_runs(protocols, caps, config, seeds);
    for (std::size_t w = 0; w < width; ++w) {
      SCOPED_TRACE("width " + std::to_string(width) + " lane " +
                   std::to_string(w));
      expect_bitwise_equal(batch[w], solo[w]);
    }
  };
  run_width(8, 30, 700);   // grow
  run_width(3, 20, 800);   // shrink both width and population
  run_width(8, 30, 700);   // back up: must equal the first call's results
}

TEST(BatchEngine, HelperEntryPointsMatchScalarHelpers) {
  SimulationConfig config = quick(157, 150);
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44, 55};

  std::vector<double> batch_perf(seeds.size(), 0.0);
  run_homogeneous_throughput_batch(bittorrent_protocol(), 30, config,
                                   piatek(), seeds, batch_perf);
  for (std::size_t w = 0; w < seeds.size(); ++w) {
    SimulationConfig solo = config;
    solo.seed = seeds[w];
    EXPECT_EQ(batch_perf[w], run_homogeneous_throughput(
                                 bittorrent_protocol(), 30, solo, piatek()))
        << w;
  }

  std::vector<BatchEncounter> encounters;
  const std::vector<ProtocolSpec> opponents = {
      birds_protocol(), loyal_when_needed_protocol(), bittorrent_protocol()};
  for (std::size_t w = 0; w < opponents.size(); ++w) {
    encounters.push_back({opponents[w], 900 + w});
  }
  std::vector<EncounterOutcome> batch_enc(encounters.size());
  run_encounter_batch(bittorrent_protocol(), 10, 20, config, piatek(),
                      encounters, batch_enc);
  for (std::size_t w = 0; w < encounters.size(); ++w) {
    SimulationConfig solo = config;
    solo.seed = encounters[w].seed;
    const auto expected = run_encounter(bittorrent_protocol(), opponents[w],
                                        10, 20, solo, piatek());
    EXPECT_EQ(batch_enc[w].group_a_mean, expected.group_a_mean) << w;
    EXPECT_EQ(batch_enc[w].group_b_mean, expected.group_b_mean) << w;
  }
}

TEST(BatchEngine, ValidatesInput) {
  const SimulationConfig config = quick();
  EXPECT_THROW(simulate_rounds_batch({}, config), std::invalid_argument);
  const std::vector<ProtocolSpec> a(5, bittorrent_protocol());
  const std::vector<ProtocolSpec> b(7, bittorrent_protocol());
  const std::vector<double> caps_a(5, 10.0);
  const std::vector<double> caps_b(7, 10.0);
  const std::vector<BatchLane> mismatched = {{&a, &caps_a, 1},
                                             {&b, &caps_b, 2}};
  EXPECT_THROW(simulate_rounds_batch(mismatched, config),
               std::invalid_argument);
  SimulationConfig churny = quick();
  churny.churn_rate = 0.1;
  const std::vector<BatchLane> single = {{&a, &caps_a, 1}};
  EXPECT_THROW(simulate_rounds_batch(single, churny, /*churn_source=*/nullptr),
               std::invalid_argument);
  std::vector<double> out(2, 0.0);
  EXPECT_THROW(run_homogeneous_throughput_batch(
                   bittorrent_protocol(), 10, config, piatek(),
                   std::vector<std::uint64_t>{1, 2, 3}, out),
               std::invalid_argument);
}

}  // namespace
