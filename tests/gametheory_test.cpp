// Tests for src/gametheory: the BitTorrent Dilemma payoffs (Fig. 1), the
// Sec. 2.2 expected-wins model against hand-computed values, the Appendix
// Nash-equilibrium analysis across a parameter grid, and an agent-based
// cross-check using the iterated-games simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "gametheory/expected_wins.hpp"
#include "gametheory/iterated.hpp"
#include "gametheory/payoff.hpp"

namespace {

using namespace dsa::gametheory;

// -------------------------------------------------------------- payoff ----

TEST(Payoff, FastPeerAlwaysPrefersDefection) {
  const auto game = bittorrent_dilemma(100.0, 20.0);
  EXPECT_EQ(game.dominant_action(Role::kFast), Action::kDefect);
  // Fast vs a cooperating slow: defecting grabs s instead of s - f < 0.
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kFast, Action::kCooperate, Action::kCooperate),
      20.0 - 100.0);
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kFast, Action::kDefect, Action::kCooperate), 20.0);
}

TEST(Payoff, SlowPeerCooperatesInBitTorrentView) {
  const auto game = bittorrent_dilemma(100.0, 20.0);
  EXPECT_EQ(game.dominant_action(Role::kSlow), Action::kCooperate);
  // Cooperating with a cooperating fast peer yields f; defecting nets s.
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kSlow, Action::kCooperate, Action::kCooperate), 100.0);
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kSlow, Action::kCooperate, Action::kDefect), 20.0);
}

TEST(Payoff, SlowPeerDefectsInBirdsView) {
  const auto game = birds_payoffs(100.0, 20.0);
  EXPECT_EQ(game.dominant_action(Role::kSlow), Action::kDefect);
  EXPECT_EQ(game.dominant_action(Role::kFast), Action::kDefect);
  // Cooperating now costs the missed slow-slow relationship: f - s < f.
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kSlow, Action::kCooperate, Action::kCooperate), 80.0);
  EXPECT_DOUBLE_EQ(
      game.payoff(Role::kSlow, Action::kCooperate, Action::kDefect), 100.0);
}

TEST(Payoff, DictatorOutcomeIsNashInBitTorrentView) {
  const auto game = bittorrent_dilemma(100.0, 20.0);
  // Fast defects, slow cooperates — the one-sided outcome of Fig. 1(b).
  EXPECT_TRUE(game.is_nash(Action::kDefect, Action::kCooperate));
  EXPECT_FALSE(game.is_nash(Action::kCooperate, Action::kCooperate));
}

TEST(Payoff, MutualDefectionIsNashInBirdsView) {
  const auto game = birds_payoffs(100.0, 20.0);
  EXPECT_TRUE(game.is_nash(Action::kDefect, Action::kDefect));
}

TEST(Payoff, BestResponsesFollowDominance) {
  const auto game = bittorrent_dilemma(80.0, 10.0);
  EXPECT_EQ(game.best_response(Role::kFast, Action::kCooperate),
            Action::kDefect);
  EXPECT_EQ(game.best_response(Role::kSlow, Action::kCooperate),
            Action::kCooperate);
}

TEST(Payoff, RequiresFastStrictlyFasterThanSlow) {
  EXPECT_THROW(bittorrent_dilemma(10.0, 10.0), std::invalid_argument);
  EXPECT_THROW(bittorrent_dilemma(10.0, 20.0), std::invalid_argument);
  EXPECT_THROW(birds_payoffs(10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(birds_payoffs(10.0, -1.0), std::invalid_argument);
}

class PayoffSpeedSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(PayoffSpeedSweep, DominanceHoldsAcrossSpeeds) {
  const auto [f, s] = GetParam();
  const auto bt = bittorrent_dilemma(f, s);
  const auto birds = birds_payoffs(f, s);
  EXPECT_EQ(bt.dominant_action(Role::kFast), Action::kDefect);
  EXPECT_EQ(bt.dominant_action(Role::kSlow), Action::kCooperate);
  EXPECT_EQ(birds.dominant_action(Role::kFast), Action::kDefect);
  EXPECT_EQ(birds.dominant_action(Role::kSlow), Action::kDefect);
}

INSTANTIATE_TEST_SUITE_P(
    Speeds, PayoffSpeedSweep,
    ::testing::Values(std::pair{100.0, 20.0}, std::pair{50.0, 49.0},
                      std::pair{1000.0, 1.0}, std::pair{2.0, 1.0},
                      std::pair{745.0, 56.0}));

// ------------------------------------------------------- expected wins ----

ClassSetup symmetric_setup() {
  ClassSetup setup;
  setup.peers_above = 10;
  setup.peers_below = 10;
  setup.peers_same = 10;
  setup.regular_slots = 4;
  return setup;
}

TEST(ExpectedWins, BitTorrentMatchesHandComputedValues) {
  // NA = NB = NC = 10, Ur = 4 -> Nr = 25, E[A->c] = 0.4,
  // K = 1 - (0.6 * 0.75)^4, Er[C->c] = 4 - 0.4 - K.
  const auto w = bittorrent_expected_wins(symmetric_setup());
  EXPECT_DOUBLE_EQ(w.reciprocated_above, 0.0);
  EXPECT_DOUBLE_EQ(w.free_above, 0.4);
  EXPECT_DOUBLE_EQ(w.reciprocated_below, 0.4);
  EXPECT_DOUBLE_EQ(w.free_below, 0.4);
  const double k = 1.0 - std::pow(0.6 * 0.75, 4.0);
  EXPECT_NEAR(w.reciprocated_same, 4.0 - 0.4 - k, 1e-12);
  EXPECT_NEAR(w.free_same, (10.0 - 1.0 - w.reciprocated_same) / 25.0, 1e-12);
}

TEST(ExpectedWins, BirdsMatchesHandComputedValues) {
  const auto w = birds_expected_wins(symmetric_setup());
  EXPECT_DOUBLE_EQ(w.reciprocated_above, 0.0);
  EXPECT_DOUBLE_EQ(w.reciprocated_below, 0.0);
  EXPECT_DOUBLE_EQ(w.reciprocated_same, 4.0);
  EXPECT_DOUBLE_EQ(w.free_above, 0.4);
  EXPECT_DOUBLE_EQ(w.free_below, 0.4);
  EXPECT_DOUBLE_EQ(w.free_same, (10.0 - 1.0 - 4.0) / 25.0);
}

TEST(ExpectedWins, ContentionPoolMatchesTable1) {
  const ClassSetup setup = symmetric_setup();
  EXPECT_DOUBLE_EQ(setup.contention_pool(), 30.0 - 4.0 - 1.0);
}

TEST(ExpectedWins, InvalidSetupsThrow) {
  ClassSetup setup = symmetric_setup();
  setup.regular_slots = 0;
  EXPECT_THROW(bittorrent_expected_wins(setup), std::invalid_argument);
  setup = symmetric_setup();
  setup.peers_above = 4;  // needs NA > Ur
  EXPECT_THROW(bittorrent_expected_wins(setup), std::invalid_argument);
  setup = symmetric_setup();
  setup.peers_same = 5;  // needs NC > Ur + 1
  EXPECT_THROW(birds_expected_wins(setup), std::invalid_argument);
}

TEST(ExpectedWins, SameClassReciprocationBoundedBySlots) {
  const auto bt = bittorrent_expected_wins(symmetric_setup());
  const auto birds = birds_expected_wins(symmetric_setup());
  EXPECT_LE(bt.reciprocated_same, 4.0);
  EXPECT_LE(birds.reciprocated_same, 4.0);
  EXPECT_GE(bt.reciprocated_same, 0.0);
}

TEST(ExpectedWins, BirdsKeepsMoreSameClassReciprocation) {
  // Birds never deserts same-class partners for higher classes.
  const auto bt = bittorrent_expected_wins(symmetric_setup());
  const auto birds = birds_expected_wins(symmetric_setup());
  EXPECT_GT(birds.reciprocated_same, bt.reciprocated_same);
}

using SetupTuple = std::tuple<int, int, int, int>;  // NA, NB, NC, Ur

class InvasionSweep : public ::testing::TestWithParam<SetupTuple> {
 protected:
  ClassSetup setup() const {
    const auto [na, nb, nc, ur] = GetParam();
    ClassSetup s;
    s.peers_above = na;
    s.peers_below = nb;
    s.peers_same = nc;
    s.regular_slots = ur;
    return s;
  }
};

TEST_P(InvasionSweep, BirdsInvaderBeatsBitTorrentIncumbents) {
  const auto analysis = birds_invades_bittorrent(setup());
  EXPECT_TRUE(analysis.invader_outperforms)
      << "invader=" << analysis.invader.total()
      << " incumbent=" << analysis.incumbent.total();
}

TEST_P(InvasionSweep, BitTorrentInvaderLosesToBirdsIncumbents) {
  const auto analysis = bittorrent_invades_birds(setup());
  EXPECT_FALSE(analysis.invader_outperforms)
      << "invader=" << analysis.invader.total()
      << " incumbent=" << analysis.incumbent.total();
}

TEST_P(InvasionSweep, SameClassInequalitiesOfTheAppendix) {
  // ErB[C->c]' > Er[C->c]' and E[C->c]' > EB[C->c]' (BT swarm);
  // ErB[C->c]'' > Er[C->c]'' and EB[C->c]'' > E[C->c]'' (Birds swarm).
  const auto bt_swarm = birds_invades_bittorrent(setup());
  EXPECT_GT(bt_swarm.invader.reciprocated_same,
            bt_swarm.incumbent.reciprocated_same);
  EXPECT_GT(bt_swarm.incumbent.free_same, bt_swarm.invader.free_same);

  const auto birds_swarm = bittorrent_invades_birds(setup());
  EXPECT_GT(birds_swarm.incumbent.reciprocated_same,
            birds_swarm.invader.reciprocated_same);
  EXPECT_GT(birds_swarm.incumbent.free_same, birds_swarm.invader.free_same);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, InvasionSweep,
    ::testing::Values(SetupTuple{10, 10, 10, 4}, SetupTuple{20, 5, 10, 4},
                      SetupTuple{6, 20, 8, 5}, SetupTuple{30, 30, 30, 9},
                      SetupTuple{8, 0, 7, 3}, SetupTuple{15, 2, 25, 1},
                      SetupTuple{100, 50, 40, 8}, SetupTuple{5, 5, 6, 2}));

// --------------------------------------------------- population model ----

TEST(PopulationWins, MatchesFocalSetupPerClass) {
  // The population view must agree with the focal-peer API for the class in
  // the middle.
  ClassProfile profile;
  profile.class_sizes = {10, 10, 10};  // slow, mid, fast
  profile.regular_slots = 4;
  ASSERT_TRUE(profile.valid());

  const auto population = bittorrent_population_wins(profile);
  ASSERT_EQ(population.size(), 3u);
  const auto focal = bittorrent_expected_wins(symmetric_setup());
  EXPECT_DOUBLE_EQ(population[1].total(), focal.total());
  EXPECT_DOUBLE_EQ(population[1].reciprocated_same, focal.reciprocated_same);
}

TEST(PopulationWins, FastestClassWinsMostUnderBitTorrent) {
  ClassProfile profile;
  profile.class_sizes = {12, 10, 8, 7};
  profile.regular_slots = 4;
  const auto wins = bittorrent_population_wins(profile);
  // Under TFT, higher classes keep their reciprocation and still collect
  // free wins; totals rise with class.
  for (std::size_t c = 1; c < wins.size(); ++c) {
    EXPECT_GT(wins[c].reciprocated_same + wins[c].reciprocated_below,
              wins[c - 1].reciprocated_same + wins[c - 1].reciprocated_below -
                  1e-9);
  }
  // The top class never receives upward reciprocation (there is no upward).
  EXPECT_DOUBLE_EQ(wins.back().reciprocated_above, 0.0);
  EXPECT_DOUBLE_EQ(wins.back().free_above, 0.0);
}

TEST(PopulationWins, BirdsEqualizesSameClassReciprocation) {
  ClassProfile profile;
  profile.class_sizes = {10, 10, 10};
  profile.regular_slots = 4;
  const auto birds = birds_population_wins(profile);
  for (const auto& w : birds) {
    EXPECT_DOUBLE_EQ(w.reciprocated_same, 4.0);  // Ur for every class
    EXPECT_DOUBLE_EQ(w.reciprocated_above, 0.0);
    EXPECT_DOUBLE_EQ(w.reciprocated_below, 0.0);
  }
}

TEST(PopulationWins, ProfileValidation) {
  ClassProfile profile;
  profile.class_sizes = {10};
  profile.regular_slots = 4;
  EXPECT_FALSE(profile.valid());  // a single class has nothing above/below
  profile.class_sizes = {10, 3};  // non-top class needs NA > Ur: 3 <= 4
  EXPECT_FALSE(profile.valid());
  profile.class_sizes = {10, 10};
  EXPECT_TRUE(profile.valid());
  profile.regular_slots = 0;
  EXPECT_FALSE(profile.valid());
  profile.regular_slots = 4;
  profile.class_sizes = {5, 10};  // class 0 needs NC > Ur + 1: 5 <= 5
  EXPECT_FALSE(profile.valid());
  EXPECT_THROW(bittorrent_population_wins(profile), std::invalid_argument);
  EXPECT_THROW((void)profile.setup_for(7), std::out_of_range);
}

TEST(PopulationWins, SetupForComputesClassNeighborhoods) {
  ClassProfile profile;
  profile.class_sizes = {6, 7, 8, 9};
  profile.regular_slots = 3;
  const ClassSetup mid = profile.setup_for(2);
  EXPECT_EQ(mid.peers_below, 13u);  // 6 + 7
  EXPECT_EQ(mid.peers_same, 8u);
  EXPECT_EQ(mid.peers_above, 9u);
  EXPECT_EQ(mid.regular_slots, 3u);
}

// ----------------------------------------------------------- iterated ----

std::vector<std::size_t> indices_of_class(const std::vector<PeerSpec>& peers,
                                          double speed, Strategy strategy) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].speed == speed && peers[i].strategy == strategy) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(Iterated, ValidatesInput) {
  IteratedConfig config;
  EXPECT_THROW(simulate_iterated_games({}, config), std::invalid_argument);
  EXPECT_THROW(simulate_iterated_games({PeerSpec{}}, config),
               std::invalid_argument);
  config.regular_slots = 0;
  EXPECT_THROW(
      simulate_iterated_games({PeerSpec{}, PeerSpec{}}, config),
      std::invalid_argument);
}

TEST(Iterated, DeterministicForSameSeed) {
  const auto peers =
      uniform_population({10.0, 50.0, 100.0}, 8, Strategy::kBitTorrent);
  IteratedConfig config;
  config.rounds = 100;
  const auto a = simulate_iterated_games(peers, config);
  const auto b = simulate_iterated_games(peers, config);
  EXPECT_EQ(a.average_wins, b.average_wins);
}

TEST(Iterated, TotalWinsConserved) {
  // Every cooperation event is one win for somebody: with 1 optimistic slot
  // and at most Ur reciprocations per peer, total wins per round <= Ur + 1
  // per peer and >= 1 (the optimistic slot always fires while partners are
  // scarce).
  const auto peers =
      uniform_population({10.0, 100.0}, 10, Strategy::kBitTorrent);
  IteratedConfig config;
  config.regular_slots = 4;
  config.rounds = 200;
  const auto result = simulate_iterated_games(peers, config);
  double total = 0.0;
  for (double w : result.average_wins) total += w;
  EXPECT_GE(total, static_cast<double>(peers.size()) * 1.0);
  EXPECT_LE(total, static_cast<double>(peers.size()) * 5.0);
}

/// Average (invader wins, incumbent same-class wins) over several seeds for
/// a single middle-class invader of `invader_strategy` in a swarm of
/// `incumbent_strategy` peers.
std::pair<double, double> invasion_wins(Strategy incumbent_strategy,
                                        Strategy invader_strategy) {
  double invader_total = 0.0;
  double incumbent_total = 0.0;
  constexpr int kSeeds = 8;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto peers =
        uniform_population({10.0, 50.0, 100.0}, 10, incumbent_strategy);
    const auto middles = indices_of_class(peers, 50.0, incumbent_strategy);
    peers[middles.front()].strategy = invader_strategy;

    IteratedConfig config;
    config.regular_slots = 4;
    config.rounds = 2000;
    config.seed = static_cast<std::uint64_t>(seed) * 7919;
    const auto result = simulate_iterated_games(peers, config);

    invader_total += result.average_wins[middles.front()];
    incumbent_total += result.mean_over(
        indices_of_class(peers, 50.0, incumbent_strategy));
  }
  return {invader_total / kSeeds, incumbent_total / kSeeds};
}

TEST(Iterated, BirdsInvaderOutperformsBitTorrentClassmates) {
  // One Birds peer in an otherwise all-BitTorrent swarm should, per the
  // Appendix, win more games than the average BT peer of its own class.
  const auto [invader, incumbent] =
      invasion_wins(Strategy::kBitTorrent, Strategy::kBirds);
  EXPECT_GT(invader, incumbent);
}

TEST(Iterated, BitTorrentInvaderGainsAtMostMarginallyOnBirds) {
  // The closed form (Appendix) gives Birds incumbents a small edge. The
  // richer agent model exposes a channel it ignores: fast Birds peers that
  // are short of fast cooperators reciprocate a mid-speed BT invader
  // (|100-50| < |100-10|), granting it a few percent more wins. We assert
  // the deviation stays marginal — the invader gains far less here than the
  // Birds invader gains against BitTorrent (next test).
  const auto [invader, incumbent] =
      invasion_wins(Strategy::kBirds, Strategy::kBitTorrent);
  EXPECT_LE(invader, incumbent * 1.08);
}

TEST(Iterated, BirdsInvasionAdvantageExceedsBitTorrentInvasionAdvantage) {
  // The sharp comparative claim behind "BT is not a NE, Birds (nearly) is":
  // deviating to Birds inside BitTorrent pays more than deviating to
  // BitTorrent inside Birds.
  const auto [birds_inv, bt_inc] =
      invasion_wins(Strategy::kBitTorrent, Strategy::kBirds);
  const auto [bt_inv, birds_inc] =
      invasion_wins(Strategy::kBirds, Strategy::kBitTorrent);
  EXPECT_GT(birds_inv / bt_inc, bt_inv / birds_inc);
}

TEST(Iterated, FastClassWinsMoreThanSlowClassUnderBitTorrent) {
  const auto peers =
      uniform_population({10.0, 100.0}, 15, Strategy::kBitTorrent);
  IteratedConfig config;
  config.rounds = 1000;
  const auto result = simulate_iterated_games(peers, config);
  const double slow =
      result.mean_over(indices_of_class(peers, 10.0, Strategy::kBitTorrent));
  const double fast =
      result.mean_over(indices_of_class(peers, 100.0, Strategy::kBitTorrent));
  EXPECT_GT(fast, slow);
}

TEST(Iterated, UniformPopulationBuilder) {
  const auto peers = uniform_population({1.0, 2.0}, 3, Strategy::kBirds);
  ASSERT_EQ(peers.size(), 6u);
  EXPECT_EQ(peers[0].speed, 1.0);
  EXPECT_EQ(peers[5].speed, 2.0);
  EXPECT_EQ(peers[2].strategy, Strategy::kBirds);
}

TEST(Iterated, MeanOverEmptyIsZero) {
  IteratedResult result;
  result.average_wins = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(result.mean_over({}), 0.0);
  EXPECT_DOUBLE_EQ(result.mean_over({0, 1}), 1.5);
}

}  // namespace
