// Golden pins for the piece-level swarm engine: a bitwise hash of every
// number a run reports, compared against literals recorded before the
// engine's piece selection moved to per-peer bitsets. Any change to the
// model, its RNG draw order or its floating-point order shows up here.
//
// The cases cover every client variant at three mix fractions, each fault
// class (loss with timeout retries, a crash mid-download, a seeder
// outage), staggered arrivals, and piece counts on both sides of the
// 64-bit word boundaries.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "swarm/swarm_sim.hpp"
#include "util/fingerprint.hpp"

namespace {

using namespace dsa;
using namespace dsa::swarm;

constexpr std::array<ClientVariant, 5> kVariants = {
    ClientVariant::kBitTorrent, ClientVariant::kBirds,
    ClientVariant::kLoyalWhenNeeded, ClientVariant::kSortSlowest,
    ClientVariant::kRandomRank};

/// Hash of completion times, uploaded/downloaded KB, all_completed and
/// every FaultStats field, doubles by bit pattern.
std::uint64_t result_hash(const SwarmResult& result) {
  util::Fingerprint fp(0x5a4e60de);
  fp.mix(result.completion_time.size());
  for (double t : result.completion_time) fp.mix_double(t);
  for (double kb : result.uploaded_kb) fp.mix_double(kb);
  for (double kb : result.downloaded_kb) fp.mix_double(kb);
  fp.mix(result.all_completed ? 1 : 0);
  const FaultStats& s = result.fault_stats;
  fp.mix(s.messages_lost);
  fp.mix_double(s.lost_kb);
  fp.mix(s.retries_issued);
  fp.mix(s.crashes);
  fp.mix(s.pieces_wiped);
  fp.mix(s.stall_ticks);
  fp.mix(s.seeder_down_ticks);
  fp.mix_double(s.mean_seeder_recovery_ticks);
  return fp.value();
}

/// Hex form, so a mismatch prints a literal that can be pasted back.
std::string hex(std::uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

TEST(SwarmGolden, VariantMixes) {
  // [variant a][fraction], b = the next variant in kVariants.
  constexpr std::uint64_t kExpected[5][3] = {
      {0x0203435b13c021c9, 0x3be1a6b386d3f789, 0xf4d14c7dca2444c4},
      {0xe1e70aab710f40d4, 0x907c212b40bd741d, 0x7df6f0e5882cbf68},
      {0xde832df48f66c5cd, 0x7779b7ef31d1c7ee, 0x5c512360b9750f01},
      {0xc9e2fc84a4977aa4, 0x2f5755e3eceb5646, 0x8df23a452dfd283d},
      {0xf3b14c83541a6f4f, 0x6cbdb8318ecb60bf, 0x14e1dc26e833ee45}};
  constexpr std::array<std::size_t, 3> kCountA = {5, 25, 45};  // of 50
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    for (std::size_t f = 0; f < kCountA.size(); ++f) {
      SwarmConfig config;
      config.seed = 11 + v * 3 + f;
      const SwarmResult result =
          run_mixed_swarm(kVariants[v], kVariants[(v + 1) % kVariants.size()],
                          kCountA[f], 50, config);
      EXPECT_EQ(hex(result_hash(result)), hex(kExpected[v][f]))
          << to_string(kVariants[v]) << " at " << kCountA[f] << "/50";
    }
  }
}

TEST(SwarmGolden, LossWithTimeoutRetries) {
  SwarmConfig config;
  config.seed = 7;
  config.faults.message_loss = 0.3;
  config.faults.piece_timeout_ticks = 3;
  const SwarmResult result = run_mixed_swarm(
      ClientVariant::kBitTorrent, ClientVariant::kBirds, 25, 50, config);
  EXPECT_GT(result.fault_stats.messages_lost, 0u);
  EXPECT_GT(result.fault_stats.retries_issued, 0u);
  EXPECT_EQ(hex(result_hash(result)), hex(0xd6772c6b8a234797));
}

TEST(SwarmGolden, CrashMidDownload) {
  SwarmConfig config;
  config.seed = 8;
  config.faults.crashes = {{.leecher = 3, .tick = 40, .downtime = 30},
                           {.leecher = 35, .tick = 70, .downtime = 10}};
  const SwarmResult result = run_mixed_swarm(
      ClientVariant::kLoyalWhenNeeded, ClientVariant::kBitTorrent, 10, 50,
      config);
  EXPECT_EQ(result.fault_stats.crashes, 2u);
  EXPECT_GT(result.fault_stats.pieces_wiped, 0u);
  EXPECT_EQ(hex(result_hash(result)), hex(0x071b4ce1eec0241b));
}

TEST(SwarmGolden, SeederOutage) {
  SwarmConfig config;
  config.seed = 9;
  config.faults.seeder_outages = {{.begin_tick = 60, .end_tick = 160}};
  const SwarmResult result = run_mixed_swarm(
      ClientVariant::kRandomRank, ClientVariant::kSortSlowest, 30, 50, config);
  EXPECT_EQ(result.fault_stats.seeder_down_ticks, 100u);
  EXPECT_GE(result.fault_stats.mean_seeder_recovery_ticks, 0.0);
  EXPECT_EQ(hex(result_hash(result)), hex(0x6ab94b8f9a0d89f4));
}

TEST(SwarmGolden, StaggeredArrivals) {
  SwarmConfig config;
  config.seed = 10;
  config.arrival_interval = 7;
  const SwarmResult result = run_mixed_swarm(
      ClientVariant::kBirds, ClientVariant::kBitTorrent, 20, 50, config);
  EXPECT_EQ(hex(result_hash(result)), hex(0x5f315ef479611bb1));
}

TEST(SwarmGolden, PieceCountsAcrossWordBoundaries) {
  // [piece count][plain, faulted]; the faulted run adds loss, timeouts and
  // a crash so releases and wipes hit every word layout too.
  constexpr std::array<std::size_t, 5> kPieces = {1, 63, 64, 65, 128};
  constexpr std::uint64_t kExpected[5][2] = {
      {0xd13918d1386d9460, 0xf1bcd36bb382ff72},
      {0x3860bb4e4872f07b, 0xfd99394c132fa8cd},
      {0x15b8bc3be29d07fe, 0xcf45218e2c20fc79},
      {0x161ffb8a3fa5297a, 0xbeddb123c65883bb},
      {0x26b996c03174cee1, 0x1ab38747d223de73}};
  for (std::size_t k = 0; k < kPieces.size(); ++k) {
    for (std::size_t faulted = 0; faulted < 2; ++faulted) {
      SwarmConfig config;
      config.seed = 100 + k;
      config.piece_count = kPieces[k];
      if (faulted) {
        config.faults.message_loss = 0.2;
        config.faults.piece_timeout_ticks = 2;
        config.faults.crashes = {{.leecher = 4, .tick = 30, .downtime = 15}};
      }
      const SwarmResult result = run_mixed_swarm(
          ClientVariant::kBitTorrent, ClientVariant::kLoyalWhenNeeded, 8, 20,
          config);
      EXPECT_EQ(hex(result_hash(result)), hex(kExpected[k][faulted]))
          << kPieces[k] << " pieces, faulted=" << faulted;
    }
  }
}

}  // namespace
