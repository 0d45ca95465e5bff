// Golden pins for the round-model engine: a bitwise hash of everything
// simulate_rounds reports, compared against literals recorded before the
// sparse engine's round state moved to per-receiver bitsets. Any change to
// the model, its RNG draw order or its floating-point order shows up here,
// on the default engine, without needing the dense reference to agree.
//
// The cases cover a stride of the 3270-protocol design space at the PRA
// sweep's own scale (homogeneous, even and minority mixes), and mixed
// populations under churn, every fault process, the intake cap and the
// round series, at sizes on both sides of the 64-bit word boundaries.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_process.hpp"
#include "swarming/bandwidth.hpp"
#include "swarming/protocol.hpp"
#include "swarming/simulator.hpp"
#include "util/fingerprint.hpp"

namespace {

using namespace dsa;
using namespace dsa::swarming;

const BandwidthDistribution& piatek() {
  static const BandwidthDistribution dist = BandwidthDistribution::piatek();
  return dist;
}

/// Folds every reported number of one run into `fp`, doubles by bit
/// pattern.
void mix_outcome(util::Fingerprint& fp, const SimulationOutcome& outcome) {
  fp.mix(outcome.peer_throughput.size());
  for (double v : outcome.peer_throughput) fp.mix_double(v);
  fp.mix(outcome.round_throughput.size());
  for (double v : outcome.round_throughput) fp.mix_double(v);
  fp.mix(outcome.peers_replaced);
}

/// Hex form, so a mismatch prints a literal that can be pasted back.
std::string hex(std::uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

/// `count_a` peers of protocol `a`, the rest of `b`, with the sweep's
/// shuffled stratified capacities.
SimulationOutcome run_mix(std::uint32_t a, std::uint32_t b,
                          std::size_t count_a, std::size_t n,
                          const SimulationConfig& config) {
  std::vector<ProtocolSpec> protocols(count_a, decode_protocol(a));
  protocols.insert(protocols.end(), n - count_a, decode_protocol(b));
  return simulate_rounds(protocols,
                         shuffled_capacities(n, piatek(), config.seed), config,
                         &piatek());
}

TEST(RoundGolden, StrideOfTheDesignSpace) {
  // Every 7th protocol at the sweep's scale (50 peers, 12 rounds): alone,
  // in an even mix, and as a 10-peer minority, against a partner protocol
  // spread across the space. [homogeneous, even, minority].
  constexpr std::array<std::uint64_t, 3> kExpected = {
      0x02101185eca21fd9, 0x62756952b033620c, 0x35ce833bcf5ed0d0};
  std::array<util::Fingerprint, 3> fp = {util::Fingerprint(1),
                                         util::Fingerprint(2),
                                         util::Fingerprint(3)};
  SimulationConfig config;
  config.rounds = 12;
  for (std::uint32_t p = 0; p < kProtocolCount; p += 7) {
    const std::uint32_t q = (p * 389 + 1201) % kProtocolCount;
    config.seed = 1000 + p;
    mix_outcome(fp[0], run_mix(p, p, 50, 50, config));
    config.seed = 5000 + p;
    mix_outcome(fp[1], run_mix(p, q, 25, 50, config));
    config.seed = 9000 + p;
    mix_outcome(fp[2], run_mix(p, q, 10, 50, config));
  }
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_EQ(hex(fp[i].value()), hex(kExpected[i])) << "case " << i;
  }
}

/// A population of `n` peers cycling through a stride of the design space,
/// so every ranking, window, stranger policy and allocation meets every
/// other inside one run.
std::vector<ProtocolSpec> spread_population(std::size_t n,
                                            std::uint32_t offset) {
  std::vector<ProtocolSpec> protocols;
  protocols.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    protocols.push_back(decode_protocol(static_cast<std::uint32_t>(
        (i * 337 + offset) % kProtocolCount)));
  }
  return protocols;
}

TEST(RoundGolden, ChurnFaultsAndIntakeCapAcrossWordBoundaries) {
  // [population size][plain, churn + round series, every fault process,
  // intake cap].
  constexpr std::array<std::size_t, 6> kSizes = {20, 63, 64, 65, 128, 129};
  constexpr std::uint64_t kExpected[6][4] = {
      {0xc4e845fbb0bae08c, 0x66e12953ee9791f4,
       0x6f32f146d6f2daa3, 0x7894153e1969ad01},
      {0x7c09080f33be9599, 0x6c09232a95341ee6,
       0xc37bd9984fb06d7f, 0x5e69f527f2beb6f9},
      {0x7efb5c4d50e8f3f1, 0xce9d498d5cf134e7,
       0x6c3561d58a676f2e, 0xc0442c092881311c},
      {0x51d3fee8ca261619, 0xa468d8a538ce6396,
       0x13a2ce4a9ee4a058, 0xce50c06da4557d57},
      {0xe76b47fc874f8899, 0xc52c8f5e7688962b,
       0x439ec3a4bc2d089e, 0xc4225548b0798f83},
      {0xcb1d43235bc4c15b, 0xbcf9b69aa327f016,
       0x1d0d8e13738300dd, 0x6614c7489be9efa1}};
  for (std::size_t s = 0; s < kSizes.size(); ++s) {
    const std::size_t n = kSizes[s];
    const std::vector<ProtocolSpec> protocols =
        spread_population(n, static_cast<std::uint32_t>(17 * s));
    for (std::size_t variant = 0; variant < 4; ++variant) {
      SimulationConfig config;
      config.rounds = 40;
      config.seed = 300 + 10 * s + variant;
      if (variant == 1) {
        config.churn_rate = 0.05;
        config.record_round_series = true;
      } else if (variant == 2) {
        config.faults = {
            fault::FaultProcess::memoryless_churn(0.02),
            fault::FaultProcess::burst_churn(10, 0.2),
            fault::FaultProcess::capacity_degradation(20, 0.6),
            fault::FaultProcess::targeted_failure(30, 0.1),
        };
      } else if (variant == 3) {
        config.intake_factor = 1.1;
      }
      util::Fingerprint fp(0x60 + variant);
      mix_outcome(fp, simulate_rounds(protocols,
                                      shuffled_capacities(n, piatek(),
                                                          config.seed),
                                      config, &piatek()));
      EXPECT_EQ(hex(fp.value()), hex(kExpected[s][variant]))
          << n << " peers, variant " << variant;
    }
  }
}

}  // namespace
