#include "swarming/dsa_model.hpp"

#include <stdexcept>
#include <vector>

#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace dsa::swarming {

// A PRA sweep drives ~1e5 inner simulations per protocol batch; recording
// each of them would swamp a recording with per-round events nobody asked
// for. SuppressScope latches the flight recorder off for sims spawned by the
// quantification tournament — the sweep's own summary (kPra events) is
// emitted by the dataset layer after normalisation. Purely observer-side:
// sim outputs are unaffected.

double SwarmingModel::homogeneous_utility(std::uint32_t protocol,
                                          std::size_t population,
                                          std::uint64_t seed) const {
  obs::SuppressScope suppress;
  SimulationConfig config = base_;
  config.seed = seed;
  return run_homogeneous_throughput(decode_protocol(protocol), population,
                                    config, bandwidths_);
}

std::vector<double> SwarmingModel::group_utilities(
    std::span<const core::GroupShare> groups, std::uint64_t seed) const {
  obs::SuppressScope suppress;
  std::size_t total = 0;
  for (const auto& group : groups) total += group.count;
  if (total == 0) {
    throw std::invalid_argument(
        "SwarmingModel::group_utilities: empty population");
  }

  std::vector<ProtocolSpec> protocols;
  protocols.reserve(total);
  for (const auto& group : groups) {
    protocols.insert(protocols.end(), group.count,
                     decode_protocol(group.protocol));
  }

  std::vector<double> capacities = bandwidths_.stratified_sample(total);
  util::Rng rng(util::hash64(seed ^ 0x9d2c5680cafef00dULL));
  rng.shuffle(capacities);

  SimulationConfig config = base_;
  config.seed = seed;
  const SimulationOutcome outcome =
      simulate_rounds(protocols, capacities, config, &bandwidths_);

  std::vector<double> utilities(groups.size(), 0.0);
  std::size_t offset = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].count > 0) {
      utilities[g] = outcome.group_mean(offset, offset + groups[g].count);
      offset += groups[g].count;
    }
  }
  return utilities;
}

std::pair<double, double> SwarmingModel::mixed_utilities(
    std::uint32_t a, std::uint32_t b, std::size_t count_a,
    std::size_t count_b, std::uint64_t seed) const {
  obs::SuppressScope suppress;
  SimulationConfig config = base_;
  config.seed = seed;
  const EncounterOutcome outcome =
      run_encounter(decode_protocol(a), decode_protocol(b), count_a, count_b,
                    config, bandwidths_);
  return {outcome.group_a_mean, outcome.group_b_mean};
}

}  // namespace dsa::swarming
