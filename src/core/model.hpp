// The substrate interface the PRA quantification drives. A domain (P2P file
// swarming, gossip, ...) implements EncounterModel; the engine in pra.hpp
// only ever sees protocol ids, population splits, and seeds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>

namespace dsa::core {

/// One lane of a batched mixed_utilities call: the varying coordinates of a
/// tournament game (the opponent and the run seed); protocol A and the group
/// split are shared across the batch.
struct MixedJob {
  std::uint32_t opponent = 0;
  std::uint64_t seed = 0;
};

/// A simulatable domain over a finite protocol space. Implementations must
/// be thread-safe for concurrent const calls and deterministic in `seed`.
class EncounterModel {
 public:
  virtual ~EncounterModel() = default;

  /// Number of protocols in the domain's design space.
  [[nodiscard]] virtual std::uint32_t protocol_count() const = 0;

  /// Human-readable description of a protocol id.
  [[nodiscard]] virtual std::string protocol_name(std::uint32_t id) const = 0;

  /// Mean peer utility when all `population` peers execute `protocol`.
  [[nodiscard]] virtual double homogeneous_utility(
      std::uint32_t protocol, std::size_t population,
      std::uint64_t seed) const = 0;

  /// Mean utilities (group A, group B) in a mixed population where
  /// `count_a` peers run `a` and `count_b` run `b`.
  [[nodiscard]] virtual std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const = 0;

  // Batched variants: evaluate many runs in one call. out[w] must equal the
  // corresponding scalar call exactly — batching is an execution strategy,
  // never a semantic change — which the defaults guarantee by delegating to
  // the scalar virtuals one lane at a time. PraEngine calls only the
  // scalar virtuals; these stay because perfbench's TimedModel overrides
  // them. out.size() must equal seeds.size() / jobs.size().

  /// homogeneous_utility(protocol, population, seeds[w]) for every lane.
  virtual void homogeneous_utility_batch(std::uint32_t protocol,
                                         std::size_t population,
                                         std::span<const std::uint64_t> seeds,
                                         std::span<double> out) const {
    for (std::size_t w = 0; w < seeds.size(); ++w) {
      out[w] = homogeneous_utility(protocol, population, seeds[w]);
    }
  }

  /// mixed_utilities(a, jobs[w].opponent, count_a, count_b, jobs[w].seed)
  /// for every lane.
  virtual void mixed_utilities_batch(
      std::uint32_t a, std::size_t count_a, std::size_t count_b,
      std::span<const MixedJob> jobs,
      std::span<std::pair<double, double>> out) const {
    for (std::size_t w = 0; w < jobs.size(); ++w) {
      out[w] = mixed_utilities(a, jobs[w].opponent, count_a, count_b,
                               jobs[w].seed);
    }
  }
};

}  // namespace dsa::core
