// A view of an EncounterModel restricted to a subset of protocol ids.
// Useful for focused tournaments (e.g. the paper's Sec. 5 head-to-heads),
// fast integration tests, and quickstart-scale demos: the PRA engine sees a
// dense [0, subset_size) space while simulations run the underlying
// protocols.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/model.hpp"

namespace dsa::core {

/// Adapter restricting `base` to `members` (base-protocol ids).
class SubspaceModel final : public EncounterModel {
 public:
  /// `base` must outlive the subspace. Throws std::invalid_argument when
  /// members has fewer than 2 entries, duplicates, or out-of-range ids.
  SubspaceModel(const EncounterModel& base,
                std::vector<std::uint32_t> members);

  [[nodiscard]] std::uint32_t protocol_count() const override {
    return static_cast<std::uint32_t>(members_.size());
  }

  [[nodiscard]] std::string protocol_name(std::uint32_t id) const override {
    return base_.protocol_name(member(id));
  }

  [[nodiscard]] double homogeneous_utility(std::uint32_t protocol,
                                           std::size_t population,
                                           std::uint64_t seed) const override {
    return base_.homogeneous_utility(member(protocol), population, seed);
  }

  [[nodiscard]] std::pair<double, double> mixed_utilities(
      std::uint32_t a, std::uint32_t b, std::size_t count_a,
      std::size_t count_b, std::uint64_t seed) const override {
    return base_.mixed_utilities(member(a), member(b), count_a, count_b,
                                 seed);
  }

  /// Base-space id of subset protocol `id`; throws std::out_of_range.
  [[nodiscard]] std::uint32_t member(std::uint32_t id) const {
    if (id >= members_.size()) {
      throw std::out_of_range("SubspaceModel: protocol id outside subset");
    }
    return members_[id];
  }

 private:
  const EncounterModel& base_;
  std::vector<std::uint32_t> members_;
};

}  // namespace dsa::core
