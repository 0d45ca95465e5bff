// Partial Fisher–Yates shuffles of lists that are never materialized.
//
// Several samplers draw the first few entries of a seeded shuffle of a long,
// regular list: the PRA engine's per-protocol opponent sample (every other
// protocol, ascending) and the round engines' stranger picks (every peer
// outside the candidate set, ascending). Building the list costs O(size)
// per draw; VirtualShuffle instead reads untouched positions from a
// closed-form base(x) and keeps only the positions the shuffle has swapped
// into, so a draw of s entries costs O(s) calls to base().
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dsa::util {

/// Reusable scratch for shuffle(); holding one across calls keeps repeated
/// draws allocation-free.
class VirtualShuffle {
 public:
  /// Appends to `out` the first `picks` entries (picks <= size) of a
  /// partial Fisher–Yates shuffle of a `size`-entry list whose untouched
  /// position x holds base(x). Step i swaps position i with
  /// i + draw(size - i): the same draw arguments, in the same order, as
  /// shuffling the materialized list, so the picks are identical to it.
  template <typename Base, typename Draw>
  void shuffle(std::size_t size, std::size_t picks, Base&& base, Draw&& draw,
               std::vector<std::uint32_t>& out) {
    if (picks <= kSmallPicks) {
      // A handful of picks (the round engines' stranger draws) records at
      // most that many swaps: a linear scan of a fixed array beats
      // hashing.
      SmallOverlay overlay;
      run(size, picks, base, draw, out, overlay);
      return;
    }
    hash_.reset(picks);
    run(size, picks, base, draw, out, hash_);
  }

 private:
  static constexpr std::size_t kSmallPicks = 3;
  struct Slot {
    std::uint32_t pos;
    std::uint32_t value;
  };

  template <typename Base, typename Draw, typename Overlay>
  static void run(std::size_t size, std::size_t picks, Base& base, Draw& draw,
                  std::vector<std::uint32_t>& out, Overlay& overlay) {
    for (std::size_t i = 0; i < picks; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(draw(size - i));
      const std::uint32_t picked = overlay.read(j, base);
      // Position i is never read again (later steps read positions > i),
      // so only the displaced entry moving to j needs recording.
      if (j != i) overlay.write(j, overlay.read(i, base));
      out.push_back(picked);
    }
  }

  /// The swapped positions of a draw of at most kSmallPicks entries, in
  /// write order.
  struct SmallOverlay {
    Slot slots[kSmallPicks];
    std::size_t count = 0;

    template <typename Base>
    [[nodiscard]] std::uint32_t read(std::size_t pos, Base& base) const {
      for (std::size_t s = 0; s < count; ++s) {
        if (slots[s].pos == pos) return slots[s].value;
      }
      return base(pos);
    }

    void write(std::size_t pos, std::uint32_t value) {
      for (std::size_t s = 0; s < count; ++s) {
        if (slots[s].pos == pos) {
          slots[s].value = value;
          return;
        }
      }
      slots[count++] = {static_cast<std::uint32_t>(pos), value};
    }
  };

  /// Open-addressing table of swapped positions for larger draws.
  class HashOverlay {
   public:
    /// Sizes the table for `picks` writes at a load factor of at most 1/2.
    void reset(std::size_t picks) {
      const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(
          8, 2 * picks));
      shift_ = 64 - std::countr_zero(capacity);
      slots_.assign(capacity, Slot{kEmpty, 0});
    }

    template <typename Base>
    [[nodiscard]] std::uint32_t read(std::size_t pos, Base& base) const {
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t s = home(pos);; s = (s + 1) & mask) {
        if (slots_[s].pos == pos) return slots_[s].value;
        if (slots_[s].pos == kEmpty) return base(pos);
      }
    }

    void write(std::size_t pos, std::uint32_t value) {
      const std::size_t mask = slots_.size() - 1;
      std::size_t s = home(pos);
      while (slots_[s].pos != kEmpty && slots_[s].pos != pos) {
        s = (s + 1) & mask;
      }
      slots_[s] = {static_cast<std::uint32_t>(pos), value};
    }

   private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    /// Fibonacci hashing into the power-of-two table, then linear probing.
    [[nodiscard]] std::size_t home(std::size_t pos) const noexcept {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(pos) * 0x9e3779b97f4a7c15ULL) >>
          shift_);
    }

    std::vector<Slot> slots_;
    int shift_ = 64;
  };

  HashOverlay hash_;
};

}  // namespace dsa::util
