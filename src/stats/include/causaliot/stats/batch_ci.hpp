// Batched multi-subset conditional-independence counting.
//
// TemporalPC's level-l loop tests the same (parent x, child y) pair
// against many conditioning subsets Z drawn from one candidate pool, and
// the per-subset kernel (stats/ci_context.hpp) re-scans every packed
// column for each subset. This context removes the rescans by working in
// the subset lattice instead: every cell of every stratum table is an
// integer combination of plain intersection counts
//
//   P(S) = #rows where all columns in S are 1,
//
// and the 2^|Z| stratum tables follow from the quads
// (P(T), P(T∪{y}), P(T∪{x}), P(T∪{x,y})) for T ⊆ Z by Möbius inversion
// over the lattice — exact integer arithmetic, so the assembled tables
// (and every statistic computed from them) are bit-identical to direct
// counting. The context memoizes P(·) by column set, which is where the
// batching pays off:
//
//   * Lattice marginalization: a level-l test only ever has to count its
//     two top sets Z and Z∪{x} — every strict subset quad was already
//     counted by an earlier level or an earlier subset of the batch, and
//     marginalizing down is table arithmetic, not a column scan.
//   * Multi-key accumulation: prepare_marginals() counts the level-0
//     tables of many parents per pass over the words, keeping one
//     accumulator pair per parent live while the y column loads are
//     shared.
//
// The memo has three tiers: a flat array for single columns, lazily
// allocated rows for pairs, and an open-addressing table above. A set's
// key is its ids in ascending order, each stored as id + 1 in 16 bits of
// two words, so a set's prefix (the set minus its largest id) is its key
// with the last id cleared. count_strata builds each lattice term's keys
// in O(1) from the term minus its largest id.
//
// One context per (child, worker): it binds y once and is not
// thread-safe. Memoization spans levels, so a context must live for a
// whole Algorithm 1 run to realize the cross-level sharing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "causaliot/stats/ci_context.hpp"
#include "causaliot/stats/cmh.hpp"
#include "causaliot/stats/gsquare.hpp"

namespace causaliot::stats {

/// Index of a packed column in the universe a BatchCiContext is bound to.
using ColumnId = std::uint32_t;

class BatchCiContext {
 public:
  /// A universe must hold fewer columns than this: the memo key stores
  /// each id + 1 in 16 bits, and 0 marks an unused key slot.
  static constexpr std::size_t kMaxUniverse = 0xFFFF;

  /// Binds to a shared universe of equally-sized packed columns and the
  /// outcome column y (the miner's present-time child). The universe must
  /// outlive the context and hold fewer than kMaxUniverse columns.
  BatchCiContext(std::span<const PackedColumn> universe, ColumnId y);

  std::size_t sample_count() const { return n_; }
  ColumnId y() const { return y_; }

  /// Word-passes executed so far (one full sweep over the packed words of
  /// one intersection, or one multi-key chunk). Monotone; feeds the
  /// mining_ci_batch_passes_total counter.
  std::size_t pass_count() const { return passes_; }

  /// Multi-key marginal sweep: counts the level-0 (empty conditioning
  /// set) tables for every listed parent that is not cached yet,
  /// kMarginalBatch parents per pass over the words. Purely a batching
  /// accelerator — count_strata computes the same values on demand.
  void prepare_marginals(std::span<const ColumnId> xs);

  /// Stratum-major contingency counts for x ⟂ y | {universe[z]...}:
  /// counts[key * 4 + xv * 2 + yv] with key bit j = value of column z[j],
  /// exactly as CiTestContext::count_strata produces. The view is valid
  /// until the next call. |z| <= kPackedConditioningLimit; ids must be
  /// distinct and exclude x.
  std::span<const std::uint64_t> count_strata(ColumnId x,
                                              std::span<const ColumnId> z);

  /// Drops every memoized intersection count (bench/test hook for
  /// measuring cold batches).
  void reset_cache();

  /// Bytes the context holds: its own object, the memo tiers, the stored
  /// masks and the scratch buffers.
  std::size_t resident_bytes() const;

 private:
  // Memoized intersection of one column set S: p = P(S),
  // p_y = P(S ∪ {y}); mask holds the AND of S's columns once the set has
  // been extended (state 2) so supersets build from it in one pass. The
  // mask is stored in SIMD-contract storage (aligned + stride-padded, see
  // stats/simd_backend.hpp) because it feeds later kernel passes as an
  // input; its padding stays zero since it is the AND of zero-padded
  // columns.
  struct Entry {
    std::uint8_t state = 0;  // 0 absent, 1 counts ready, 2 counts + mask
    std::uint64_t p = 0;
    std::uint64_t p_y = 0;
    AlignedWords mask;
  };
  // A column set of up to kMaxSetSize ids: slot i (ascending id order)
  // holds id + 1 in bits 16 * (i % 4) of word i / 4; unused slots are 0.
  struct Key {
    std::uint64_t words[2] = {0, 0};

    ColumnId id(std::size_t slot) const {
      return static_cast<ColumnId>(
          ((words[slot / 4] >> shift(slot)) & 0xFFFF) - 1);
    }
    Key with(std::size_t slot, ColumnId id) const {
      Key key = *this;
      key.words[slot / 4] |= (std::uint64_t{id} + 1) << shift(slot);
      return key;
    }
    Key without(std::size_t slot) const {
      Key key = *this;
      key.words[slot / 4] &= ~(std::uint64_t{0xFFFF} << shift(slot));
      return key;
    }
    bool operator==(const Key&) const = default;
    static unsigned shift(std::size_t slot) {
      return static_cast<unsigned>(slot % 4 * 16);
    }
  };
  // One open-addressing slot; empty while entry is null.
  struct Slot {
    Key key;
    Entry* entry = nullptr;
  };
  // The keys of one lattice term T of a count_strata call and of
  // T ∪ {x}.
  struct TermKeys {
    Key t;
    Key u;
  };

  static constexpr std::size_t kMaxSetSize = kPackedConditioningLimit + 1;
  static constexpr std::size_t kMaxTerms = std::size_t{1}
                                           << kPackedConditioningLimit;
  static constexpr std::size_t kEntryChunk = 256;
  static constexpr std::size_t kMinSlots = 64;

  Entry& locate(const Key& key, std::size_t size);
  // The slot holding `key`, or the empty slot where it would go.
  std::size_t probe(const Key& key) const;
  Entry& locate_higher(const Key& key);
  const Entry& ensure_counts(const Key& key, std::size_t size);
  std::span<const std::uint64_t> ensure_mask(const Key& key,
                                             std::size_t size);
  void fill_single(ColumnId id, Entry& entry);
  void fill_from_mask(std::span<const std::uint64_t> prefix_mask,
                      const std::uint64_t* last_words, Entry& entry,
                      bool store_mask);

  std::span<const PackedColumn> universe_;
  ColumnId y_ = 0;
  std::size_t n_ = 0;
  std::size_t padded_words_ = 0;  // SIMD-contract sweep length
  std::uint64_t p_y_ = 0;
  std::size_t passes_ = 0;

  std::vector<Entry> singles_;  // by column id
  // |S| == 2, indexed [min][max]; rows allocated on first use.
  std::vector<std::unique_ptr<std::vector<Entry>>> pairs_;
  std::size_t pair_rows_ = 0;
  // |S| >= 3: power-of-two linear-probing table, grown at half load. The
  // entries live in fixed-size chunks so their addresses survive growth
  // (count_strata holds one entry while it fills another).
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::size_t higher_count_ = 0;
  std::size_t mask_bytes_ = 0;  // stored masks over every tier

  // Scratch: count_strata's term keys, by sorted positions in z.
  std::array<TermKeys, kMaxTerms> terms_;
  std::vector<std::uint64_t> table_;  // assembled stratum-major counts
  std::vector<ColumnId> pending_;     // scratch: prepare_marginals
};

/// Batched equivalent of the packed-kernel g_square_test: bit-identical
/// statistic, dof, p-value, and skip behaviour. y is the context's bound
/// column.
GSquareResult g_square_test(BatchCiContext& batch, ColumnId x,
                            std::span<const ColumnId> z,
                            const GSquareOptions& options = {});

/// Batched equivalent of the packed-kernel cmh_test.
CmhResult cmh_test(BatchCiContext& batch, ColumnId x,
                   std::span<const ColumnId> z);

}  // namespace causaliot::stats
