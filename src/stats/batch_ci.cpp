#include "causaliot/stats/batch_ci.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "causaliot/util/check.hpp"
#include "ci_from_counts.hpp"

namespace causaliot::stats {

// All word passes below go through the capability-dispatched SIMD facade
// (stats/simd_backend.hpp). Parents per prepare_marginals pass therefore
// match the kernel contract's kMarginalPassMaxColumns: enough accumulator
// pairs to hide the popcount latency chain, few enough to stay in
// registers on every backend.

BatchCiContext::BatchCiContext(std::span<const PackedColumn> universe,
                               ColumnId y)
    : universe_(universe), y_(y) {
  static_assert(kMaxSetSize <= 8, "a memo key holds at most eight ids");
  CAUSALIOT_CHECK_MSG(!universe.empty(), "empty column universe");
  CAUSALIOT_CHECK_MSG(universe.size() < kMaxUniverse,
                      "column universe too large for the memo key");
  CAUSALIOT_CHECK_MSG(y < universe.size(), "y column out of range");
  n_ = universe[y].size();
  padded_words_ = universe_[y].padded_words().size();
  for (const PackedColumn& column : universe_) {
    CAUSALIOT_CHECK_MSG(column.size() == n_, "column length mismatch");
  }
  singles_.resize(universe_.size());
  pairs_.resize(universe_.size());
  slots_.resize(kMinSlots);
  const std::uint64_t* y_words = universe_[y_].padded_words().data();
  p_y_ = simd::kernels().and_popcount(y_words, y_words, padded_words_);
  passes_ = 1;
}

void BatchCiContext::reset_cache() {
  std::fill(singles_.begin(), singles_.end(), Entry{});
  std::fill(pairs_.begin(), pairs_.end(), nullptr);
  pair_rows_ = 0;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  chunks_.clear();
  higher_count_ = 0;
  mask_bytes_ = 0;
}

std::size_t BatchCiContext::resident_bytes() const {
  return sizeof(*this) + singles_.capacity() * sizeof(Entry) +
         pairs_.capacity() * sizeof(pairs_[0]) +
         pair_rows_ * (sizeof(std::vector<Entry>) +
                       universe_.size() * sizeof(Entry)) +
         slots_.capacity() * sizeof(Slot) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         chunks_.size() * kEntryChunk * sizeof(Entry) + mask_bytes_ +
         table_.capacity() * sizeof(std::uint64_t) +
         pending_.capacity() * sizeof(ColumnId);
}

BatchCiContext::Entry& BatchCiContext::locate(const Key& key,
                                              std::size_t size) {
  if (size == 1) return singles_[key.id(0)];
  if (size == 2) {
    auto& row = pairs_[key.id(0)];
    if (!row) {
      row = std::make_unique<std::vector<Entry>>(universe_.size());
      ++pair_rows_;
    }
    return (*row)[key.id(1)];
  }
  return locate_higher(key);
}

std::size_t BatchCiContext::probe(const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  std::uint64_t h =
      (key.words[0] ^ (key.words[1] * 0x9E3779B97F4A7C15ULL)) *
      0xBF58476D1CE4E5B9ULL;
  std::size_t i = static_cast<std::size_t>(h ^ (h >> 31)) & mask;
  while (slots_[i].entry != nullptr && !(slots_[i].key == key)) {
    i = (i + 1) & mask;
  }
  return i;
}

BatchCiContext::Entry& BatchCiContext::locate_higher(const Key& key) {
  std::size_t i = probe(key);
  if (slots_[i].entry != nullptr) return *slots_[i].entry;
  if ((higher_count_ + 1) * 2 > slots_.size()) {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.entry != nullptr) slots_[probe(slot.key)] = slot;
    }
    i = probe(key);
  }
  if (higher_count_ == chunks_.size() * kEntryChunk) {
    chunks_.push_back(std::make_unique<Entry[]>(kEntryChunk));
  }
  Entry* entry =
      &chunks_[higher_count_ / kEntryChunk][higher_count_ % kEntryChunk];
  ++higher_count_;
  slots_[i] = Slot{key, entry};
  return *entry;
}

void BatchCiContext::fill_single(ColumnId id, Entry& entry) {
  const std::uint64_t* words = universe_[id].padded_words().data();
  const std::uint64_t* y_words = universe_[y_].padded_words().data();
  const std::uint64_t* cols[1] = {words};
  simd::kernels().marginal_pass(cols, 1, y_words, padded_words_, &entry.p,
                                &entry.p_y);
  entry.state = 1;
  ++passes_;
}

void BatchCiContext::fill_from_mask(std::span<const std::uint64_t> prefix_mask,
                                    const std::uint64_t* last_words,
                                    Entry& entry, bool store_mask) {
  const std::uint64_t* y_words = universe_[y_].padded_words().data();
  if (store_mask && entry.mask.size() != padded_words_) {
    entry.mask = AlignedWords(padded_words_);
    mask_bytes_ += entry.mask.size() * sizeof(std::uint64_t);
  }
  simd::kernels().masked_pass(prefix_mask.data(), last_words, y_words,
                              store_mask ? entry.mask.data() : nullptr,
                              padded_words_, &entry.p, &entry.p_y);
  entry.state = store_mask ? 2 : 1;
  ++passes_;
}

// Both recursions peel the largest id: a set's prefix is its key with the
// last slot cleared. Entries never move, so `entry` stays valid while the
// prefix recursion inserts.
const BatchCiContext::Entry& BatchCiContext::ensure_counts(const Key& key,
                                                           std::size_t size) {
  Entry& entry = locate(key, size);
  if (entry.state != 0) return entry;
  const ColumnId last = key.id(size - 1);
  if (size == 1) {
    fill_single(last, entry);
  } else {
    fill_from_mask(ensure_mask(key.without(size - 1), size - 1),
                   universe_[last].padded_words().data(), entry,
                   /*store_mask=*/false);
  }
  return entry;
}

std::span<const std::uint64_t> BatchCiContext::ensure_mask(const Key& key,
                                                           std::size_t size) {
  const ColumnId last = key.id(size - 1);
  if (size == 1) return universe_[last].padded_words();
  Entry& entry = locate(key, size);
  if (entry.state != 2) {
    fill_from_mask(ensure_mask(key.without(size - 1), size - 1),
                   universe_[last].padded_words().data(), entry,
                   /*store_mask=*/true);
  }
  return {entry.mask.data(), entry.mask.size()};
}

void BatchCiContext::prepare_marginals(std::span<const ColumnId> xs) {
  pending_.clear();
  for (const ColumnId x : xs) {
    CAUSALIOT_CHECK_MSG(x < universe_.size(), "column id out of range");
    if (singles_[x].state == 0) pending_.push_back(x);
  }
  const std::uint64_t* y_words = universe_[y_].padded_words().data();
  constexpr std::size_t kBatch = simd::kMarginalPassMaxColumns;
  for (std::size_t base = 0; base < pending_.size(); base += kBatch) {
    const std::size_t k = std::min(kBatch, pending_.size() - base);
    const std::uint64_t* cols[kBatch] = {};
    std::uint64_t p[kBatch] = {};
    std::uint64_t p_y[kBatch] = {};
    for (std::size_t i = 0; i < k; ++i) {
      cols[i] = universe_[pending_[base + i]].padded_words().data();
    }
    simd::kernels().marginal_pass(cols, k, y_words, padded_words_, p, p_y);
    for (std::size_t i = 0; i < k; ++i) {
      Entry& entry = singles_[pending_[base + i]];
      entry.p = p[i];
      entry.p_y = p_y[i];
      entry.state = 1;
    }
    ++passes_;
  }
}

std::span<const std::uint64_t> BatchCiContext::count_strata(
    ColumnId x, std::span<const ColumnId> z) {
  const std::size_t l = z.size();
  CAUSALIOT_CHECK_MSG(l <= kPackedConditioningLimit,
                      "conditioning set too large for the batched kernel");
  CAUSALIOT_CHECK_MSG(x < universe_.size(), "column id out of range");
  for (const ColumnId id : z) {
    CAUSALIOT_CHECK_MSG(id < universe_.size(), "column id out of range");
    CAUSALIOT_CHECK_MSG(id != x, "conditioning set contains x");
  }

  // Sort z once; rank[j] is the sorted position of z[j]. Stratum keys keep
  // following the given order (key bit j = z[j]).
  std::array<ColumnId, kPackedConditioningLimit> sorted{};
  std::array<std::uint8_t, kPackedConditioningLimit> order{};
  for (std::size_t j = 0; j < l; ++j) {
    std::size_t k = j;
    for (; k > 0 && sorted[k - 1] > z[j]; --k) {
      sorted[k] = sorted[k - 1];
      order[k] = order[k - 1];
    }
    sorted[k] = z[j];
    order[k] = static_cast<std::uint8_t>(j);
  }
  std::array<std::uint8_t, kPackedConditioningLimit> rank{};
  for (std::size_t k = 0; k < l; ++k) {
    CAUSALIOT_CHECK_MSG(k == 0 || sorted[k - 1] != sorted[k],
                        "duplicate conditioning column");
    rank[order[k]] = static_cast<std::uint8_t>(k);
  }

  const std::size_t stratum_count = std::size_t{1} << l;
  table_.resize(stratum_count * 4);

  // Superset pass: table_[t] gets the quad (P(T), P(T∪{y}), P(T∪{x}),
  // P(T∪{x,y})) of lattice term T = {z[j] : bit j of t}, expressed as 2x2
  // cells of (x, y) within the rows where all of T is 1. Terms are counted
  // in t order. The keys of term t sit in terms_[s], s being the mask of
  // its sorted positions; they extend those of s minus its highest
  // position, which came earlier. Unsigned wrap-around in the
  // subtractions is fine — every final cell is an exact non-negative
  // count.
  std::array<std::uint8_t, kMaxTerms> sorted_mask{};
  for (std::size_t t = 0; t < stratum_count; ++t) {
    std::uint64_t quad[4];
    if (t == 0) {
      terms_[0].u = Key{}.with(0, x);
      const Entry& ex = ensure_counts(terms_[0].u, 1);
      quad[0] = n_;
      quad[1] = p_y_;
      quad[2] = ex.p;
      quad[3] = ex.p_y;
    } else {
      const auto low = static_cast<std::size_t>(std::countr_zero(t));
      const std::size_t s = sorted_mask[t & (t - 1)] | std::size_t{1}
                                                           << rank[low];
      sorted_mask[t] = static_cast<std::uint8_t>(s);
      const auto high = static_cast<std::size_t>(std::bit_width(s)) - 1;
      const TermKeys& base = terms_[s ^ (std::size_t{1} << high)];
      const auto size = static_cast<std::size_t>(std::popcount(s));
      const ColumnId id = sorted[high];
      TermKeys& term = terms_[s];
      term.t = base.t.with(size - 1, id);
      term.u = id < x ? term.t.with(size, x) : base.u.with(size, id);
      const Entry& et = ensure_counts(term.t, size);
      const Entry& eu = ensure_counts(term.u, size + 1);
      quad[0] = et.p;
      quad[1] = et.p_y;
      quad[2] = eu.p;
      quad[3] = eu.p_y;
    }
    const std::uint64_t c01 = quad[1] - quad[3];
    table_[t * 4 + 0] = (quad[0] - quad[2]) - c01;
    table_[t * 4 + 1] = c01;
    table_[t * 4 + 2] = quad[2] - quad[3];
    table_[t * 4 + 3] = quad[3];
  }

  // Möbius inversion over the lattice turns superset quads into exact
  // per-stratum counts in place: after processing bit j, table_[t] counts
  // rows matching T on every processed coordinate instead of dominating
  // it. The cells of term t | (1 << j) sit `half` words past those of
  // term t, so each pass is runs of contiguous subtractions.
  std::uint64_t* cells = table_.data();
  for (std::size_t j = 0; j < l; ++j) {
    const std::size_t half = std::size_t{4} << j;
    for (std::size_t block = 0; block < stratum_count * 4; block += 2 * half) {
      for (std::size_t i = block; i < block + half; ++i) {
        cells[i] -= cells[i + half];
      }
    }
  }
  return table_;
}

GSquareResult g_square_test(BatchCiContext& batch, ColumnId x,
                            std::span<const ColumnId> z,
                            const GSquareOptions& options) {
  GSquareResult result;
  if (internal::g_square_preamble(batch.sample_count(), z.size(), options,
                                  result)) {
    return result;
  }
  const std::span<const std::uint64_t> counts = batch.count_strata(x, z);
  return internal::g_square_from_counts({counts, {}, true},
                                        batch.sample_count());
}

CmhResult cmh_test(BatchCiContext& batch, ColumnId x,
                   std::span<const ColumnId> z) {
  if (batch.sample_count() == 0) return {};
  const std::span<const std::uint64_t> counts = batch.count_strata(x, z);
  return internal::cmh_from_counts({counts, {}, true}, batch.sample_count());
}

}  // namespace causaliot::stats
