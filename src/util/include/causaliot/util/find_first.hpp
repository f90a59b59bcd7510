// In-order speculative search: the lowest index in [0, count) whose item
// hits, found with idle pool workers evaluating ahead of the caller.
//
// Some scans must return exactly what a serial scan returns. TemporalPC
// stops a parent's subset walk at its first independent subset, and the
// tests it counts, the removal it records and the graph it leaves all
// depend on which subset that was. parallel_find_first keeps the answer
// exact:
//
//   * The caller evaluates item 0 alone, so a search that ends there
//     evaluates nothing past it.
//   * The rest of the range is cut into contiguous chunks whose sizes
//     double from 1 up to kMaxSearchChunkItems, so the speculative window
//     grows geometrically with the work already done. The caller and the
//     pool's workers claim chunks in order from one shared cursor; a
//     worker that wakes late simply claims a later chunk, and no barrier
//     stands between chunks.
//   * The walk function walks one chunk in order and stops at its first
//     hit, or once SearchChunk::superseded() reports a hit below the chunk
//     (an atomic minimum over the hits found so far). A chunk is only
//     abandoned unwalked when a hit below it is known.
//   * Chunks are claimed in order, so every chunk that reaches below the
//     lowest hit is claimed and walked in full up to it: the lowest hit
//     is the serial answer. Items evaluated past it are speculative
//     waste; FirstHit::evaluated counts them too.
//
// Without a pool, or with a one-thread pool, the whole range is a single
// chunk walked by the caller: the serial scan itself, with no waste.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "causaliot/util/thread_pool.hpp"

namespace causaliot::util {

/// Largest chunk: big enough that a chunk's start-up (the walk function's
/// own set-up) is noise next to its items, small enough that the last
/// chunks of a search spread evenly over the workers.
inline constexpr std::uint64_t kMaxSearchChunkItems = 16;

/// Offset of chunk k of a search's speculative part from its start: the
/// chunk sizes are 1, 2, 4, ... kMaxSearchChunkItems, then constant.
constexpr std::uint64_t search_chunk_offset(std::uint64_t k) {
  std::uint64_t offset = 0;
  std::uint64_t size = 1;
  for (; k > 0 && size < kMaxSearchChunkItems; --k, size *= 2) {
    offset += size;
  }
  return offset + k * size;
}

/// One contiguous piece of the range, handed to the walk function.
class SearchChunk {
 public:
  SearchChunk(std::uint64_t begin, std::uint64_t end,
              const std::atomic<std::uint64_t>& lowest)
      : begin(begin), end(end), lowest_(&lowest) {}

  /// True once a hit below `begin` is known: nothing in this chunk can
  /// be the answer any more. Poll it before each item.
  bool superseded() const {
    return lowest_->load(std::memory_order_relaxed) < begin;
  }

  std::uint64_t begin;
  std::uint64_t end;

 private:
  const std::atomic<std::uint64_t>* lowest_;
};

/// What the walk function reports for its chunk. `hit` is the chunk's
/// first hit, or `end` when it found none (or stopped as superseded);
/// `payload` is whatever the caller needs from the hit.
template <typename Payload>
struct ChunkResult {
  std::uint64_t hit = 0;
  std::uint64_t evaluated = 0;
  Payload payload{};
};

template <typename Payload>
struct FirstHit {
  /// The lowest hit, or `count` when no item hits.
  std::uint64_t index = 0;
  /// Items evaluated, speculative ones past `index` included. Without a
  /// hit every item is evaluated exactly once, so this is `count`.
  std::uint64_t evaluated = 0;
  /// The deciding chunk's payload (value-initialized without a hit).
  Payload payload{};
};

/// Finds the lowest hitting index in [0, count). `walk(const SearchChunk&)`
/// returns a ChunkResult and is called concurrently from pool threads, so
/// it must be thread-safe; whether an item hits, and its payload, must not
/// depend on which chunk the item falls in.
template <typename Walk>
auto parallel_find_first(ThreadPool* pool, std::uint64_t count, Walk&& walk) {
  using Result = std::invoke_result_t<Walk&, const SearchChunk&>;
  using Payload = decltype(Result::payload);
  std::atomic<std::uint64_t> lowest{count};
  std::atomic<std::uint64_t> evaluated{0};
  std::mutex found_mutex;
  FirstHit<Payload> found{count, 0, {}};

  const auto run = [&](std::uint64_t begin, std::uint64_t end) {
    const Result result = walk(SearchChunk(begin, end, lowest));
    evaluated.fetch_add(result.evaluated, std::memory_order_relaxed);
    if (result.hit >= end) return;
    const std::lock_guard<std::mutex> lock(found_mutex);
    if (result.hit < found.index) {
      found.index = result.hit;
      found.payload = result.payload;
      lowest.store(result.hit, std::memory_order_relaxed);
    }
  };

  const bool serial = pool == nullptr || pool->thread_count() <= 1;
  run(0, serial ? count : std::min<std::uint64_t>(count, 1));
  if (!serial && lowest.load(std::memory_order_relaxed) == count &&
      count > 1) {
    // One walker per pool thread, the caller's slot included: the caller
    // may be a pool worker itself, and more walkers than threads would
    // only time-slice against each other.
    std::atomic<std::uint64_t> next_chunk{0};
    parallel_for(pool, 0, pool->thread_count(), [&](std::size_t) {
      while (true) {
        const std::uint64_t k =
            next_chunk.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t begin = 1 + search_chunk_offset(k);
        if (begin >= count || lowest.load(std::memory_order_relaxed) < begin) {
          return;
        }
        run(begin, std::min(count, 1 + search_chunk_offset(k + 1)));
      }
    });
  }
  found.evaluated = evaluated.load(std::memory_order_relaxed);
  return found;
}

}  // namespace causaliot::util
