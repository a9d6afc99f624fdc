#ifndef LCP_CHASE_TERM_ARENA_H_
#define LCP_CHASE_TERM_ARENA_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lcp/base/check.h"
#include "lcp/logic/value.h"

namespace lcp {

/// A term occurring in a chase configuration: either a labeled null ("chase
/// constant" in the paper) or an interned schema/data constant.
/// Encoding: ids >= 0 are labeled nulls, ids < 0 are constants (-1 - k
/// indexes the k-th interned constant).
using ChaseTermId = int32_t;

/// Sentinel for "not yet bound" in homomorphism search. Never a valid term.
inline constexpr ChaseTermId kUnboundTerm =
    std::numeric_limits<ChaseTermId>::min();

namespace internal {

/// Append-only store with wait-free reads concurrent with appends. Elements
/// live in chunks that never move, so a published element's address is
/// stable forever; readers bounds-check against an atomic size published
/// with release order after the element (and its chunk pointer) are
/// written. Appends themselves must be serialized externally (TermArena
/// holds one mutation mutex for the whole arena).
///
/// Chunk c holds kFirstChunk << c elements, so a store that stays small
/// (most planning episodes mint a handful of nulls) allocates and
/// initializes only a small first chunk, while kMaxChunks chunks still
/// reach kFirstChunk * (2^kMaxChunks - 1) ~ 2^24 elements — far above
/// anything a single planning episode allocates (the proof search caps
/// nodes at ~1e5 and every chase run's firings at ChaseOptions::max_firings);
/// Append checks the ceiling.
template <typename T>
class ChunkedStore {
 public:
  static constexpr size_t kFirstChunk = 64;
  static constexpr size_t kMaxChunks = 18;

  ChunkedStore() = default;
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;
  ~ChunkedStore() {
    for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Caller must hold the owning arena's mutation mutex.
  size_t Append(T value) {
    size_t index = size_.load(std::memory_order_relaxed);
    const auto [chunk, offset] = Locate(index);
    LCP_CHECK(chunk < kMaxChunks) << "ChunkedStore overflow";
    T* block = chunks_[chunk].load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new T[kFirstChunk << chunk]();
      chunks_[chunk].store(block, std::memory_order_relaxed);
    }
    block[offset] = std::move(value);
    // Publishes the element, and transitively the chunk pointer, to any
    // reader that observes the new size with acquire order.
    size_.store(index + 1, std::memory_order_release);
    return index;
  }

  /// Valid for index < size() as observed by this thread.
  const T& operator[](size_t index) const {
    const auto [chunk, offset] = Locate(index);
    return chunks_[chunk].load(std::memory_order_relaxed)[offset];
  }

 private:
  /// (chunk, offset) of `index`: chunk c starts at kFirstChunk * (2^c - 1).
  static std::pair<size_t, size_t> Locate(size_t index) {
    const size_t chunk =
        static_cast<size_t>(std::bit_width(index / kFirstChunk + 1)) - 1;
    return {chunk, index - kFirstChunk * ((size_t{1} << chunk) - 1)};
  }

  std::atomic<size_t> size_{0};
  std::array<std::atomic<T*>, kMaxChunks> chunks_{};
};

}  // namespace internal

/// Owns the labeled nulls and interned constants used by chase
/// configurations. One arena is shared by all configurations of a proof
/// search, so term ids are stable across the search tree.
///
/// Thread model: reads of already-published terms (ConstantOf, DepthOf,
/// DisplayName, num_nulls) are wait-free and safe concurrently with other
/// threads creating new terms; NewNull and InternConstant serialize on an
/// internal mutex. This is what lets the parallel proof search share one
/// arena across its workers — every worker can mint nulls inside its chase
/// closures while others read term names for plan construction. A term id
/// obtained from a configuration is always safe to resolve: it was
/// published (with release order) before the configuration holding it was
/// handed over.
class TermArena {
 public:
  TermArena() = default;
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  static bool IsNull(ChaseTermId id) { return id >= 0; }
  static bool IsConstant(ChaseTermId id) {
    return id < 0 && id != kUnboundTerm;
  }

  /// Interns a constant value (idempotent).
  ChaseTermId InternConstant(const Value& value);

  /// Creates a fresh labeled null. Its display name is `base_name` with the
  /// null id appended (globally unique; display names double as plan table
  /// attributes). `depth` is its chase-generation depth (0 for
  /// canonical-database nulls).
  ChaseTermId NewNull(const std::string& base_name, int depth);

  const Value& ConstantOf(ChaseTermId id) const {
    LCP_CHECK(IsConstant(id));
    return constants_[static_cast<size_t>(-1 - id)];
  }

  int DepthOf(ChaseTermId id) const {
    if (IsConstant(id)) return 0;
    return nulls_[static_cast<size_t>(id)].depth;
  }

  /// Printable name: nulls render as their display name, constants as their
  /// value.
  std::string DisplayName(ChaseTermId id) const;

  size_t num_nulls() const { return nulls_.size(); }

 private:
  struct NullInfo {
    std::string name;
    int depth = 0;
  };

  std::mutex mutate_mutex_;
  internal::ChunkedStore<NullInfo> nulls_;
  internal::ChunkedStore<Value> constants_;
  std::unordered_map<Value, ChaseTermId, ValueHash> constant_ids_;
};

}  // namespace lcp

#endif  // LCP_CHASE_TERM_ARENA_H_
