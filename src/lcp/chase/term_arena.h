#ifndef LCP_CHASE_TERM_ARENA_H_
#define LCP_CHASE_TERM_ARENA_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
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

/// Owns the labeled nulls and interned constants used by chase
/// configurations. One arena is shared by all configurations of a proof
/// search, so term ids are stable across the search tree.
///
/// An arena may layer over a read-only base arena that holds only constants
/// (say, those of TGDs compiled once and shared by many searches): the
/// base's constants keep their ids, InternConstant finds a value in the base
/// before interning it here, and ids of this arena's own constants follow
/// the base's. Nulls are always this arena's own.
class TermArena {
 public:
  TermArena() = default;
  /// Layers over `base`, which must outlive this arena, hold no nulls, not
  /// itself layer over another arena, and not change while this arena
  /// lives. Reads of `base` are const, so many arenas may layer over one
  /// base from different threads.
  explicit TermArena(const TermArena* base);
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
    const size_t k = static_cast<size_t>(-1 - id);
    return k < base_constants_ ? base_->constants_[k]
                               : constants_[k - base_constants_];
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

  /// The arena this one layers over (null if none) and its constant count.
  const TermArena* base_ = nullptr;
  size_t base_constants_ = 0;
  std::vector<NullInfo> nulls_;
  /// A deque keeps the references ConstantOf hands out valid as constants
  /// are interned.
  std::deque<Value> constants_;
  std::unordered_map<Value, ChaseTermId, ValueHash> constant_ids_;
};

}  // namespace lcp

#endif  // LCP_CHASE_TERM_ARENA_H_
