#ifndef LCP_RUNTIME_SOURCE_H_
#define LCP_RUNTIME_SOURCE_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lcp/base/result.h"
#include "lcp/data/instance.h"
#include "lcp/logic/ids.h"
#include "lcp/ra/batch.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// One concrete source invocation: a method plus the values bound to its
/// input positions (in input-position order). Theorem 8 compares plans by
/// the *set* of such pairs they trigger.
struct AccessPair {
  AccessMethodId method = kInvalidAccessMethod;
  Tuple inputs;

  friend bool operator==(const AccessPair& a, const AccessPair& b) {
    return a.method == b.method && a.inputs == b.inputs;
  }
};

struct AccessPairHash {
  size_t operator()(const AccessPair& p) const {
    // Proper hash-combine: a plain XOR with `method * constant` collapses
    // buckets whenever many pairs share a method (the common case — one
    // method probed with many bindings), because the method contribution is
    // then a fixed XOR mask that permutes buckets instead of spreading them.
    size_t h = static_cast<size_t>(p.method) + 0x9e3779b97f4a7c15ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    size_t t = TupleHash()(p.inputs);
    return h ^ (t + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
};

using AccessPairSet = std::unordered_set<AccessPair, AccessPairHash>;

/// Result of one successful (possibly degraded) source access.
struct AccessOutcome {
  /// The retrieved rows. Points into source-owned storage; valid until the
  /// next access on the same source object.
  const std::vector<Tuple>* tuples = nullptr;
  /// True when the source returned only a prefix of the full answer (the
  /// partial-result fault mode). Callers that see a truncated outcome must
  /// mark their result incomplete.
  bool truncated = false;
};

/// Per-binding outcome of one batched access (TryAccessBatch). Unlike
/// AccessOutcome, row storage referenced from a batch entry must stay valid
/// until the *next batch* starts, surviving interleaved single TryAccess
/// calls (the executor retries failed bindings while later entries are
/// still pending). Sources whose storage cannot promise that copy into
/// `owned_rows` instead (the default implementation always does).
struct BatchEntryOutcome {
  /// Ok, or the per-binding failure (kUnavailable = retryable).
  Status status;
  /// The retrieved rows when `status` is OK: either a pointer into
  /// batch-stable source storage, or null with the rows in `owned_rows`.
  const std::vector<Tuple>* rows = nullptr;
  std::vector<Tuple> owned_rows;
  bool truncated = false;

  const std::vector<Tuple>& Rows() const {
    return rows != nullptr ? *rows : owned_rows;
  }
};

/// A batch of access bindings as codes of one TermPool: `count` bindings of
/// `width` codes each, row-major, in input-position order. An input-free
/// method has width 0 and one binding (the paper's ∅ convention).
struct CodeBindings {
  size_t width = 0;
  size_t count = 0;
  std::vector<TermCode> codes;

  const TermCode* binding(size_t i) const { return codes.data() + i * width; }
};

/// Per-binding outcome of one code-native batched access (TryAccessCodes).
struct CodeEntryOutcome {
  /// Ok, or the per-binding failure (kUnavailable = retryable).
  Status status;
  /// When `status` is OK, the answer: `num_rows` rows of the relation's
  /// arity, row-major, as codes of the caller's pool — or, from the Tuple
  /// adapter, `tuples`, which the caller interns as it keeps rows.
  const TermCode* rows = nullptr;
  size_t num_rows = 0;
  const std::vector<Tuple>* tuples = nullptr;
  bool truncated = false;
};

/// The answers of one TryAccessCodes call. Entries point either into
/// storage the source keeps for its lifetime or into `adapted`, so they
/// stay valid while this object lives and is not refilled — across
/// interleaved single TryAccess calls (the executor's retries) included.
struct CodeBatchOutcome {
  std::vector<CodeEntryOutcome> entries;
  /// The adapter's TryAccessBatch answers.
  std::vector<BatchEntryOutcome> adapted;
};

/// A restricted-interface data source that can fail. This is the failure
/// vocabulary every backend shares (see DESIGN.md, "Failure semantics and
/// budgets"): an access either yields an AccessOutcome or a Status —
/// kUnavailable for transient faults and outages (retryable), anything else
/// for permanent errors (not retryable).
///
/// The answer contract (DESIGN.md §9), which execution and the optimizer
/// rely on:
///   - every tuple returned for a binding carries that binding at the
///     method's input positions, so distinct bindings get disjoint answers
///     (the optimizer drops the join of an access's answers back onto its
///     binding table on this ground);
///   - the rows of one code-native entry (a TryAccessCodes entry with
///     `rows`, not `tuples`) are distinct, so the engine stores such
///     answers without a dedup pass. Tuple answers may repeat a tuple;
///     the engine dedups them.
/// A truncated or degraded answer may drop tuples but not break either
/// rule.
class AccessSource {
 public:
  virtual ~AccessSource() = default;

  /// Performs one access of `method` with `inputs` bound to its input
  /// positions (in input-position order).
  virtual Result<AccessOutcome> TryAccess(AccessMethodId method,
                                          const Tuple& inputs) = 0;

  /// Performs one access per binding in `bindings` (one restricted-
  /// interface call per *batch* — the realistic web-form model: input sets
  /// in, answer sets out). Appends one BatchEntryOutcome per binding, in
  /// binding order. Per-binding failures are reported in the entry status,
  /// never as an exceptional whole-batch failure, so fault injection and
  /// retry accounting stay per binding.
  ///
  /// The default implementation loops over TryAccess and copies each
  /// answer, so every existing source (fault wrappers included) works
  /// unchanged; sources with batch-stable storage override it to skip the
  /// copies.
  virtual void TryAccessBatch(AccessMethodId method,
                              const std::vector<Tuple>& bindings,
                              std::vector<BatchEntryOutcome>& outcomes);

  /// TryAccessBatch in term codes of `pool`: one access per binding of
  /// `bindings`, and `out` refilled with one entry per binding in binding
  /// order, answer rows encoded in `pool`. Same per-binding contract as
  /// TryAccessBatch.
  ///
  /// The default is the adapter: it decodes the bindings, calls
  /// TryAccessBatch, and hands back the Tuple answers, which the caller
  /// interns as it keeps rows — today's Tuple path, so a source that speaks
  /// only Tuples serves the vectorized engine exactly as before. A source
  /// overrides it to answer in codes from its own dictionary when `pool` is
  /// layered over dictionary().
  virtual void TryAccessCodes(AccessMethodId method,
                              const CodeBindings& bindings, TermPool& pool,
                              CodeBatchOutcome& out);

  /// The dictionary the source answers TryAccessCodes in, or null (the
  /// default) when it has none. It must never grow once returned: the
  /// executor layers each execution's pool over it.
  virtual const TermPool* dictionary() { return nullptr; }

  virtual const Schema& schema() const = 0;
};

/// Simulates a collection of restricted-interface data sources (web forms /
/// services) over an in-memory instance: tuples of a relation can be
/// retrieved *only* through an access method with all its input positions
/// bound. Every invocation is metered.
///
/// This is the substitution for the paper's remote sources (see DESIGN.md):
/// it preserves exactly the behaviour the paper's cost model observes —
/// which (method, input) pairs are invoked and how often.
///
/// Storage (DESIGN.md §9): on first use the source encodes its whole
/// instance into one dictionary, which never changes afterwards, and builds
/// per access method an index from input codes to the matching rows, kept
/// as codes in instance order. Both entry points answer from that index;
/// the Tuple API decodes a key's answer the first time it is asked for. The
/// instance must not change once the source has been used.
class SimulatedSource : public AccessSource {
 public:
  SimulatedSource(const Schema* schema, const Instance* instance);

  /// Performs one access: all tuples of the method's relation whose input
  /// positions equal `inputs` (given in input-position order). Meters the
  /// call. The reference stays valid for the lifetime of the source.
  const std::vector<Tuple>& Access(AccessMethodId method, const Tuple& inputs);

  /// AccessSource: an in-memory source never fails, so this is Access()
  /// wrapped in an always-complete outcome.
  Result<AccessOutcome> TryAccess(AccessMethodId method,
                                  const Tuple& inputs) override {
    return AccessOutcome{&Access(method, inputs), false};
  }

  /// Batched access without row copies: answers point straight into the
  /// source's decoded answers, which are stable for its lifetime.
  void TryAccessBatch(AccessMethodId method, const std::vector<Tuple>& bindings,
                      std::vector<BatchEntryOutcome>& outcomes) override;

  /// Answers straight from the code index when `pool` is layered over
  /// dictionary(): no Value is hashed, decoded or copied per binding. A
  /// binding code outside the dictionary names a value the instance does
  /// not hold, so it matches nothing. Any other pool takes the adapter.
  void TryAccessCodes(AccessMethodId method, const CodeBindings& bindings,
                      TermPool& pool, CodeBatchOutcome& out) override;

  /// Every value of the instance, coded on first use.
  const TermPool* dictionary() override;

  const Schema& schema() const override { return *schema_; }
  const Instance& instance() const { return *instance_; }

  // --- accounting ---------------------------------------------------------
  size_t total_calls() const { return total_calls_; }
  const AccessPairSet& distinct_pairs() const { return distinct_pairs_; }
  /// Sum over calls of the invoked method's cost (a per-tuple-call metric;
  /// the static simple cost function charges per command instead).
  double charged_cost() const { return charged_cost_; }
  void ResetAccounting();

 private:
  struct MethodIndex {
    explicit MethodIndex(size_t width) : keys(width) {}
    /// Input codes of every key seen: first the keys with answers, in
    /// instance order of first appearance, then keys accessed without one.
    CodeKeySet keys;
    /// Key k < num_answered has answer rows [row_start[k], row_start[k+1]).
    std::vector<uint32_t> row_start;
    size_t num_answered = 0;
    /// Answer rows grouped by key, instance order within a key; `arity`
    /// codes per row.
    std::vector<TermCode> rows;
    size_t arity = 0;
    /// The method's cost, charged per call.
    double cost = 0;
    /// Per key: its (method, key) pair is already in distinct_pairs_.
    std::vector<char> seen;
    /// Tuple-API answers, decoded on first request; node-based, so the
    /// references Access hands out stay valid.
    std::unordered_map<uint32_t, std::vector<Tuple>> tuples;
  };

  MethodIndex& Index(AccessMethodId method);
  /// Meters one call of `method` on dictionary codes `key` and returns the
  /// key's id in `index`.
  uint32_t Call(AccessMethodId method, MethodIndex& index,
                const TermCode* key);
  /// Meters one call of `method` whose inputs include a value the instance
  /// does not hold: it matches nothing.
  void CallOutsideDictionary(AccessMethodId method, Tuple inputs);

  const Schema* schema_;
  const Instance* instance_;
  /// Built once, by dictionary(); never changes afterwards.
  std::unique_ptr<TermPool> dictionary_;
  std::vector<std::unique_ptr<MethodIndex>> indexes_;

  size_t total_calls_ = 0;
  double charged_cost_ = 0;
  AccessPairSet distinct_pairs_;
  std::vector<Tuple> empty_result_;
  std::vector<TermCode> key_scratch_;
};

}  // namespace lcp

#endif  // LCP_RUNTIME_SOURCE_H_
