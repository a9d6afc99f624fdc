#ifndef LCP_CHASE_ENGINE_H_
#define LCP_CHASE_ENGINE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lcp/base/budget.h"
#include "lcp/base/result.h"
#include "lcp/chase/config.h"
#include "lcp/chase/matcher.h"
#include "lcp/chase/term_arena.h"
#include "lcp/logic/conjunctive_query.h"
#include "lcp/logic/tgd.h"
#include "lcp/schema/schema.h"

namespace lcp {

/// How ChaseEngine::Run enumerates triggers (see DESIGN.md, "Chase engine
/// internals").
enum class ChaseEvaluationMode {
  /// Re-enumerate every body homomorphism of every TGD each round. Kept as a
  /// differential-testing oracle for the semi-naïve path.
  kNaive,
  /// Semi-naïve (delta-driven): after the first round, only enumerate
  /// triggers whose body match uses at least one fact added in the previous
  /// round, by pinning each body atom in turn to the delta.
  kSemiNaive,
};

/// Controls chase termination. The restricted chase is used throughout: a
/// trigger fires only if its head has no witness in the configuration (§4,
/// "candidate match").
struct ChaseOptions {
  /// Hard cap on rule firings across the whole run.
  int max_firings = 1000000;
  /// Maximum generation depth for invented nulls; triggers that would exceed
  /// it are skipped. -1 means unlimited.
  int max_null_depth = -1;
  /// Enables the local blocking condition for guarded TGDs (§5): a trigger
  /// all of whose frontier terms are invented nulls is skipped if an
  /// isomorphic "guarded bag" (same TGD, same canonical locale of facts over
  /// the frontier terms) was fired before. Sound (never adds wrong facts);
  /// may lose completeness in corner cases — see DESIGN.md.
  bool use_guarded_blocking = false;
  /// If true, hitting max_firings is an error instead of a silent stop.
  bool fail_on_firing_cap = true;
  /// Trigger-enumeration strategy. Semi-naïve is the default; the naive mode
  /// stays available as a reference oracle.
  ChaseEvaluationMode evaluation_mode = ChaseEvaluationMode::kSemiNaive;
  /// Optional shared planning budget (deadline + cancel token), checked
  /// cooperatively: once per firing and once per TGD pass. When the budget
  /// exhausts mid-run, Run returns its status (kDeadlineExceeded, or the
  /// token's code) and the configuration keeps the facts derived so far —
  /// every derived fact is sound, the closure is merely incomplete. Not
  /// owned; null = unlimited.
  Budget* budget = nullptr;
};

struct ChaseStats {
  int firings = 0;
  int facts_added = 0;
  int rounds = 0;
  bool reached_fixpoint = false;
  int blocked_triggers = 0;
  int depth_capped_triggers = 0;
  /// Body homomorphisms enumerated (before the head-witness check).
  int triggers_enumerated = 0;
  /// Triggers dropped because the head already had a witness (at collection
  /// time or on the pre-firing re-check).
  int witness_skips = 0;
  /// Semi-naïve only: pinned (one-atom-in-delta) enumeration passes run.
  int delta_enumerations = 0;
  /// Positional-index buckets probed by the matcher on behalf of this run.
  long long index_probes = 0;
  /// Candidate facts scanned by the matcher's unification loop.
  long long candidates_scanned = 0;
};

/// A TGD compiled against a shared arena for fast re-firing.
struct CompiledTgd {
  const Tgd* source = nullptr;
  VariableTable vars;
  std::vector<PatternAtom> body;
  std::vector<PatternAtom> head;
  /// Variable indexes occurring in the body.
  std::vector<bool> in_body;
  /// Variable indexes occurring in the head but not the body.
  std::vector<int> existential_vars;
  /// Variable indexes shared between body and head.
  std::vector<int> frontier_vars;
};

CompiledTgd CompileTgd(const Tgd& tgd, TermArena& arena);

/// Forward-chaining proof engine (the chase, §4). The engine is stateless
/// across runs apart from the shared arena; blocking signatures are scoped
/// to a single Run call.
class ChaseEngine {
 public:
  ChaseEngine(const Schema* schema, TermArena* arena);

  /// Fires `tgds` on `config` (restricted chase, round-robin) until fixpoint
  /// or a cap triggers.
  Result<ChaseStats> Run(const std::vector<CompiledTgd>& tgds,
                         const ChaseOptions& options, ChaseConfig& config);

  /// Convenience: compiles and runs raw TGDs. It compiles on every call;
  /// callers that chase the same TGDs again compile them once (CompileTgd,
  /// possibly into a base arena; see TermArena) and run those.
  Result<ChaseStats> Run(const std::vector<Tgd>& tgds,
                         const ChaseOptions& options, ChaseConfig& config);

  const Schema& schema() const { return *schema_; }
  TermArena& arena() { return *arena_; }

 private:
  const Schema* schema_;
  TermArena* arena_;
};

/// The canonical database of a conjunctive query (§4): one labeled null per
/// variable, one fact per atom.
struct CanonicalDatabase {
  ChaseConfig config;
  std::unordered_map<std::string, ChaseTermId> var_to_term;
};

CanonicalDatabase BuildCanonicalDatabase(const ConjunctiveQuery& query,
                                         TermArena& arena);

}  // namespace lcp

#endif  // LCP_CHASE_ENGINE_H_
