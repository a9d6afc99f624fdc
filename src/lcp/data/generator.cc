#include "lcp/data/generator.h"

#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/data/query_eval.h"

namespace lcp {

namespace {

/// Monotonically growing supply of invented values, disjoint from the
/// generator's base domain.
class ValueInventor {
 public:
  explicit ValueInventor(int64_t start) : next_(start) {}
  Value Fresh() { return Value::Int(next_++); }

 private:
  int64_t next_;
};

/// Answers "does this frontier binding already have a head witness?" for
/// every constraint. A single-atom head keeps a hash set of its relation's
/// tuples that agree with the head's constants and repeated variables, keyed
/// by their values at the frontier variables' first positions: the binding
/// has a witness iff its key is in the set, so the check is one probe
/// instead of a scan of the head relation. Multi-atom heads fall back to
/// FindMatches. Facts added during repair must go through AddFact, which
/// keeps the sets current.
class HeadWitnesses {
 public:
  explicit HeadWitnesses(const Instance& instance)
      : heads_(instance.schema().constraints().size()) {
    const std::vector<Tgd>& tgds = instance.schema().constraints();
    for (size_t k = 0; k < tgds.size(); ++k) {
      if (tgds[k].head.size() != 1) continue;
      const Atom& head = tgds[k].head[0];
      SingleHead& index = heads_[k].emplace();
      index.relation = head.relation;
      index.frontier = tgds[k].FrontierVariables();
      std::unordered_map<std::string, size_t> first;
      for (size_t i = 0; i < head.terms.size(); ++i) {
        const Term& t = head.terms[i];
        if (t.is_constant()) {
          index.constants.emplace_back(i, t.constant());
          continue;
        }
        auto [it, inserted] = first.emplace(t.var(), i);
        if (!inserted) index.repeats.emplace_back(i, it->second);
      }
      for (const std::string& v : index.frontier) {
        index.key_positions.push_back(first.at(v));
      }
      for (const Tuple& tuple : instance.relation(head.relation).tuples()) {
        index.Add(tuple);
      }
    }
  }

  bool Satisfied(const Instance& instance, size_t tgd_index,
                 const Binding& frontier) const {
    if (const std::optional<SingleHead>& index = heads_[tgd_index]) {
      Tuple key;
      key.reserve(index->frontier.size());
      for (const std::string& v : index->frontier) {
        key.push_back(frontier.at(v));
      }
      return index->keys.count(key) > 0;
    }
    bool satisfied = false;
    FindMatches(instance.schema().constraints()[tgd_index].head, instance,
                frontier, [&](const Binding&) {
                  satisfied = true;
                  return false;
                });
    return satisfied;
  }

  bool AddFact(Instance& instance, RelationId relation, Tuple tuple) {
    for (std::optional<SingleHead>& index : heads_) {
      if (index && index->relation == relation) index->Add(tuple);
    }
    return instance.AddFact(relation, std::move(tuple));
  }

 private:
  struct SingleHead {
    RelationId relation = kInvalidRelation;
    std::vector<std::string> frontier;
    std::vector<size_t> key_positions;  ///< Parallel to `frontier`.
    std::vector<std::pair<size_t, Value>> constants;
    /// (position, earlier position of the same variable).
    std::vector<std::pair<size_t, size_t>> repeats;
    std::unordered_set<Tuple, TupleHash> keys;

    void Add(const Tuple& tuple) {
      for (const auto& [pos, value] : constants) {
        if (tuple[pos] != value) return;
      }
      for (const auto& [pos, earlier] : repeats) {
        if (tuple[pos] != tuple[earlier]) return;
      }
      Tuple key;
      key.reserve(key_positions.size());
      for (size_t pos : key_positions) key.push_back(tuple[pos]);
      keys.insert(std::move(key));
    }
  };

  std::vector<std::optional<SingleHead>> heads_;
};

/// One repair pass: fires every currently-violated trigger once. Returns the
/// number of facts added (0 means the instance satisfies all constraints).
int RepairPass(Instance& instance, HeadWitnesses& witnesses,
               ValueInventor& inventor, int budget) {
  int added = 0;
  const std::vector<Tgd>& tgds = instance.schema().constraints();
  for (size_t k = 0; k < tgds.size(); ++k) {
    const Tgd& tgd = tgds[k];
    // Collect violating frontier bindings first: mutating the instance while
    // FindMatches iterates would invalidate the scan.
    std::vector<Binding> violations;
    FindMatches(tgd.body, instance, Binding{}, [&](const Binding& binding) {
      Binding frontier;
      for (const std::string& v : tgd.FrontierVariables()) {
        frontier.emplace(v, binding.at(v));
      }
      if (!witnesses.Satisfied(instance, k, frontier)) {
        violations.push_back(std::move(frontier));
      }
      return true;
    });
    for (Binding& frontier : violations) {
      if (added >= budget) return added;
      // Re-check: an earlier firing in this pass may have satisfied it.
      if (witnesses.Satisfied(instance, k, frontier)) continue;
      for (const std::string& v : tgd.ExistentialVariables()) {
        frontier.emplace(v, inventor.Fresh());
      }
      for (const Atom& atom : tgd.head) {
        Tuple tuple;
        tuple.reserve(atom.terms.size());
        for (const Term& t : atom.terms) {
          tuple.push_back(t.is_constant() ? t.constant()
                                          : frontier.at(t.var()));
        }
        if (witnesses.AddFact(instance, atom.relation, std::move(tuple))) {
          ++added;
        }
      }
    }
  }
  return added;
}

}  // namespace

Status RepairInstance(Instance& instance, int max_new_facts) {
  ValueInventor inventor(1000000000);  // Disjoint from typical test domains.
  HeadWitnesses witnesses(instance);
  int total_added = 0;
  while (true) {
    int added = RepairPass(instance, witnesses, inventor,
                           max_new_facts - total_added);
    total_added += added;
    if (added == 0) return Status::Ok();
    if (total_added >= max_new_facts) {
      return ResourceExhaustedError(
          StrCat("instance repair exceeded ", max_new_facts,
                 " invented facts (non-terminating TGD set?)"));
    }
  }
}

Result<Instance> GenerateInstance(const Schema& schema,
                                  const GeneratorOptions& options) {
  Instance instance(&schema);
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<int64_t> pick(0, options.domain_size - 1);
  for (RelationId rel = 0; rel < schema.num_relations(); ++rel) {
    const int arity = schema.relation(rel).arity;
    for (int i = 0; i < options.facts_per_relation; ++i) {
      Tuple tuple;
      tuple.reserve(arity);
      for (int j = 0; j < arity; ++j) tuple.push_back(Value::Int(pick(rng)));
      instance.AddFact(rel, std::move(tuple));
    }
  }
  if (options.repair) {
    LCP_RETURN_IF_ERROR(RepairInstance(instance, options.max_repair_facts));
  }
  return instance;
}

}  // namespace lcp
