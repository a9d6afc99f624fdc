#include "lcp/runtime/source.h"

#include "lcp/base/check.h"

namespace lcp {

SimulatedSource::SimulatedSource(const Schema* schema,
                                 const Instance* instance)
    : schema_(schema), instance_(instance) {
  LCP_CHECK(schema != nullptr && instance != nullptr);
  indexes_.resize(schema->num_access_methods());
}

const TermPool* SimulatedSource::dictionary() {
  if (dictionary_ != nullptr) return dictionary_.get();
  dictionary_ = std::make_unique<TermPool>();
  for (RelationId r = 0; r < schema_->num_relations(); ++r) {
    for (const Tuple& tuple : instance_->relation(r).tuples()) {
      for (const Value& v : tuple) dictionary_->Intern(v);
    }
  }
  return dictionary_.get();
}

SimulatedSource::MethodIndex& SimulatedSource::Index(AccessMethodId method) {
  std::unique_ptr<MethodIndex>& slot = indexes_[method];
  if (slot != nullptr) return *slot;
  const TermPool& dict = *dictionary();
  const AccessMethod& mt = schema_->access_method(method);
  const std::vector<Tuple>& tuples = instance_->relation(mt.relation).tuples();
  slot = std::make_unique<MethodIndex>(mt.input_positions.size());
  MethodIndex& index = *slot;
  index.arity = static_cast<size_t>(schema_->relation(mt.relation).arity);
  index.cost = mt.cost;

  // Number the keys in instance order of first appearance, then lay the
  // rows out grouped by key (a counting sort, stable within a key).
  auto code_of = [&dict](const Value& v) {
    std::optional<TermCode> code = dict.Find(v);
    LCP_CHECK(code.has_value())
        << "instance changed after the source's dictionary was built";
    return *code;
  };
  std::vector<uint32_t> key_of(tuples.size());
  std::vector<TermCode> key(mt.input_positions.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    for (size_t s = 0; s < key.size(); ++s) {
      key[s] = code_of(tuples[t][mt.input_positions[s]]);
    }
    key_of[t] = index.keys.Insert(key.data());
  }
  index.num_answered = index.keys.size();
  index.row_start.assign(index.num_answered + 1, 0);
  for (uint32_t k : key_of) ++index.row_start[k + 1];
  for (size_t k = 0; k < index.num_answered; ++k) {
    index.row_start[k + 1] += index.row_start[k];
  }
  std::vector<uint32_t> next(index.row_start.begin(),
                             index.row_start.end() - 1);
  index.rows.resize(tuples.size() * index.arity);
  for (size_t t = 0; t < tuples.size(); ++t) {
    TermCode* row = index.rows.data() + next[key_of[t]]++ * index.arity;
    for (size_t p = 0; p < index.arity; ++p) row[p] = code_of(tuples[t][p]);
  }
  index.seen.assign(index.num_answered, 0);
  return index;
}

uint32_t SimulatedSource::Call(AccessMethodId method, MethodIndex& index,
                               const TermCode* key) {
  ++total_calls_;
  charged_cost_ += index.cost;
  const uint32_t id = index.keys.Insert(key);
  if (id >= index.seen.size()) index.seen.resize(id + 1, 0);
  if (!index.seen[id]) {
    // Theorem 8's pair set stores a Tuple only the first time a pair is seen.
    index.seen[id] = 1;
    Tuple inputs;
    inputs.reserve(index.keys.width());
    for (size_t s = 0; s < index.keys.width(); ++s) {
      inputs.push_back(dictionary_->Decode(key[s]));
    }
    distinct_pairs_.insert(AccessPair{method, std::move(inputs)});
  }
  return id;
}

void SimulatedSource::CallOutsideDictionary(AccessMethodId method,
                                            Tuple inputs) {
  ++total_calls_;
  charged_cost_ += schema_->access_method(method).cost;
  distinct_pairs_.insert(AccessPair{method, std::move(inputs)});
}

const std::vector<Tuple>& SimulatedSource::Access(AccessMethodId method,
                                                  const Tuple& inputs) {
  const AccessMethod& mt = schema_->access_method(method);
  LCP_CHECK_EQ(inputs.size(), mt.input_positions.size())
      << "access to " << mt.name << " with wrong number of inputs";
  MethodIndex& index = Index(method);
  key_scratch_.resize(inputs.size());
  for (size_t s = 0; s < inputs.size(); ++s) {
    std::optional<TermCode> code = dictionary_->Find(inputs[s]);
    if (!code.has_value()) {
      CallOutsideDictionary(method, inputs);
      return empty_result_;
    }
    key_scratch_[s] = *code;
  }
  const uint32_t id = Call(method, index, key_scratch_.data());
  if (id >= index.num_answered) return empty_result_;
  auto [it, inserted] = index.tuples.try_emplace(id);
  if (inserted) {
    const uint32_t begin = index.row_start[id];
    const uint32_t end = index.row_start[id + 1];
    it->second.reserve(end - begin);
    for (uint32_t r = begin; r < end; ++r) {
      const TermCode* row = index.rows.data() + r * index.arity;
      Tuple tuple;
      tuple.reserve(index.arity);
      for (size_t p = 0; p < index.arity; ++p) {
        tuple.push_back(dictionary_->Decode(row[p]));
      }
      it->second.push_back(std::move(tuple));
    }
  }
  return it->second;
}

void AccessSource::TryAccessBatch(AccessMethodId method,
                                  const std::vector<Tuple>& bindings,
                                  std::vector<BatchEntryOutcome>& outcomes) {
  outcomes.reserve(outcomes.size() + bindings.size());
  for (const Tuple& binding : bindings) {
    BatchEntryOutcome entry;
    Result<AccessOutcome> outcome = TryAccess(method, binding);
    if (outcome.ok()) {
      // Copy: the next loop iteration may invalidate the pointer.
      entry.owned_rows = *outcome->tuples;
      entry.truncated = outcome->truncated;
    } else {
      entry.status = outcome.status();
    }
    outcomes.push_back(std::move(entry));
  }
}

void AccessSource::TryAccessCodes(AccessMethodId method,
                                  const CodeBindings& bindings, TermPool& pool,
                                  CodeBatchOutcome& out) {
  out.entries.clear();
  out.adapted.clear();
  std::vector<Tuple> tuples;
  tuples.reserve(bindings.count);
  for (size_t i = 0; i < bindings.count; ++i) {
    const TermCode* codes = bindings.binding(i);
    Tuple binding;
    binding.reserve(bindings.width);
    for (size_t s = 0; s < bindings.width; ++s) {
      binding.push_back(pool.Decode(codes[s]));
    }
    tuples.push_back(std::move(binding));
  }
  TryAccessBatch(method, tuples, out.adapted);
  LCP_CHECK_EQ(out.adapted.size(), tuples.size())
      << "TryAccessBatch must answer every binding";
  out.entries.reserve(out.adapted.size());
  for (const BatchEntryOutcome& answer : out.adapted) {
    CodeEntryOutcome entry;
    entry.status = answer.status;
    if (answer.status.ok()) {
      entry.tuples = &answer.Rows();
      entry.truncated = answer.truncated;
    }
    out.entries.push_back(std::move(entry));
  }
}

void SimulatedSource::TryAccessBatch(AccessMethodId method,
                                     const std::vector<Tuple>& bindings,
                                     std::vector<BatchEntryOutcome>& outcomes) {
  outcomes.reserve(outcomes.size() + bindings.size());
  for (const Tuple& binding : bindings) {
    BatchEntryOutcome entry;
    entry.rows = &Access(method, binding);
    outcomes.push_back(std::move(entry));
  }
}

void SimulatedSource::TryAccessCodes(AccessMethodId method,
                                     const CodeBindings& bindings,
                                     TermPool& pool, CodeBatchOutcome& out) {
  if (dictionary_ == nullptr || pool.base() != dictionary_.get()) {
    AccessSource::TryAccessCodes(method, bindings, pool, out);
    return;
  }
  const AccessMethod& mt = schema_->access_method(method);
  LCP_CHECK_EQ(bindings.width, mt.input_positions.size())
      << "access to " << mt.name << " with wrong number of inputs";
  MethodIndex& index = Index(method);
  const size_t dict_size = dictionary_->size();
  out.entries.clear();
  out.adapted.clear();
  out.entries.reserve(bindings.count);
  for (size_t i = 0; i < bindings.count; ++i) {
    const TermCode* key = bindings.binding(i);
    CodeEntryOutcome entry;
    bool in_dictionary = true;
    for (size_t s = 0; s < bindings.width; ++s) {
      if (key[s] >= dict_size) in_dictionary = false;
    }
    if (!in_dictionary) {
      // A code the pool added on top of the dictionary.
      Tuple inputs;
      inputs.reserve(bindings.width);
      for (size_t s = 0; s < bindings.width; ++s) {
        inputs.push_back(pool.Decode(key[s]));
      }
      CallOutsideDictionary(method, std::move(inputs));
    } else if (const uint32_t id = Call(method, index, key);
               id < index.num_answered) {
      entry.rows = index.rows.data() + index.row_start[id] * index.arity;
      entry.num_rows = index.row_start[id + 1] - index.row_start[id];
    }
    out.entries.push_back(std::move(entry));
  }
}

void SimulatedSource::ResetAccounting() {
  total_calls_ = 0;
  charged_cost_ = 0;
  distinct_pairs_.clear();
  for (std::unique_ptr<MethodIndex>& index : indexes_) {
    if (index != nullptr) index->seen.assign(index->seen.size(), 0);
  }
}

}  // namespace lcp
