#include "lcp/chase/term_arena.h"

namespace lcp {

TermArena::TermArena(const TermArena* base)
    : base_(base), base_constants_(base->constants_.size()) {
  LCP_CHECK(base->base_ == nullptr && base->num_nulls() == 0)
      << "a base arena holds constants only";
}

ChaseTermId TermArena::InternConstant(const Value& value) {
  if (base_ != nullptr) {
    auto it = base_->constant_ids_.find(value);
    if (it != base_->constant_ids_.end()) return it->second;
  }
  auto it = constant_ids_.find(value);
  if (it != constant_ids_.end()) return it->second;
  ChaseTermId id =
      -1 - static_cast<ChaseTermId>(base_constants_ + constants_.size());
  constants_.push_back(value);
  constant_ids_.emplace(value, id);
  return id;
}

ChaseTermId TermArena::NewNull(const std::string& base_name, int depth) {
  ChaseTermId id = static_cast<ChaseTermId>(nulls_.size());
  nulls_.push_back(NullInfo{base_name + "_" + std::to_string(id), depth});
  return id;
}

std::string TermArena::DisplayName(ChaseTermId id) const {
  if (IsConstant(id)) return ConstantOf(id).ToString();
  LCP_CHECK(IsNull(id) && static_cast<size_t>(id) < nulls_.size());
  return nulls_[static_cast<size_t>(id)].name;
}

}  // namespace lcp
