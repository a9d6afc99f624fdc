#include "lcp/ra/vector_eval.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "lcp/base/strings.h"

namespace lcp {

namespace {

/// Records one operator's output batch in the stats (no-op without stats).
void NoteBatch(ExecStats* stats, size_t rows_in, const ColumnBatch& out) {
  if (stats == nullptr) return;
  ++stats->batches;
  stats->rows_in += rows_in;
  stats->rows_out += out.num_rows();
  stats->max_batch_rows = std::max(stats->max_batch_rows, out.num_rows());
}

/// Builds `index` over the rows of `batch` keyed by `cols`, inserting in
/// row order.
void BuildRowIndex(const ColumnBatch& batch, const std::vector<int>& cols,
                   RowHashIndex& index) {
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    index.Insert(HashBatchRow(batch, cols, r), static_cast<uint32_t>(r));
  }
}

/// `dedup` false keeps the duplicate rows a narrowing projection makes.
Result<ColumnBatch> EvalProject(const ColumnBatch& input,
                                const std::vector<std::string>& attrs,
                                bool dedup, ExecStats* stats) {
  std::vector<int> indexes;
  indexes.reserve(attrs.size());
  for (const std::string& attr : attrs) {
    int idx = input.AttrIndex(attr);
    if (idx < 0) {
      return InvalidArgumentError(
          StrCat("project: attribute ", attr, " not found"));
    }
    indexes.push_back(idx);
  }
  ColumnBatch out = input.WithColumns(attrs, indexes);
  // A projection that keeps every distinct column of the input cannot
  // introduce duplicates; anything narrower needs a dedup pass.
  std::unordered_set<int> kept(indexes.begin(), indexes.end());
  if (dedup && kept.size() < input.num_attrs()) {
    size_t dropped = 0;
    out = out.Deduplicated(&dropped);
    if (stats != nullptr) stats->dedup_drops += dropped;
  }
  NoteBatch(stats, input.num_rows(), out);
  return out;
}

Result<ColumnBatch> EvalSelect(const ColumnBatch& input,
                               const std::vector<RaExpr::Condition>& conditions,
                               TermPool& pool, ExecStats* stats) {
  struct ResolvedCondition {
    bool attr_eq_attr;
    int lhs;
    int rhs;
    TermCode constant;
  };
  std::vector<ResolvedCondition> resolved;
  resolved.reserve(conditions.size());
  for (const RaExpr::Condition& c : conditions) {
    ResolvedCondition r;
    r.lhs = input.AttrIndex(c.lhs);
    if (r.lhs < 0) {
      return InvalidArgumentError(
          StrCat("select: attribute ", c.lhs, " not found"));
    }
    if (c.kind == RaExpr::Condition::Kind::kAttrEqAttr) {
      r.attr_eq_attr = true;
      r.rhs = input.AttrIndex(c.rhs_attr);
      if (r.rhs < 0) {
        return InvalidArgumentError(
            StrCat("select: attribute ", c.rhs_attr, " not found"));
      }
      r.constant = 0;
    } else {
      r.attr_eq_attr = false;
      r.rhs = -1;
      // Interning the test constant is how an unseen constant stays sound:
      // its fresh code matches no data code.
      r.constant = pool.Intern(c.rhs_const);
    }
    resolved.push_back(r);
  }
  const size_t n = input.num_rows();
  auto row_passes = [&](size_t i) {
    for (const ResolvedCondition& r : resolved) {
      const TermCode lhs = input.At(static_cast<size_t>(r.lhs), i);
      const TermCode rhs = r.attr_eq_attr
                               ? input.At(static_cast<size_t>(r.rhs), i)
                               : r.constant;
      if (lhs != rhs) return false;
    }
    return true;
  };
  std::vector<uint32_t> live;
  live.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (row_passes(i)) live.push_back(static_cast<uint32_t>(i));
  }
  ColumnBatch out = live.size() == n ? input : input.Filtered(std::move(live));
  NoteBatch(stats, n, out);
  return out;
}

/// Build/probe hash join on the shared attribute names; degenerates to a
/// cross product when none are shared (as natural join should). Builds on
/// the right, probes the left in live order, and emits matches in right
/// insertion order — the row evaluator's emission order exactly.
Result<ColumnBatch> EvalJoin(const ColumnBatch& left, const ColumnBatch& right,
                             ExecStats* stats) {
  std::vector<int> shared_left;   // key columns on the left
  std::vector<int> shared_right;  // key columns on the right
  std::vector<int> right_extra;   // right attrs not in left
  for (size_t j = 0; j < right.attrs().size(); ++j) {
    int li = left.AttrIndex(right.attrs()[j]);
    if (li >= 0) {
      shared_left.push_back(li);
      shared_right.push_back(static_cast<int>(j));
    } else {
      right_extra.push_back(static_cast<int>(j));
    }
  }

  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();

  // Build side: right rows bucketed by key hash (flat chained index;
  // candidates are verified code-by-code, so hash collisions cost time,
  // never rows).
  RowHashIndex index(rn);
  BuildRowIndex(right, shared_right, index);

  auto keys_match = [&](size_t l, size_t r) {
    for (size_t k = 0; k < shared_left.size(); ++k) {
      if (left.At(static_cast<size_t>(shared_left[k]), l) !=
          right.At(static_cast<size_t>(shared_right[k]), r)) {
        return false;
      }
    }
    return true;
  };

  // Probe: gather matching (left, right) live-row index pairs. Matches for
  // one probe key must come out in right insertion order; the multimap does
  // not guarantee that, so bucket candidates are collected and sorted (the
  // candidate list for one key is typically tiny).
  std::vector<uint32_t> l_idx;
  std::vector<uint32_t> r_idx;
  std::vector<uint32_t> candidates;
  for (size_t l = 0; l < ln; ++l) {
    const size_t h = HashBatchRow(left, shared_left, l);
    candidates.clear();
    index.ForEachCandidate(h, [&](uint32_t r) {
      if (keys_match(l, r)) candidates.push_back(r);
      return false;  // collect every match in the bucket
    });
    std::sort(candidates.begin(), candidates.end());
    for (uint32_t r : candidates) {
      l_idx.push_back(static_cast<uint32_t>(l));
      r_idx.push_back(r);
    }
  }
  if (stats != nullptr) stats->probe_hits += l_idx.size();

  // Materialize the output: left columns then right extras, gathered.
  std::vector<std::string> out_attrs = left.attrs();
  for (int j : right_extra) out_attrs.push_back(right.attrs()[j]);
  std::vector<std::vector<TermCode>> out_cols(out_attrs.size());
  const size_t out_n = l_idx.size();
  for (auto& col : out_cols) col.reserve(out_n);
  for (size_t c = 0; c < left.num_attrs(); ++c) {
    for (size_t i = 0; i < out_n; ++i) {
      out_cols[c].push_back(left.At(c, l_idx[i]));
    }
  }
  for (size_t e = 0; e < right_extra.size(); ++e) {
    const size_t c = static_cast<size_t>(right_extra[e]);
    for (size_t i = 0; i < out_n; ++i) {
      out_cols[left.num_attrs() + e].push_back(right.At(c, r_idx[i]));
    }
  }
  ColumnBatch out =
      ColumnBatch::FromDense(std::move(out_attrs), std::move(out_cols), out_n);
  // Joining two duplicate-free inputs cannot create duplicates: the output
  // row determines its (left row, right row) pair, so no dedup pass here.
  NoteBatch(stats, ln + rn, out);
  return out;
}

/// Returns the permutation mapping `from` attribute order to `to`, or an
/// error if the attribute sets differ (same contract as the row engine).
Result<std::vector<int>> AlignAttrs(const std::vector<std::string>& to,
                                    const ColumnBatch& from) {
  if (to.size() != from.attrs().size()) {
    return InvalidArgumentError("union/difference: attribute sets differ");
  }
  std::vector<int> perm;
  perm.reserve(to.size());
  for (const std::string& attr : to) {
    int idx = from.AttrIndex(attr);
    if (idx < 0) {
      return InvalidArgumentError(
          StrCat("union/difference: attribute ", attr, " missing"));
    }
    perm.push_back(idx);
  }
  return perm;
}

Result<ColumnBatch> EvalUnion(const ColumnBatch& left, const ColumnBatch& right,
                              ExecStats* stats) {
  LCP_ASSIGN_OR_RETURN(std::vector<int> perm, AlignAttrs(left.attrs(), right));
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  std::vector<std::vector<TermCode>> cols(left.num_attrs());
  for (size_t c = 0; c < left.num_attrs(); ++c) {
    cols[c].reserve(ln + rn);
    for (size_t i = 0; i < ln; ++i) cols[c].push_back(left.At(c, i));
    const size_t rc = static_cast<size_t>(perm[c]);
    for (size_t i = 0; i < rn; ++i) cols[c].push_back(right.At(rc, i));
  }
  size_t dropped = 0;
  ColumnBatch out =
      ColumnBatch::FromDense(left.attrs(), std::move(cols), ln + rn)
          .Deduplicated(&dropped);
  if (stats != nullptr) stats->dedup_drops += dropped;
  NoteBatch(stats, ln + rn, out);
  return out;
}

Result<ColumnBatch> EvalDifference(const ColumnBatch& left,
                                   const ColumnBatch& right,
                                   ExecStats* stats) {
  LCP_ASSIGN_OR_RETURN(std::vector<int> perm, AlignAttrs(left.attrs(), right));
  const size_t rn = right.num_rows();
  RowHashIndex negatives(rn);
  BuildRowIndex(right, perm, negatives);
  std::vector<int> left_cols(left.num_attrs());
  for (size_t c = 0; c < left.num_attrs(); ++c) {
    left_cols[c] = static_cast<int>(c);
  }
  auto in_right = [&](size_t l) {
    const size_t h = HashBatchRow(left, left_cols, l);
    bool found = false;
    negatives.ForEachCandidate(h, [&](uint32_t r) {
      bool equal = true;
      for (size_t c = 0; c < left.num_attrs(); ++c) {
        if (left.At(c, l) != right.At(static_cast<size_t>(perm[c]), r)) {
          equal = false;
          break;
        }
      }
      found = equal;
      return equal;
    });
    return found;
  };
  const size_t ln = left.num_rows();
  std::vector<uint32_t> live;
  live.reserve(ln);
  for (size_t l = 0; l < ln; ++l) {
    if (!in_right(l)) live.push_back(static_cast<uint32_t>(l));
  }
  ColumnBatch out = live.size() == ln ? left : left.Filtered(std::move(live));
  // A duplicate-free left stays duplicate-free under filtering; only the
  // nullary case needs collapsing to set semantics.
  if (left.num_attrs() == 0) out = out.Deduplicated();
  NoteBatch(stats, ln + rn, out);
  return out;
}

Result<ColumnBatch> EvalRename(
    const ColumnBatch& child,
    const std::vector<std::pair<std::string, std::string>>& renames,
    ExecStats* stats) {
  std::vector<std::string> attrs = child.attrs();
  for (const auto& [from, to] : renames) {
    int idx = child.AttrIndex(from);
    if (idx < 0) {
      return InvalidArgumentError(
          StrCat("rename: attribute ", from, " not found"));
    }
    attrs[idx] = to;
  }
  std::vector<int> identity(child.num_attrs());
  for (size_t c = 0; c < child.num_attrs(); ++c) {
    identity[c] = static_cast<int>(c);
  }
  ColumnBatch out = child.WithColumns(std::move(attrs), identity);
  NoteBatch(stats, child.num_rows(), out);
  return out;
}

}  // namespace

Result<ColumnBatch> EvaluateRaVectorized(const RaExpr& expr,
                                         const BatchEnv& env, TermPool& pool,
                                         ExecStats* stats) {
  auto eval_child = [&](size_t i) {
    return EvaluateRaVectorized(*expr.children()[i], env, pool, stats);
  };
  switch (expr.op()) {
    case RaExpr::Op::kTempScan: {
      auto it = env.find(expr.table());
      if (it == env.end()) {
        return NotFoundError(StrCat("no temporary table ", expr.table()));
      }
      return it->second;
    }
    case RaExpr::Op::kSingleton: {
      return ColumnBatch::FromDense({}, {}, 1);
    }
    case RaExpr::Op::kProject: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch child, eval_child(0));
      return EvalProject(child, expr.attrs(), /*dedup=*/true, stats);
    }
    case RaExpr::Op::kSelect: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch child, eval_child(0));
      return EvalSelect(child, expr.conditions(), pool, stats);
    }
    case RaExpr::Op::kJoin: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch left, eval_child(0));
      LCP_ASSIGN_OR_RETURN(ColumnBatch right, eval_child(1));
      return EvalJoin(left, right, stats);
    }
    case RaExpr::Op::kUnion: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch left, eval_child(0));
      LCP_ASSIGN_OR_RETURN(ColumnBatch right, eval_child(1));
      return EvalUnion(left, right, stats);
    }
    case RaExpr::Op::kDifference: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch left, eval_child(0));
      LCP_ASSIGN_OR_RETURN(ColumnBatch right, eval_child(1));
      return EvalDifference(left, right, stats);
    }
    case RaExpr::Op::kRename: {
      LCP_ASSIGN_OR_RETURN(ColumnBatch child, eval_child(0));
      return EvalRename(child, expr.renames(), stats);
    }
  }
  return InternalError("unreachable RA op");
}

Result<ColumnBatch> EvaluateAccessInputVectorized(const RaExpr& expr,
                                                  const BatchEnv& env,
                                                  TermPool& pool,
                                                  ExecStats* stats) {
  if (expr.op() != RaExpr::Op::kProject) {
    return EvaluateRaVectorized(expr, env, pool, stats);
  }
  LCP_ASSIGN_OR_RETURN(
      ColumnBatch child,
      EvaluateRaVectorized(*expr.children()[0], env, pool, stats));
  return EvalProject(child, expr.attrs(), /*dedup=*/false, stats);
}

}  // namespace lcp
