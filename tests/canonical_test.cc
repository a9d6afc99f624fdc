#include "lcp/service/canonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lcp/base/strings.h"
#include "lcp/logic/atom.h"
#include "lcp/logic/term.h"

namespace lcp {
namespace {

// --- targeted cases --------------------------------------------------------

ConjunctiveQuery MakeQuery(std::vector<std::string> free_vars,
                           std::vector<Atom> atoms) {
  ConjunctiveQuery q;
  q.free_variables = std::move(free_vars);
  q.atoms = std::move(atoms);
  return q;
}

TEST(CanonicalTest, RenamingExistentialsIsInvariant) {
  // Q(x) :- R(x, y), S(y, z)  ==  Q(x) :- R(x, b), S(b, c)
  ConjunctiveQuery a = MakeQuery(
      {"x"}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
              Atom(1, {Term::Var("y"), Term::Var("z")})});
  ConjunctiveQuery b = MakeQuery(
      {"x"}, {Atom(0, {Term::Var("x"), Term::Var("b")}),
              Atom(1, {Term::Var("b"), Term::Var("c")})});
  EXPECT_EQ(CanonicalizeQuery(a), CanonicalizeQuery(b));
}

TEST(CanonicalTest, FreeVariablesMatchByPosition) {
  // Q(x, y) :- R(x, y)  ==  Q(a, b) :- R(a, b) ...
  ConjunctiveQuery a =
      MakeQuery({"x", "y"}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  ConjunctiveQuery b =
      MakeQuery({"a", "b"}, {Atom(0, {Term::Var("a"), Term::Var("b")})});
  EXPECT_EQ(CanonicalizeQuery(a), CanonicalizeQuery(b));
  // ... but != Q(y, x) :- R(x, y): the answer columns are swapped.
  ConjunctiveQuery c =
      MakeQuery({"y", "x"}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_NE(CanonicalizeQuery(a), CanonicalizeQuery(c));
}

TEST(CanonicalTest, AtomPermutationIsInvariant) {
  ConjunctiveQuery a = MakeQuery(
      {}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
           Atom(1, {Term::Var("y"), Term::Const(3)}),
           Atom(2, {Term::Var("x")})});
  ConjunctiveQuery b = MakeQuery(
      {}, {Atom(2, {Term::Var("x")}),
           Atom(1, {Term::Var("y"), Term::Const(3)}),
           Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_EQ(CanonicalizeQuery(a), CanonicalizeQuery(b));
}

TEST(CanonicalTest, SymmetricTiesNeedBacktracking) {
  // A directed 3-cycle is isomorphic to any rotation/renaming of itself;
  // every atom renders identically at the first step, so the tie-break has
  // to branch to find the common canonical order.
  ConjunctiveQuery cycle = MakeQuery(
      {}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
           Atom(0, {Term::Var("y"), Term::Var("z")}),
           Atom(0, {Term::Var("z"), Term::Var("x")})});
  ConjunctiveQuery rotated = MakeQuery(
      {}, {Atom(0, {Term::Var("c"), Term::Var("a")}),
           Atom(0, {Term::Var("b"), Term::Var("c")}),
           Atom(0, {Term::Var("a"), Term::Var("b")})});
  EXPECT_EQ(CanonicalizeQuery(cycle), CanonicalizeQuery(rotated));

  // A path of length 3 has the same atom multiset shape at first glance but
  // is not isomorphic to the cycle.
  ConjunctiveQuery path = MakeQuery(
      {}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
           Atom(0, {Term::Var("y"), Term::Var("z")}),
           Atom(0, {Term::Var("z"), Term::Var("w")})});
  EXPECT_NE(CanonicalizeQuery(cycle), CanonicalizeQuery(path));
}

TEST(CanonicalTest, RepeatedVariablesDistinguish) {
  ConjunctiveQuery diag = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Var("x")})});
  ConjunctiveQuery pair = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_NE(CanonicalizeQuery(diag), CanonicalizeQuery(pair));
}

TEST(CanonicalTest, ConstantsDistinguish) {
  ConjunctiveQuery a = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Const("smith")})});
  ConjunctiveQuery b = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Const("jones")})});
  ConjunctiveQuery c = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_NE(CanonicalizeQuery(a), CanonicalizeQuery(b));
  EXPECT_NE(CanonicalizeQuery(a), CanonicalizeQuery(c));
}

TEST(CanonicalTest, StringConstantsCannotSpellOutOtherAtoms) {
  // A string constant holding the rendering of an atom boundary must not
  // make a one-atom query render like a two-atom one: with unescaped
  // constants both of these rendered as F1;R0(f0,c:"a");R1(c:"b").
  ConjunctiveQuery one_atom = MakeQuery(
      {"x"}, {Atom(0, {Term::Var("x"), Term::Const("a\");R1(c:\"b")})});
  ConjunctiveQuery two_atoms =
      MakeQuery({"x"}, {Atom(0, {Term::Var("x"), Term::Const("a")}),
                        Atom(1, {Term::Const("b")})});
  EXPECT_NE(CanonicalizeQuery(one_atom).key, CanonicalizeQuery(two_atoms).key);
  // Integer and string constants with the same digits stay apart too.
  ConjunctiveQuery int_const = MakeQuery({}, {Atom(0, {Term::Const(1)})});
  ConjunctiveQuery str_const = MakeQuery({}, {Atom(0, {Term::Const("1")})});
  EXPECT_NE(CanonicalizeQuery(int_const), CanonicalizeQuery(str_const));
}

TEST(CanonicalTest, DuplicateAtomsCollapse) {
  ConjunctiveQuery once = MakeQuery({}, {Atom(0, {Term::Var("x"), Term::Var("y")})});
  ConjunctiveQuery twice = MakeQuery(
      {}, {Atom(0, {Term::Var("x"), Term::Var("y")}),
           Atom(0, {Term::Var("x"), Term::Var("y")})});
  EXPECT_EQ(CanonicalizeQuery(once), CanonicalizeQuery(twice));
}

TEST(CanonicalTest, FreeVariableCountInKey) {
  ConjunctiveQuery boolean_q = MakeQuery({}, {Atom(0, {Term::Var("x")})});
  ConjunctiveQuery unary_q = MakeQuery({"x"}, {Atom(0, {Term::Var("x")})});
  EXPECT_NE(CanonicalizeQuery(boolean_q), CanonicalizeQuery(unary_q));
}

// --- property test: 500 random renamed/permuted copies ---------------------

constexpr int kNumRelations = 4;
const int kArity[kNumRelations] = {1, 2, 3, 2};

ConjunctiveQuery RandomQuery(std::mt19937& rng) {
  std::uniform_int_distribution<int> num_atoms_dist(1, 6);
  std::uniform_int_distribution<int> rel_dist(0, kNumRelations - 1);
  std::uniform_int_distribution<int> var_dist(0, 5);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  ConjunctiveQuery q;
  int num_atoms = num_atoms_dist(rng);
  for (int i = 0; i < num_atoms; ++i) {
    RelationId rel = rel_dist(rng);
    std::vector<Term> terms;
    for (int pos = 0; pos < kArity[rel]; ++pos) {
      int kind = kind_dist(rng);
      if (kind == 0) {
        terms.push_back(Term::Const(int64_t{1} + var_dist(rng) % 3));
      } else if (kind == 1) {
        terms.push_back(Term::Const("smith"));
      } else {
        terms.push_back(Term::Var(StrCat("v", var_dist(rng))));
      }
    }
    q.atoms.emplace_back(rel, std::move(terms));
  }
  // A random subset of the occurring variables becomes the answer tuple.
  std::vector<std::string> vars = CollectVariables(q.atoms);
  for (const std::string& v : vars) {
    if (kind_dist(rng) < 3) q.free_variables.push_back(v);
  }
  return q;
}

/// A bijectively renamed, atom-permuted copy: the α-equivalence transformer.
ConjunctiveQuery IsomorphicCopy(const ConjunctiveQuery& q, std::mt19937& rng) {
  std::vector<std::string> vars = CollectVariables(q.atoms);
  std::vector<int> perm(vars.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::unordered_map<std::string, std::string> rename;
  for (size_t i = 0; i < vars.size(); ++i) {
    rename.emplace(vars[i], StrCat("w", perm[i]));
  }
  ConjunctiveQuery copy;
  for (const std::string& v : q.free_variables) {
    // Order preserved; a free variable with no atom occurrence (an unsafe
    // query some mutants produce) has nothing to stay consistent with, so
    // its name can pass through.
    auto it = rename.find(v);
    copy.free_variables.push_back(it == rename.end() ? v : it->second);
  }
  for (const Atom& atom : q.atoms) {
    std::vector<Term> terms;
    for (const Term& t : atom.terms) {
      terms.push_back(t.is_variable() ? Term::Var(rename.at(t.var())) : t);
    }
    copy.atoms.emplace_back(atom.relation, std::move(terms));
  }
  std::shuffle(copy.atoms.begin(), copy.atoms.end(), rng);
  return copy;
}

TEST(CanonicalPropertyTest, RandomIsomorphicCopiesShareFingerprints) {
  std::mt19937 rng(20140622);  // Deterministic: PODS'14 opening day.
  for (int trial = 0; trial < 500; ++trial) {
    ConjunctiveQuery q = RandomQuery(rng);
    ConjunctiveQuery copy = IsomorphicCopy(q, rng);
    QueryFingerprint fq = CanonicalizeQuery(q);
    QueryFingerprint fc = CanonicalizeQuery(copy);
    ASSERT_EQ(fq, fc) << "trial " << trial << "\n  key(q)    = " << fq.key
                      << "\n  key(copy) = " << fc.key;
  }
}

TEST(CanonicalPropertyTest, NonIsomorphicMutationsNeverCollide) {
  std::mt19937 rng(19700101);
  for (int trial = 0; trial < 500; ++trial) {
    ConjunctiveQuery q = RandomQuery(rng);
    QueryFingerprint fq = CanonicalizeQuery(q);

    // Mutations guaranteed to leave the isomorphism class: a fresh constant
    // value, an atom over a relation id the query cannot otherwise contain,
    // and one more answer column than any renaming can produce.
    ConjunctiveQuery fresh_const = q;
    fresh_const.atoms[0].terms[0] = Term::Const(int64_t{999});
    ConjunctiveQuery extra_atom = q;
    extra_atom.atoms.push_back(Atom(kNumRelations, {Term::Var("zz")}));
    ConjunctiveQuery extra_free = q;
    extra_free.free_variables.push_back("zz_free");

    for (const ConjunctiveQuery* mutant :
         {&fresh_const, &extra_atom, &extra_free}) {
      QueryFingerprint fm = CanonicalizeQuery(*mutant);
      ASSERT_NE(fq, fm) << "trial " << trial << " key = " << fq.key;
      // And the mutant's isomorphic copies still agree with the mutant.
      ASSERT_EQ(fm, CanonicalizeQuery(IsomorphicCopy(*mutant, rng)))
          << "trial " << trial;
    }
  }
}

TEST(CanonicalPropertyTest, FingerprintIsStableAcrossCalls) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    ConjunctiveQuery q = RandomQuery(rng);
    QueryFingerprint a = CanonicalizeQuery(q);
    QueryFingerprint b = CanonicalizeQuery(q);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a.hash, b.hash);
  }
}

}  // namespace
}  // namespace lcp
