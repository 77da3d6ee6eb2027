// Stable models (§4, §2.4): GL transform, stability checks, brute-force vs
// backtracking enumeration, and the paper's WFS/stable relationships.

#include "stable/backtracking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "stable/enumerate.h"
#include "stable/gl_transform.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::vector<std::string> ModelNames(const GroundProgram& gp,
                                    const Bitset& pos) {
  std::vector<std::string> out;
  pos.ForEach([&](std::size_t a) {
    out.push_back(gp.AtomName(static_cast<AtomId>(a)));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GlTransform, ReductDeletesAndStrips) {
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);

  Bitset m(gp.num_atoms());
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (gp.AtomName(a) == "r") m.Set(a);
  }
  // Reduct w.r.t. {r}: the rule for p (not r) is deleted; r :- not p keeps
  // its (empty) positive body.
  auto reduct = GlReduct(gp.View(), m);
  ASSERT_EQ(reduct.size(), 2u);  // q. and r.
  for (const auto& rr : reduct) EXPECT_TRUE(rr.pos.empty());
}

TEST(GlTransform, StabilityViaSp) {
  // This program has exactly the stable models {q,r} and {p,q}; {q} alone
  // is not stable (its reduct derives p and r too).
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());

  auto named = [&](std::vector<std::string> names) {
    Bitset out(gp.num_atoms());
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      for (const auto& n : names) {
        if (gp.AtomName(a) == n) out.Set(a);
      }
    }
    return out;
  };
  EXPECT_TRUE(IsStableModel(solver, named({"q", "r"})));
  EXPECT_TRUE(IsStableModel(solver, named({"p", "q"})));
  EXPECT_FALSE(IsStableModel(solver, named({"q"})));
  EXPECT_FALSE(IsStableModel(solver, named({"p", "q", "r"})));
}

TEST(StableModels, EvenCycleHasTwoModels) {
  Program p = workload::EvenNegativeCycles(1);
  GroundProgram gp = MustGround(p);
  auto brute = EnumerateStableModelsBruteForce(gp);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute->size(), 2u);

  StableModelSearch search(gp);
  auto models = search.Enumerate();
  EXPECT_EQ(models.size(), 2u);
}

TEST(StableModels, OddLoopHasNoModel) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  auto brute = EnumerateStableModelsBruteForce(gp);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(brute->empty());
  StableModelSearch search(gp);
  EXPECT_EQ(search.Count(), 0u);
}

TEST(StableModels, CountGrowsAsTwoToTheK) {
  for (int k = 1; k <= 4; ++k) {
    Program p = workload::EvenNegativeCycles(k);
    GroundProgram gp = MustGround(p);
    StableModelSearch search(gp);
    EXPECT_EQ(search.Count(), (1u << k)) << "k=" << k;
  }
}

TEST(StableModels, BacktrackingMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    auto brute = EnumerateStableModelsBruteForce(gp);
    ASSERT_TRUE(brute.ok());

    StableModelSearch search(gp);
    auto models = search.Enumerate();

    auto canon = [&](const std::vector<Bitset>& ms) {
      std::vector<std::vector<std::string>> out;
      for (const Bitset& m : ms) out.push_back(ModelNames(gp, m));
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(canon(*brute), canon(models)) << "seed " << seed;
  }
}

TEST(StableModels, NaivePropagationAgreesWithWfsPropagation) {
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    StableSearchOptions wfs_opts;
    wfs_opts.wfs_propagation = true;
    StableSearchOptions naive_opts;
    naive_opts.wfs_propagation = false;
    StableModelSearch s1(gp, wfs_opts);
    StableModelSearch s2(gp, naive_opts);
    EXPECT_EQ(s1.Count(), s2.Count()) << "seed " << seed;
  }
}

TEST(StableModels, WfsPruningVisitsFewerNodes) {
  // On the win-move chain (stratified-ish but with deep alternation),
  // WFS propagation decides everything without branching.
  Program p = workload::WinMove(graphs::Chain(10));
  GroundProgram gp = MustGround(p);
  StableSearchOptions wfs_opts;
  StableModelSearch s1(gp, wfs_opts);
  EXPECT_EQ(s1.Count(), 1u);
  EXPECT_EQ(s1.stats().nodes, 1u);  // no branching needed

  StableSearchOptions naive_opts;
  naive_opts.wfs_propagation = false;
  StableModelSearch s2(gp, naive_opts);
  EXPECT_EQ(s2.Count(), 1u);
  EXPECT_GT(s2.stats().nodes, s1.stats().nodes);
}

// --- relationships the paper states (§2.4) ---

TEST(StableModels, EveryStableModelContainsWellFoundedModel) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/9, /*num_rules=*/16, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    StableModelSearch search(gp);
    for (const Bitset& m : search.Enumerate()) {
      EXPECT_TRUE(wfs.model.true_atoms().IsSubsetOf(m)) << "seed " << seed;
      EXPECT_TRUE(wfs.model.false_atoms().IsDisjointWith(m))
          << "seed " << seed;
    }
  }
}

TEST(StableModels, TotalWellFoundedModelIsUniqueStableModel) {
  // Figure 4(a) and (c): WFS total => exactly that one stable model.
  for (auto graph : {graphs::Figure4a(), graphs::Figure4c()}) {
    Program p = workload::WinMove(graph);
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    ASSERT_TRUE(wfs.model.IsTotal());
    StableModelSearch search(gp);
    auto models = search.Enumerate();
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0], wfs.model.true_atoms());
  }
}

TEST(StableModels, StableModelsAreFixpointsOfAp) {
  // §5: every stable model('s negative part) is a fixpoint of A_P.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/12, /*body_len=*/2,
        /*neg_prob_percent=*/60, seed);
    GroundProgram gp = MustGround(p);
    HornSolver solver(gp.View());
    StableModelSearch search(gp);
    for (const Bitset& m : search.Enumerate()) {
      Bitset neg = Bitset::ComplementOf(m);
      Bitset s1 = Bitset::ComplementOf(solver.EventualConsequences(neg));
      Bitset a_p = Bitset::ComplementOf(solver.EventualConsequences(s1));
      EXPECT_EQ(a_p, neg) << "seed " << seed;
    }
  }
}

// The well-founded model of `gp` conditioned on an assumption pair, by the
// alternating fixpoint from Ĩ_0 = seed_negatives (default: no seed).
PartialModel ConditionedWfs(const GroundProgram& gp, const Bitset& assumed_true,
                            const Bitset& assumed_false,
                            const Bitset& seed_negatives = Bitset()) {
  OwnedRules conditioned;
  ConditionOnAssumptions(gp.View(), assumed_true, assumed_false,
                         /*delete_false_heads=*/true, &conditioned);
  HornSolver solver(conditioned.View());
  return AlternatingFixpointWithSolver(solver, seed_negatives, {}).model;
}

// The lemma behind ParallelStableSearch's node representation:
// conditioning a program Q on one atom b undefined in WFS(Q) — b assumed
// true (b becomes a fact) or assumed false (b's rules are deleted) — only
// grows the well-founded model, so the parent's decided sets
// underestimate the child's. Checked with the unseeded alternating
// fixpoint alone, for every undefined b, at the root and one level down
// (Q itself conditioned on its first undefined atom, the engine's own
// branch choice). Two consequences the engine relies on are checked too:
// the fixpoint seeded with the parent's false set lands on the same
// model, and so does conditioning on the parent's whole decided sets plus
// the branch literal — the child inherits the parent's model, true set
// included, in place of its assumptions.
TEST(StableModels, ConditioningOnAnUndefinedAtomOnlyGrowsTheWellFoundedModel) {
  std::size_t children_checked = 0;
  for (std::uint64_t seed = 0; seed < 68; ++seed) {
    const int atoms = 8 + static_cast<int>(seed % 17);  // 8..24
    Program p = workload::RandomPropositional(
        atoms, /*num_rules=*/atoms * 2, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    const std::size_t n = gp.num_atoms();

    // Parents: the root and, when it has one, both children of its first
    // undefined atom.
    std::vector<std::pair<Bitset, Bitset>> parents = {{Bitset(n), Bitset(n)}};
    const PartialModel root = ConditionedWfs(gp, Bitset(n), Bitset(n));
    for (std::size_t a = 0; a < n; ++a) {
      if (root.Value(static_cast<AtomId>(a)) == TruthValue::kUndefined) {
        parents.push_back(parents.front());
        parents.back().second.Set(a);  // a assumed false
        parents.push_back(parents.front());
        parents.back().first.Set(a);  // a assumed true
        break;
      }
    }

    for (const auto& [t, f] : parents) {
      const PartialModel q = ConditionedWfs(gp, t, f);
      for (std::size_t b = 0; b < n; ++b) {
        if (q.Value(static_cast<AtomId>(b)) != TruthValue::kUndefined) {
          continue;
        }
        for (const bool assume_true : {false, true}) {
          Bitset ct = t;
          Bitset cf = f;
          (assume_true ? ct : cf).Set(b);
          const PartialModel child = ConditionedWfs(gp, ct, cf);
          EXPECT_TRUE(q.true_atoms().IsSubsetOf(child.true_atoms()))
              << "seed " << seed << " b=" << b << " true=" << assume_true;
          EXPECT_TRUE(q.false_atoms().IsSubsetOf(child.false_atoms()))
              << "seed " << seed << " b=" << b << " true=" << assume_true;
          EXPECT_EQ(child.Value(static_cast<AtomId>(b)),
                    assume_true ? TruthValue::kTrue : TruthValue::kFalse);
          // And the consequence the engine relies on: the fixpoint seeded
          // with the parent's false set lands on the same model.
          const PartialModel seeded =
              ConditionedWfs(gp, ct, cf, q.false_atoms());
          EXPECT_EQ(seeded.true_atoms(), child.true_atoms())
              << "seed " << seed << " b=" << b;
          EXPECT_EQ(seeded.false_atoms(), child.false_atoms())
              << "seed " << seed << " b=" << b;
          Bitset inherited_true = q.true_atoms();
          Bitset inherited_false = q.false_atoms();
          (assume_true ? inherited_true : inherited_false).Set(b);
          const PartialModel inherited =
              ConditionedWfs(gp, inherited_true, inherited_false);
          EXPECT_EQ(inherited.true_atoms(), child.true_atoms())
              << "seed " << seed << " b=" << b;
          EXPECT_EQ(inherited.false_atoms(), child.false_atoms())
              << "seed " << seed << " b=" << b;
          ++children_checked;
        }
      }
    }
  }
  EXPECT_GE(children_checked, 1000u) << "too few undefined atoms exercised";
}

TEST(StableModels, BruteForceGuardsUniverseSize) {
  Program p = workload::EvenNegativeCycles(20);
  GroundProgram gp = MustGround(p);
  auto r = EnumerateStableModelsBruteForce(gp, /*max_universe=*/24);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StableModels, MaxModelsStopsEarly) {
  Program p = workload::EvenNegativeCycles(6);
  GroundProgram gp = MustGround(p);
  StableSearchOptions opts;
  opts.max_models = 3;
  StableModelSearch search(gp, opts);
  EXPECT_EQ(search.Enumerate().size(), 3u);
}

}  // namespace
}  // namespace afp
