// Grounder tests: smart vs full vs naive instantiation, simplification of
// never-derivable negative literals, function-symbol guards, dedup.

#include "ground/grounder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/interpretation.h"
#include "reference_grounder.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p, GroundOptions opts = {}) {
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(Grounder, PropositionalProgramGroundsToItself) {
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_atoms(), 3u);
  EXPECT_EQ(gp.num_rules(), 3u);
}

TEST(Grounder, InstantiatesOnlyDerivableJoins) {
  // Smart grounding instantiates wins(x) only for x with an out-edge; the
  // rule for node c (no move) never materializes.
  Program p = workload::WinMove(graphs::Figure4c());  // a<->b, b->c
  GroundProgram gp = MustGround(p);
  // Rules: 3 move facts + 3 wins rules (one per edge).
  EXPECT_EQ(gp.num_rules(), 6u);
}

TEST(Grounder, SimplifyDropsUnderivableNegatives) {
  // q can never be derived, so "not q" is certainly true and disappears;
  // the atom q is dropped from the base.
  auto parsed = ParseProgram("p :- not q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();

  GroundOptions simplify;
  simplify.simplify = true;
  GroundProgram gp1 = MustGround(p, simplify);
  EXPECT_EQ(gp1.num_atoms(), 1u);  // only p
  EXPECT_EQ(gp1.rule(0).neg_len, 0u);

  GroundOptions keep;
  keep.simplify = false;
  GroundProgram gp2 = MustGround(p, keep);
  EXPECT_EQ(gp2.num_atoms(), 2u);  // p and q
  EXPECT_EQ(gp2.rule(0).neg_len, 1u);
}

TEST(Grounder, FullModeEnumeratesActiveDomain) {
  // wins(X) :- move(X,Y), not wins(Y) over 2 constants: full instantiation
  // gives 4 rule instances (plus the move fact).
  auto parsed = ParseProgram("move(a,b). wins(X) :- move(X,Y), not wins(Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  GroundProgram gp = MustGround(p, opts);
  EXPECT_EQ(gp.num_rules(), 1u + 4u);
}

TEST(Grounder, SemiNaiveAndNaiveAgree) {
  Program p1 = workload::TransitiveClosureComplement(
      graphs::ErdosRenyi(8, 14, /*seed=*/42));
  Program p2 = workload::TransitiveClosureComplement(
      graphs::ErdosRenyi(8, 14, /*seed=*/42));
  GroundOptions semi;
  semi.semi_naive = true;
  GroundOptions naive;
  naive.semi_naive = false;
  GroundProgram g1 = MustGround(p1, semi);
  GroundProgram g2 = MustGround(p2, naive);
  EXPECT_EQ(g1.num_atoms(), g2.num_atoms());
  EXPECT_EQ(g1.num_rules(), g2.num_rules());
}

TEST(Grounder, RecursiveJoinChainGrounding) {
  // Transitive closure over a chain: tc has n*(n+1)/2 ... pairs (i,j), i<j.
  Program p = workload::TransitiveClosureComplement(graphs::Chain(5));
  GroundProgram gp = MustGround(p);
  // tc(i,j) derivable for all 0 <= i < j < 5: 10 atoms.
  int tc_count = 0;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (gp.AtomName(a).rfind("tc(", 0) == 0) ++tc_count;
  }
  EXPECT_EQ(tc_count, 10);
}

TEST(Grounder, DuplicateRuleInstancesAreDeduped) {
  // Both body orders produce the same ground instance set.
  auto parsed = ParseProgram("e(a,b). p(X) :- e(X,Y), e(X,Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_rules(), 2u);  // the fact + one p rule
}

TEST(Grounder, FunctionSymbolsWithFiniteClosureTerminate) {
  // s(X) recursion bounded by the base predicate: finite.
  auto parsed = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X), bound(X).
    bound(z).
  )");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  // n(z), n(s(z)), bound(z) derivable.
  EXPECT_GE(gp.num_atoms(), 3u);
}

TEST(Grounder, InfiniteHerbrandUniverseTripsGuard) {
  auto parsed = ParseProgram("n(z). n(s(X)) :- n(X).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.max_atoms = 1000;
  auto g = Grounder::Ground(p, opts);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
}

TEST(Grounder, MaxRulesCountsEmissionsAlikeInBothLayouts) {
  // max_rules counts instances before the structural dedupe. p(a) :- q(a)
  // comes from both rules, so semi-naive and full grounding emit three
  // instances; naive grounding drops the repeat at emission and emits two.
  struct Case {
    GroundMode mode;
    bool semi_naive;
    std::size_t emitted;
  };
  for (const Case& c : {Case{GroundMode::kSmart, true, 3},
                        Case{GroundMode::kSmart, false, 2},
                        Case{GroundMode::kFull, true, 3}}) {
    for (std::size_t limit : {c.emitted - 1, c.emitted}) {
      SCOPED_TRACE(::testing::Message()
                   << "semi_naive=" << c.semi_naive << " full="
                   << (c.mode == GroundMode::kFull) << " limit=" << limit);
      auto parsed = ParseProgram("q(a). q(b). p(X) :- q(X). p(a) :- q(a).");
      ASSERT_TRUE(parsed.ok());
      Program p = std::move(parsed).value();
      GroundOptions opts;
      opts.mode = c.mode;
      opts.semi_naive = c.semi_naive;
      opts.max_rules = limit;
      auto g = Grounder::Ground(p, opts);
      if (limit == c.emitted) {
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        EXPECT_EQ(g.value().num_rules(), 4u);  // two facts, two rules
      } else {
        ASSERT_FALSE(g.ok());
        EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
      }
    }
  }
}

TEST(Grounder, RuleWithOnlyNegativeBody) {
  auto parsed = ParseProgram("p :- not q. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_rules(), 2u);
  EXPECT_EQ(gp.num_atoms(), 2u);
}

TEST(Grounder, GroundRuleRendering) {
  auto parsed = ParseProgram("move(a,b). wins(X) :- move(X,Y), not wins(Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.simplify = false;
  GroundProgram gp = MustGround(p, opts);
  std::string all = gp.ToString();
  EXPECT_NE(all.find("move(a,b)."), std::string::npos);
  EXPECT_NE(all.find("wins(a) :- move(a,b), not wins(b)."),
            std::string::npos);
}

TEST(Grounder, RejectsInvalidProgram) {
  Program p;
  p.AddRule(p.MakeAtom("p", {p.Var("X")}), {});  // unsafe
  auto g = Grounder::Ground(p);
  EXPECT_FALSE(g.ok());
}

TEST(Grounder, TotalSizeAccounting) {
  auto parsed = ParseProgram("p :- q, not r. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.simplify = false;
  GroundProgram gp = MustGround(p, opts);
  // 2 rules + body atoms (q, r) = 4.
  EXPECT_EQ(gp.TotalSize(), 4u);
}

TEST(Grounder, MatchesReferenceGrounder) {
  // The grounder against the test-only reference (tests/reference_grounder.h,
  // Definition 3.4 computed naively), compared as sorted rule and atom
  // lists: a rule kept twice, a rule lost, a negative literal dropped or
  // kept wrongly all show. The shapes stress the emission and assembly
  // dedupe: the emitter drops repeated instances only in naive mode and
  // leaves duplicates across rules, and empty bodies, to the assembly.
  const std::string fn_program = R"(
      n(z). bound(z). bound(s(z)).
      n(s(X)) :- n(X), bound(X).
      odd(s(X)) :- n(s(X)), not odd(X).
    )";
  const std::vector<std::string> cases = {
      // duplicate facts
      "q(a). q(a). q(b). q(a). p(X) :- q(X).",
      // the same instance from two rules
      "q(a). q(b). p(X) :- q(X). p(a) :- q(a). "
      "r(X) :- q(X), not p(X). r(b) :- q(b), not p(b).",
      // a repeated positive literal
      "q(a). q(b). p(X) :- q(X), q(X). s(X) :- q(X), p(X), q(X).",
      // a repeated variable and a nested pattern
      "e(a,a). e(a,b). e(b,b). r(X) :- e(X,X). t(f(X,g(Y))) :- e(X,Y). "
      "u(X) :- t(f(X,g(X))). w(Y) :- t(f(X,g(Y))), not u(Y).",
      // rules that collapse once underivable negatives are dropped
      "q. p :- q, not r. p :- q, not s. v :- q, not r, not s.",
      // bodies that simplify to empty and then equal a fact, or each other
      "p. p :- not r. q :- not r. q :- not s.",
  };
  struct Source {
    std::string name;
    std::function<Program()> make;
  };
  std::vector<Source> sources = {
      {"win-move ER(64,256)",
       [] { return workload::WinMove(graphs::ErdosRenyi(64, 256, 7)); }},
      {"tc-complement ER(24,48)",
       [] {
         return workload::TransitiveClosureComplement(
             graphs::ErdosRenyi(24, 48, 3));
       }},
  };
  std::vector<std::string> texts = cases;
  texts.push_back(fn_program);
  for (const std::string& text : texts) {
    sources.push_back({text, [text] {
                         auto parsed = ParseProgram(text);
                         EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
                         return std::move(parsed).value();
                       }});
  }
  struct Config {
    GroundMode mode;
    bool semi_naive;
    const char* name;
  };
  for (const Source& src : sources) {
    for (const Config& c : {Config{GroundMode::kSmart, true, "semi-naive"},
                            Config{GroundMode::kSmart, false, "naive"},
                            Config{GroundMode::kFull, true, "full"}}) {
      for (bool simplify : {true, false}) {
        SCOPED_TRACE(src.name + " " + c.name +
                     (simplify ? " simplify" : ""));
        Program p = src.make();
        GroundOptions opts;
        opts.mode = c.mode;
        opts.semi_naive = c.semi_naive;
        opts.simplify = simplify;
        const GroundProgram gp = MustGround(p, opts);
        Program ref_p = src.make();
        const ReferenceGround ref =
            ReferenceGrounder::Ground(ref_p, c.mode, simplify);
        EXPECT_EQ(CanonicalRules(gp), ref.rules);
        EXPECT_EQ(AtomNames(gp), ref.atoms);
      }
    }
  }

  // Two pinned renderings: the first occurrence of a duplicate instance
  // keeps its place, and the collapsed rules vanish.
  auto render = [](const std::string& text) {
    auto parsed = ParseProgram(text);
    EXPECT_TRUE(parsed.ok());
    Program p = std::move(parsed).value();
    return MustGround(p).ToString();
  };
  EXPECT_EQ(render(cases[1]),
            "q(a).\n"
            "q(b).\n"
            "p(a) :- q(a).\n"
            "p(b) :- q(b).\n"
            "r(a) :- q(a), not p(a).\n"
            "r(b) :- q(b), not p(b).\n");
  EXPECT_EQ(render("p. p :- not r. q :- not r. q :- not s. "
                   "t :- p, not r. t :- p, not s."),
            "p.\n"
            "q.\n"
            "t :- p.\n");
}

TEST(Grounder, ChainGroundsWithJoinVisitsLinearInAtoms) {
  // n(s(X)) :- n(X) derives one atom per round. A join that re-walked the
  // whole candidate list each round would make this quadratic; the round
  // cursors let the delta position scan only the previous round's atom, so
  // the 50k-atom bound is reached after ~50k visits.
  auto parsed = ParseProgram("n(z). n(s(X)) :- n(X).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.max_atoms = 50000;
  std::uint64_t visits = 0;
  auto g = Grounder::Ground(p, opts, &visits);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(visits, opts.max_atoms - 1);
  EXPECT_LE(visits, 2 * opts.max_atoms);
}

TEST(Grounder, JoinVisitsAreReportedInTheReceipt) {
  // Win-move over an edge list: one move candidate per edge at the delta
  // position, nothing else to join.
  Program p = workload::WinMove(graphs::ErdosRenyi(64, 256, 7));
  GroundProgram gp = MustGround(p);
  std::size_t moves = 0;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    moves += gp.AtomName(a).rfind("move(", 0) == 0;
  }
  EXPECT_EQ(gp.grounding_stats().join_candidates_visited, moves);
}

TEST(Grounder, SteadyStateLookupsDoNotAllocate) {
  // Regression guard for the AtomTable::Find fast path: Find used to build
  // a Key{pred, std::vector<TermId>} per call — one heap allocation per
  // negative-literal probe. Lookups on a populated table must
  // move the probe counters without ever touching grow_allocs (the only
  // counter that increments when the index allocates).
  Program p = workload::WinMove(graphs::ErdosRenyi(128, 512, 11));
  GroundProgram gp = MustGround(p);
  const AtomTable& atoms = gp.atoms();
  ASSERT_GT(atoms.size(), 0u);

  const FlatIndexStats before = atoms.index_stats();
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    ASSERT_EQ(atoms.Find(atoms.predicate(a), atoms.args(a)), a);
  }
  const FlatIndexStats after = atoms.index_stats();
  EXPECT_GT(after.probes, before.probes) << "counters should be live";
  EXPECT_EQ(after.grow_allocs, before.grow_allocs)
      << "a steady-state Find must never allocate";
  EXPECT_EQ(after.capacity_bytes, before.capacity_bytes);
}

TEST(Grounder, GroundStatsReceiptIsFilled) {
  Program p = workload::WinMove(graphs::ErdosRenyi(64, 256, 7));
  GroundProgram gp = MustGround(p);
  const GroundStats& g = gp.grounding_stats();
  EXPECT_EQ(g.atoms, gp.num_atoms());
  EXPECT_EQ(g.rules, gp.num_rules());
  EXPECT_GT(g.intern_probes, 0u);
  EXPECT_GT(g.arena_bytes, 0u);
}

TEST(Grounder, PostSealAddRuleMaintainsFactIndex) {
  // Regression: AddRule is public, and calling it on a sealed program with
  // an empty body is an EDB fact append by another name. The lazily built
  // fact index used to be maintained only by AddFact, so this sequence
  // made HasFact report a fact the rule vector plainly contained.
  auto parsed = ParseProgram("p :- q. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  const AtomId q = *ResolveAtom(gp, "q");
  const AtomId pa = *ResolveAtom(gp, "p");
  ASSERT_TRUE(gp.HasFact(q));    // builds the index
  ASSERT_FALSE(gp.HasFact(pa));  // p is derived, not a fact — yet
  ASSERT_TRUE(gp.AddRule(pa, {}, {}));
  EXPECT_TRUE(gp.HasFact(pa)) << "post-seal AddRule left fact_index_ stale";
  // The appended fact is fully wired in: RemoveFact finds and erases it.
  GroundProgram::FactRemoval rem = gp.RemoveFact(pa);
  EXPECT_TRUE(rem.removed);
  EXPECT_FALSE(gp.HasFact(pa));
  // Non-fact post-seal rules leave the index alone.
  ASSERT_TRUE(gp.AddRule(pa, std::vector<AtomId>{q}, {}));
  EXPECT_FALSE(gp.HasFact(pa));
}

}  // namespace
}  // namespace afp
