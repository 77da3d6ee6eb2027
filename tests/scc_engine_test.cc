// Atom-level dependency analysis and the component-wise well-founded
// engine: local stratification, bottom-up component evaluation, and
// equivalence with the monolithic alternating fixpoint.

#include "core/scc_engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "ground/grounder.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p, GroundMode mode = GroundMode::kSmart) {
  GroundOptions opts;
  opts.mode = mode;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(AtomGraph, ComponentsOfPositiveCycle) {
  auto parsed = ParseProgram("p :- q. q :- p. r :- p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  // {p,q} one component, {r} its own; callees get smaller ids.
  EXPECT_EQ(g.num_components(), 2u);
  AtomId pa = *ResolveAtom(gp, "p");
  AtomId qa = *ResolveAtom(gp, "q");
  AtomId ra = *ResolveAtom(gp, "r");
  EXPECT_EQ(g.component_of()[pa], g.component_of()[qa]);
  EXPECT_LT(g.component_of()[pa], g.component_of()[ra]);
  EXPECT_TRUE(g.IsLocallyStratified());
}

TEST(AtomGraph, NegativeSelfLoopNotLocallyStratified) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  EXPECT_FALSE(g.IsLocallyStratified());
}

TEST(AtomGraph, WinMoveOnAcyclicGraphIsLocallyStratified) {
  // The predicate-level program is unstratified, but the GROUND program on
  // an acyclic move graph is locally stratified — exactly Przymusinski's
  // point about local stratification being finer (§2.3).
  Program p = workload::WinMove(graphs::Figure4a());
  GroundProgram gp = MustGround(p);
  AtomDependencyGraph g(gp.View());
  EXPECT_TRUE(g.IsLocallyStratified());

  Program p2 = workload::WinMove(graphs::Figure4b());  // cyclic moves
  GroundProgram gp2 = MustGround(p2);
  AtomDependencyGraph g2(gp2.View());
  EXPECT_FALSE(g2.IsLocallyStratified());
}

TEST(AtomGraph, DeepChainDoesNotOverflow) {
  // The iterative Tarjan must survive a 60k-deep positive chain.
  Program p;
  p.AddFact("p0", {});
  for (int i = 1; i < 60000; ++i) {
    p.AddRule(p.MakeAtom(workload::IndexedName("p", i)),
              {Program::Pos(p.MakeAtom(workload::IndexedName("p", i - 1)))});
  }
  GroundProgram gp = MustGround(p);
  AtomDependencyGraph g(gp.View());
  EXPECT_EQ(g.num_components(), 60000u);
}

TEST(SccEngine, MatchesAfpOnPaperExamples) {
  std::vector<Program> programs;
  programs.push_back(workload::Example51());
  programs.push_back(workload::Example31());
  programs.push_back(workload::WinMove(graphs::Figure4a()));
  programs.push_back(workload::WinMove(graphs::Figure4b()));
  programs.push_back(workload::WinMove(graphs::Figure4c()));
  programs.push_back(workload::TransitiveClosureComplement(
      graphs::Cycle(4)));
  for (Program& p : programs) {
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    SccWfsResult scc = WellFoundedScc(gp);
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_EQ(scc.model, afp.model);
  }
}

TEST(SccEngine, MatchesAfpOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/25, /*num_rules=*/50, /*body_len=*/3,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    EXPECT_EQ(WellFoundedScc(gp).model, AlternatingFixpoint(gp).model)
        << "seed " << seed;
  }
}

TEST(SccEngine, MatchesAfpOnGraphWorkloads) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::WinMove(graphs::ErdosRenyi(50, 120, seed));
    GroundProgram gp = MustGround(p);
    EXPECT_EQ(WellFoundedScc(gp).model, AlternatingFixpoint(gp).model)
        << "seed " << seed;
  }
}

TEST(SccEngine, LocallyStratifiedGivesTotalModel) {
  // Ground-locally-stratified programs have a total well-founded model
  // (their perfect model) — Przymusinski via §2.4.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Program p = workload::WinMove(
        graphs::ErdosRenyi(20, 25, seed));  // may or may not be acyclic
    GroundProgram gp = MustGround(p);
    SccWfsResult r = WellFoundedScc(gp);
    if (r.locally_stratified) {
      EXPECT_TRUE(r.model.IsTotal()) << "seed " << seed;
    }
  }
  // And a guaranteed-acyclic instance:
  Program p = workload::WinMove(graphs::Chain(15));
  GroundProgram gp = MustGround(p);
  SccWfsResult r = WellFoundedScc(gp);
  EXPECT_TRUE(r.locally_stratified);
  EXPECT_TRUE(r.model.IsTotal());
}

TEST(SccEngine, LocalWorkIsBoundedByProgramSize) {
  // Component-wise evaluation touches each rule a constant number of
  // times: total local size stays within a small factor of program size,
  // even when the plain engine alternates Θ(n) rounds.
  Program p = workload::WinMove(graphs::Chain(100));
  GroundProgram gp = MustGround(p);
  SccWfsResult r = WellFoundedScc(gp);
  EXPECT_LE(r.total_local_size, 4 * gp.TotalSize() + 16);
  AfpResult afp = AlternatingFixpoint(gp);
  EXPECT_EQ(r.model, afp.model);
  EXPECT_GT(afp.outer_iterations, 40u);  // the monolithic engine alternates
}

TEST(SccEngine, UndefinedExternalsCapDependentAtoms) {
  // b depends positively on the undefined pair {p,q}; c depends negatively.
  // Both must come out undefined, not true/false.
  auto parsed = ParseProgram(R"(
    p :- not q. q :- not p.
    b :- p.
    c :- not p.
    d :- b, not c.
  )");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  SccWfsResult r = WellFoundedScc(gp);
  for (const char* atom : {"p", "q", "b", "c", "d"}) {
    auto id = ResolveAtom(gp, atom);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(r.model.Value(*id), TruthValue::kUndefined) << atom;
  }
  EXPECT_EQ(r.model, AlternatingFixpoint(gp).model);
}

TEST(AtomGraph, CondensationEdgesAndInDegrees) {
  // p <- q (cross-component), {p,q2,q3} chain: condensation edges point
  // dependency -> dependent with in-degrees to match.
  auto parsed = ParseProgram("q. p :- q. r :- p, q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  ASSERT_EQ(g.num_components(), 3u);
  const auto& off = g.condensation_offsets();
  const auto& succ = g.condensation_successors();
  const auto& indeg = g.condensation_in_degrees();
  ASSERT_EQ(off.size(), g.num_components() + 1);
  ASSERT_EQ(indeg.size(), g.num_components());
  AtomId qa = *ResolveAtom(gp, "q");
  AtomId pa = *ResolveAtom(gp, "p");
  AtomId ra = *ResolveAtom(gp, "r");
  std::uint32_t cq = g.component_of()[qa];
  std::uint32_t cp = g.component_of()[pa];
  std::uint32_t cr = g.component_of()[ra];
  // q feeds p and r; p feeds r. Every edge goes id-upward.
  EXPECT_EQ(indeg[cq], 0u);
  EXPECT_EQ(indeg[cp], 1u);
  EXPECT_EQ(indeg[cr], 2u);
  std::size_t total_edges = 0;
  for (std::uint32_t c = 0; c < g.num_components(); ++c) {
    for (std::uint32_t k = off[c]; k < off[c + 1]; ++k) {
      EXPECT_GT(succ[k], c);
      ++total_edges;
    }
  }
  EXPECT_EQ(total_edges, 3u);
  EXPECT_EQ(total_edges, indeg[cq] + indeg[cp] + indeg[cr]);
}

/// Sequential-vs-parallel check: models AND per-component iteration
/// trajectories must be bit-identical at every thread count.
void ExpectParallelMatchesSequential(const GroundProgram& gp,
                                     const SccOptions& base) {
  SccWfsResult seq = WellFoundedScc(gp, base);
  ASSERT_EQ(seq.component_iterations.size(), seq.num_components);
  for (int threads : {2, 4, 8}) {
    SccOptions par = base;
    par.num_threads = threads;
    SccWfsResult r = WellFoundedScc(gp, par);
    EXPECT_EQ(r.model, seq.model) << threads << " threads";
    EXPECT_EQ(r.component_iterations, seq.component_iterations)
        << threads << " threads";
    EXPECT_EQ(r.total_local_size, seq.total_local_size)
        << threads << " threads";
    EXPECT_EQ(r.num_components, seq.num_components);
    // Work counters are per-component deterministic, so their sums match
    // the sequential run exactly (peak_scratch_bytes is the exception —
    // it depends on which worker pool solved which component).
    EXPECT_EQ(r.eval.sp_calls, seq.eval.sp_calls) << threads << " threads";
    EXPECT_EQ(r.eval.rules_rescanned, seq.eval.rules_rescanned)
        << threads << " threads";
    EXPECT_EQ(r.eval.gus_calls, seq.eval.gus_calls) << threads << " threads";
    // The pool is clamped to the component count, so tiny programs may
    // report fewer workers than requested.
    EXPECT_GE(r.sched.num_workers, 1u);
    EXPECT_LE(r.sched.num_workers, static_cast<std::size_t>(threads));
  }
}

TEST(SccEngineParallel, ClusteredWinMoveBothInnerEngines) {
  Program p = workload::WinMove(
      graphs::ClusteredScc(/*clusters=*/8, /*cluster_size=*/10,
                           /*intra_per_cluster=*/16, /*inter_edges=*/12,
                           /*seed=*/3));
  GroundProgram gp = MustGround(p);
  SccOptions afp_inner;
  ExpectParallelMatchesSequential(gp, afp_inner);
  SccOptions wp_inner;
  wp_inner.inner = SccInnerEngine::kWp;
  ExpectParallelMatchesSequential(gp, wp_inner);
}

TEST(SccEngineParallel, RandomProgramsAndGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Program p = workload::RandomPropositional(30, 60, 3, 50, seed);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    ExpectParallelMatchesSequential(gp, SccOptions{});
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Program p = workload::WinMove(graphs::ErdosRenyi(60, 140, seed));
    GroundProgram gp = MustGround(p);
    ExpectParallelMatchesSequential(gp, SccOptions{});
  }
}

TEST(SccEngineParallel, EdgeCasePrograms) {
  // Empty program: zero components, zero atoms, at every thread count.
  Program empty;
  GroundProgram gp0 = MustGround(empty);
  for (int t : {1, 2, 4}) {
    SccOptions o;
    o.num_threads = t;
    SccWfsResult r = WellFoundedScc(gp0, o);
    EXPECT_EQ(r.num_components, 0u);
    EXPECT_TRUE(r.model.true_atoms().None());
  }
  // Single-atom program.
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p1 = std::move(parsed).value();
  GroundProgram gp1 = MustGround(p1, GroundMode::kFull);
  ExpectParallelMatchesSequential(gp1, SccOptions{});
}

TEST(SccEngineParallel, RegistryStaysWarmAcrossRuns) {
  Program p = workload::WinMove(graphs::ClusteredScc(6, 8, 12, 8, 7));
  GroundProgram gp = MustGround(p);
  SccWfsResult seq = WellFoundedScc(gp);
  EvalContextRegistry registry;
  SccOptions par;
  par.num_threads = 4;
  par.registry = &registry;
  for (int run = 0; run < 3; ++run) {
    SccWfsResult r = WellFoundedScc(gp, par);
    EXPECT_EQ(r.model, seq.model) << "run " << run;
    EXPECT_EQ(r.component_iterations, seq.component_iterations)
        << "run " << run;
  }
  EXPECT_EQ(registry.size(), 4u);
  // The registry did real work and its counters aggregated it.
  EXPECT_GT(registry.AggregateStats().sp_calls, 0u);
}

/// Mirrors Solver::UpdateFactsById's sorted-bucket surgery so the direct
/// SccResolveDownstream tests below can toggle EDB facts.
void ToggleFactAndPatchBuckets(
    GroundProgram& gp, const AtomDependencyGraph& graph,
    std::vector<std::vector<std::uint32_t>>& buckets, AtomId id) {
  const auto& comp_of = graph.component_of();
  if (!gp.HasFact(id)) {
    ASSERT_TRUE(gp.AddFact(id));
    buckets[comp_of[id]].push_back(
        static_cast<std::uint32_t>(gp.num_rules() - 1));
    return;
  }
  GroundProgram::FactRemoval rem = gp.RemoveFact(id);
  ASSERT_TRUE(rem.removed);
  std::vector<std::uint32_t>& bucket = buckets[comp_of[id]];
  bucket.erase(
      std::lower_bound(bucket.begin(), bucket.end(), rem.erased_rule));
  if (rem.moved_rule != rem.erased_rule) {
    const AtomId moved_head = gp.rule(rem.erased_rule).head;
    std::vector<std::uint32_t>& mb = buckets[comp_of[moved_head]];
    auto old_it = std::lower_bound(mb.begin(), mb.end(), rem.moved_rule);
    auto new_it = std::lower_bound(mb.begin(), old_it, rem.erased_rule);
    std::rotate(new_it, old_it, old_it + 1);
    *new_it = rem.erased_rule;
  }
}

/// One scratch object shared across a long toggle sequence must leave the
/// repaired model — and trajectory — bit-identical to (a) the same repair
/// with call-local scratch and (b) a from-scratch solve, on both the
/// sequential and the parallel path. This pins the epoch-stamp rewrite of
/// SccResolveDownstream's per-update bookkeeping.
TEST(SccEngine, UpdateScratchSharedAcrossUpdatesBitIdentical) {
  struct Rng {
    std::uint64_t state;
    std::uint64_t Next() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    }
    std::size_t Below(std::size_t n) { return Next() % n; }
  };
  for (int threads : {1, 3}) {
    Program p = workload::RandomPropositional(30, 60, 3, 50, 7);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    AtomDependencyGraph graph(gp.View());
    auto buckets = ComponentRuleBuckets(gp.View(), graph);
    EvalContext ctx;
    SccOptions opts;
    opts.num_threads = threads;
    SccWfsResult base =
        WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
    PartialModel with_scratch = base.model;
    PartialModel call_local = base.model;
    std::vector<std::uint32_t> iters_shared = base.component_iterations;
    std::vector<std::uint32_t> iters_local = base.component_iterations;
    SccUpdateScratch scratch;
    Rng rng{0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(threads)};
    for (int step = 0; step < 24; ++step) {
      const AtomId id = static_cast<AtomId>(rng.Below(gp.num_atoms()));
      ToggleFactAndPatchBuckets(gp, graph, buckets, id);
      if (HasFatalFailure()) return;
      const AtomId touched[] = {id};
      SccResolveDownstream(ctx, gp.View(), graph, buckets, opts, touched,
                           &with_scratch, &iters_shared, &scratch);
      SccResolveDownstream(ctx, gp.View(), graph, buckets, opts, touched,
                           &call_local, &iters_local, nullptr);
      EXPECT_EQ(with_scratch, call_local)
          << "threads " << threads << " step " << step;
      EXPECT_EQ(iters_shared, iters_local)
          << "threads " << threads << " step " << step;
      SccWfsResult fresh =
          WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
      EXPECT_EQ(with_scratch, fresh.model)
          << "threads " << threads << " step " << step;
      EXPECT_EQ(iters_shared, fresh.component_iterations)
          << "threads " << threads << " step " << step;
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SccEngineParallel, SchedulerStatsExposeWideAntichain) {
  // k independent clusters, no inter-cluster edges: the wins components
  // form a pure antichain of width >= k.
  Program p = workload::WinMove(graphs::ClusteredScc(10, 6, 10, 0, 1));
  GroundProgram gp = MustGround(p);
  SccOptions par;
  par.num_threads = 4;
  SccWfsResult r = WellFoundedScc(gp, par);
  EXPECT_EQ(r.model, WellFoundedScc(gp).model);
  EXPECT_GE(r.sched.MaxWavefrontWidth(), 10u);
  std::size_t total = 0;
  for (std::uint32_t w : r.sched.wavefront_widths) total += w;
  EXPECT_EQ(total, r.num_components);
}

}  // namespace
}  // namespace afp
