// The parallel stable-model search (src/search/): bit-identical
// enumeration — model set AND emission order — at every thread count,
// differential against the sequential search and the brute-force
// enumerator, prefix-exact max_models / cancellation / timeout, and the
// Solver integration (well-founded seeding, cached-engine invalidation
// on session mutation). The suite names match the TSan CI lane regex
// ('(Scheduler|Parallel|Serving)'), so every differential here also runs
// under ThreadSanitizer.

#include "search/stable_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "afp/solver.h"
#include "ast/program.h"
#include "ground/grounder.h"
#include "stable/backtracking.h"
#include "stable/enumerate.h"
#include "workload/graphs.h"
#include "workload/programs.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

GroundProgram MustGround(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::vector<std::string> CorpusTexts() {
  std::vector<std::string> texts;
  for (const auto& entry :
       std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (entry.path().extension() != ".lp") continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  return texts;
}

// Canonicalizes a model list as sorted atom-name sets — the only valid
// comparison across two solvers whose atom universes (sizes and id
// assignment) differ, e.g. a mutated session vs a fresh one.
std::vector<std::vector<std::string>> NamedModels(
    const GroundProgram& gp, const std::vector<Bitset>& models) {
  std::vector<std::vector<std::string>> out;
  for (const Bitset& m : models) {
    std::vector<std::string> names;
    m.ForEach([&](std::size_t a) {
      names.push_back(gp.AtomName(static_cast<AtomId>(a)));
    });
    std::sort(names.begin(), names.end());
    out.push_back(std::move(names));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Canonicalizes a model list for set comparison (order-insensitive).
std::vector<Bitset> Sorted(std::vector<Bitset> models) {
  std::sort(models.begin(), models.end(), [](const Bitset& a, const Bitset& b) {
    for (std::size_t i = 0; i < a.universe_size(); ++i) {
      if (a.Test(i) != b.Test(i)) return b.Test(i);
    }
    return false;
  });
  return models;
}

// The core differential: the parallel engine must reproduce the
// sequential search's model list EXACTLY (set and order) at every thread
// count, and — on full enumerations — grow the identical branch tree.
void ExpectMatchesSequential(const GroundProgram& gp, bool wfs_propagation) {
  StableSearchOptions seq_opts;
  seq_opts.wfs_propagation = wfs_propagation;
  StableModelSearch seq(gp, seq_opts);
  const std::vector<Bitset> expected = seq.Enumerate();

  for (int threads : kThreadCounts) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    po.wfs_propagation = wfs_propagation;
    ParallelStableSearch par(gp, po);
    ParallelSearchResult r = par.Enumerate();
    ASSERT_EQ(r.models.size(), expected.size())
        << "threads=" << threads << " wfs=" << wfs_propagation;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.models[i], expected[i])
          << "model " << i << " threads=" << threads;
    }
    // Same propagation + same canonical branch atom => the same tree,
    // regardless of how it was carved up across workers.
    EXPECT_EQ(r.search.nodes, seq.stats().nodes) << "threads=" << threads;
    EXPECT_EQ(r.search.leaves, seq.stats().leaves) << "threads=" << threads;
    EXPECT_EQ(r.search.implied_atoms, seq.stats().implied_atoms)
        << "threads=" << threads;
    EXPECT_TRUE(r.search.complete);
    EXPECT_EQ(r.search.num_workers, static_cast<std::size_t>(threads));
    // One pool unit per claimed subtree: a lone worker never splits, more
    // split the root's assume-true child off as soon as the root branches.
    const std::size_t units = r.search.nodes - r.search.inline_nodes;
    if (threads == 1) {
      EXPECT_EQ(units, 1u);
    } else if (r.search.nodes > 1) {
      EXPECT_GE(units, 2u) << "threads=" << threads;
    }
  }
}

TEST(ParallelSearch, MatchesSequentialOnCorpus) {
  std::size_t covered = 0;
  for (const std::string& text : CorpusTexts()) {
    auto parsed = ParseProgram(text);
    if (!parsed.ok()) continue;  // mutation-script fixtures etc.
    Program p = std::move(parsed).value();
    GroundOptions opts;
    opts.mode = GroundMode::kFull;
    auto g = Grounder::Ground(p, opts);
    if (!g.ok()) continue;
    GroundProgram gp = std::move(g).value();
    if (gp.num_atoms() > 128) continue;  // keep enumeration cheap
    ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
    ++covered;
  }
  EXPECT_GE(covered, 5u) << "corpus coverage collapsed";
}

TEST(ParallelSearch, MatchesSequentialOnRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
    ExpectMatchesSequential(gp, /*wfs_propagation=*/false);
  }
}

// Larger random programs: deeper trees, so most nodes are seeded from a
// parent that itself was seeded, and the chain of inherited false sets is
// checked against the unseeded sequential oracle node for node.
TEST(ParallelSearch, MatchesSequentialOnLargerRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 17; ++seed) {
    const int atoms = 24 + static_cast<int>(seed);  // 24..40
    Program p = workload::RandomPropositional(
        atoms, /*num_rules=*/atoms * 3 / 2, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
  }
}

// The masked evaluation has a from-scratch and a naive path besides the
// delta one; every mode must grow the oracle's tree.
TEST(ParallelSearch, MatchesSequentialInEveryEvaluationMode) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/20, /*num_rules=*/30, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    for (const bool wfs : {true, false}) {
      StableSearchOptions seq_opts;
      seq_opts.wfs_propagation = wfs;
      StableModelSearch seq(gp, seq_opts);
      const std::vector<Bitset> expected = seq.Enumerate();
      for (const auto& [sp_mode, horn_mode] :
           {std::pair{SpMode::kScratch, HornMode::kCounting},
            std::pair{SpMode::kDelta, HornMode::kNaive}}) {
        for (int threads : {1, 4}) {
          ParallelSearchOptions po;
          po.num_threads = threads;
          po.wfs_propagation = wfs;
          po.sp_mode = sp_mode;
          po.horn_mode = horn_mode;
          ParallelStableSearch par(gp, po);
          ParallelSearchResult r = par.Enumerate();
          EXPECT_EQ(r.models, expected)
              << "seed " << seed << " wfs=" << wfs << " threads=" << threads;
          EXPECT_EQ(r.search.nodes, seq.stats().nodes) << "seed " << seed;
        }
      }
    }
  }
}

TEST(ParallelSearch, MatchesSequentialOnCycleClusters) {
  Program p = workload::EvenCycleClusters(/*k=*/5, /*chain_len=*/6);
  GroundProgram gp = MustGround(p);
  ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
}

TEST(ParallelSearch, MatchesBruteForce) {
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    auto brute = EnumerateStableModelsBruteForce(gp);
    ASSERT_TRUE(brute.ok());
    ParallelSearchOptions po;
    po.num_threads = 4;
    ParallelStableSearch par(gp, po);
    // Brute force emits in subset-mask order, not search order: compare
    // as sets.
    EXPECT_EQ(Sorted(*brute), Sorted(par.Enumerate().models))
        << "seed " << seed;
  }
}

TEST(ParallelSearch, NoModelsOnOddLoop) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  for (int threads : kThreadCounts) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    ParallelSearchResult r = par.Enumerate();
    EXPECT_TRUE(r.models.empty());
    EXPECT_TRUE(r.search.complete);
  }
}

TEST(ParallelSearch, MaxModelsIsPrefixExact) {
  Program p = workload::EvenNegativeCycles(6);
  GroundProgram gp = MustGround(p);
  StableModelSearch seq(gp);
  const std::vector<Bitset> all = seq.Enumerate();
  ASSERT_EQ(all.size(), 64u);

  for (int threads : {1, 4, 8}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{64}}) {
      ParallelSearchOptions po;
      po.num_threads = threads;
      ParallelStableSearch par(gp, po);
      StableSearchControl control;
      control.max_models = k;
      ParallelSearchResult r = par.Enumerate(control);
      ASSERT_EQ(r.models.size(), k) << "threads=" << threads;
      // Not just any k models: the FIRST k of the canonical order.
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(r.models[i], all[i]) << "threads=" << threads << " i=" << i;
      }
      EXPECT_TRUE(r.search.complete);
      EXPECT_EQ(r.search.models, k);
    }
  }
}

// The same contract where the cut falls inside inline subtrees: 1024
// models over a depth-10 tree, which one worker searches as a single
// inline subtree and 2/4/8 workers split on demand, so every k below ends
// inside a subtree expanded inline, at 2+ workers in any of the segments
// the splits link into the canonical order.
TEST(ParallelSearch, MaxModelsIsPrefixExactInsideInlineSubtrees) {
  Program p = workload::EvenCycleClusters(/*k=*/10, /*chain_len=*/2);
  GroundProgram gp = MustGround(p);
  StableModelSearch seq(gp);
  const std::vector<Bitset> all = seq.Enumerate();
  ASSERT_EQ(all.size(), 1024u);

  for (int threads : kThreadCounts) {
    for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{100},
                          std::size_t{1000}, std::size_t{1023}}) {
      ParallelSearchOptions po;
      po.num_threads = threads;
      ParallelStableSearch par(gp, po);
      StableSearchControl control;
      control.max_models = k;
      ParallelSearchResult r = par.Enumerate(control);
      ASSERT_EQ(r.models.size(), k) << "threads=" << threads;
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(r.models[i], all[i]) << "threads=" << threads << " i=" << i;
      }
      EXPECT_TRUE(r.search.complete);
      EXPECT_GT(r.search.inline_nodes, 0u) << "threads=" << threads;
      ParallelSearchResult counted = par.Count(control);
      EXPECT_EQ(counted.search.models, k) << "threads=" << threads;
    }
  }
}

// A run stopped by `stop` on a tree far too large to finish (2^20 leaves)
// returns a strict prefix of the canonical order, marked incomplete, at
// every thread count. The cut lands inside inline subtrees — the whole
// tree is one for a single worker, which must still emit the models its
// subtree found before the cut — and, at 2+ workers, inside split-off
// ones whose segments are still open.
template <typename StopFn>
void ExpectStoppedRunIsPrefix(StopFn stop) {
  Program p = workload::EvenCycleClusters(/*k=*/20, /*chain_len=*/2);
  GroundProgram gp = MustGround(p);
  for (int threads : kThreadCounts) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    ParallelSearchResult r = stop(par);
    EXPECT_FALSE(r.search.complete) << "threads=" << threads;
    EXPECT_LT(r.models.size(), std::size_t{1} << 20);
    EXPECT_GT(r.search.inline_nodes, 0u) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_GT(r.models.size(), 0u);
    }
    if (r.models.empty()) continue;
    // The reference prefix: prefix-exact max_models, pinned above.
    ParallelStableSearch ref(gp);
    StableSearchControl control;
    control.max_models = r.models.size();
    const std::vector<Bitset> expected = ref.Enumerate(control).models;
    ASSERT_EQ(expected.size(), r.models.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(r.models[i], expected[i])
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelSearch, TimeoutInsideInlineSubtreesGivesPrefix) {
  ExpectStoppedRunIsPrefix([](ParallelStableSearch& par) {
    StableSearchControl control;
    control.timeout = std::chrono::milliseconds(20);
    return par.Enumerate(control);
  });
}

TEST(ParallelSearch, CancelInsideInlineSubtreesGivesPrefix) {
  ExpectStoppedRunIsPrefix([](ParallelStableSearch& par) {
    std::atomic<bool> cancel{false};
    std::thread canceller([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cancel.store(true, std::memory_order_relaxed);
    });
    StableSearchControl control;
    control.cancel = &cancel;
    ParallelSearchResult r = par.Enumerate(control);
    canceller.join();
    return r;
  });
}

TEST(ParallelSearch, PreCancelledTokenStopsImmediately) {
  Program p = workload::EvenNegativeCycles(8);
  GroundProgram gp = MustGround(p);
  std::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    StableSearchControl control;
    control.cancel = &cancel;
    ParallelSearchResult r = par.Enumerate(control);
    EXPECT_TRUE(r.models.empty());
    EXPECT_FALSE(r.search.complete);
  }
}

TEST(ParallelSearch, ExpiredTimeoutGivesEmptyPrefixAndIncomplete) {
  Program p = workload::EvenNegativeCycles(8);
  GroundProgram gp = MustGround(p);
  for (int threads : {1, 4}) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    StableSearchControl control;
    control.timeout = std::chrono::nanoseconds(1);
    ParallelSearchResult r = par.Enumerate(control);
    EXPECT_TRUE(r.models.empty());
    EXPECT_FALSE(r.search.complete);
  }
}

TEST(ParallelSearch, CountMatchesEnumerate) {
  Program p = workload::EvenCycleClusters(/*k=*/6, /*chain_len=*/4);
  GroundProgram gp = MustGround(p);
  for (int threads : kThreadCounts) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    ParallelSearchResult counted = par.Count();
    EXPECT_TRUE(counted.models.empty());
    EXPECT_EQ(counted.search.models, 64u) << "threads=" << threads;
    ParallelSearchResult enumerated = par.Enumerate();  // engine is reusable
    EXPECT_EQ(enumerated.models.size(), 64u) << "threads=" << threads;
    EXPECT_EQ(enumerated.search.nodes, counted.search.nodes);
  }
}

TEST(ParallelSearch, SeededRootMatchesUnseededAndSkipsOneFixpoint) {
  Program p = workload::EvenCycleClusters(/*k=*/4, /*chain_len=*/5);
  GroundProgram gp = MustGround(p);
  AfpResult wfs = AlternatingFixpoint(gp);

  ParallelSearchOptions po;
  po.num_threads = 4;
  ParallelStableSearch unseeded(gp, po);
  ParallelSearchResult base = unseeded.Enumerate();
  ASSERT_FALSE(base.search.seeded);

  ParallelStableSearch seeded(gp, po);
  seeded.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
  ParallelSearchResult r = seeded.Enumerate();
  EXPECT_TRUE(r.search.seeded);
  ASSERT_EQ(r.models.size(), base.models.size());
  for (std::size_t i = 0; i < r.models.size(); ++i) {
    EXPECT_EQ(r.models[i], base.models[i]) << "model " << i;
  }
  // Same tree, one fewer alternating fixpoint (the root's).
  EXPECT_EQ(r.search.nodes, base.search.nodes);
  EXPECT_EQ(r.search.afp_calls + 1, base.search.afp_calls);
}

// Receipt for per-node seeding: each non-root node starts from its
// parent's negative conclusions, so it only derives what its one new
// assumption adds. The clusters' alternating chains are decided at the
// root and never re-derived below it: S_P work per node is independent of
// the chain length and at most 4 (leaf stability checks included). An
// engine that restarts every node from Ĩ_0 = ∅ pays about one S_P call
// per chain link instead.
TEST(ParallelSearch, SeededNodesDoNotRederiveTheirParentsConclusions) {
  std::vector<std::size_t> sp_calls;
  for (int chain_len : {6, 24}) {
    Program p = workload::EvenCycleClusters(/*k=*/5, chain_len);
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    for (int threads : {1, 4}) {
      ParallelSearchOptions po;
      po.num_threads = threads;
      ParallelStableSearch par(gp, po);
      par.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
      ParallelSearchResult r = par.Enumerate();
      ASSERT_EQ(r.models.size(), 32u);
      // Every node but the seeded root ran one fixpoint.
      ASSERT_EQ(r.search.afp_calls + 1, r.search.nodes);
      EXPECT_LE(r.eval.sp_calls, 4 * r.search.afp_calls)
          << "chain_len=" << chain_len << " threads=" << threads;
      sp_calls.push_back(r.eval.sp_calls);
    }
  }
  for (std::size_t calls : sp_calls) {
    EXPECT_EQ(calls, sp_calls.front()) << "S_P work grew with chain length";
  }
}

// Receipt for residual nodes: a node's S_P calls run over the rules its
// parent's model leaves open — the clusters' chains are decided at the
// root, so at most the 10 cycle rules of EvenCycleClusters(5, 24), out of
// |P| = 130 — and its enablement rescans are bounded by that residual: one
// prime per evaluator over it, plus one delta touch per flipped atom (each
// atom here occurs negatively in at most one rule), plus each worker's
// one prime of the leaf checks' mask. An engine that conditions a copy of
// the program pays at least two full primes, 2·|P|, per node.
TEST(ParallelSearch, NodesRescanOnlyTheirResidual) {
  Program p = workload::EvenCycleClusters(/*k=*/5, /*chain_len=*/24);
  GroundProgram gp = MustGround(p);
  AfpResult wfs = AlternatingFixpoint(gp);
  for (int threads : kThreadCounts) {
    ParallelSearchOptions po;
    po.num_threads = threads;
    ParallelStableSearch par(gp, po);
    par.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
    ParallelSearchResult r = par.Enumerate();
    ASSERT_EQ(r.models.size(), 32u);
    const std::size_t nodes = r.search.nodes;
    EXPECT_LE(r.search.residual_rules, 10 * r.search.afp_calls)
        << "threads=" << threads;
    EXPECT_LE(r.eval.rules_rescanned,
              2 * r.search.residual_rules + r.eval.delta_atoms +
                  static_cast<std::size_t>(threads) * 10)
        << "threads=" << threads;
    EXPECT_LT(r.eval.rules_rescanned, nodes * gp.num_rules() / 4)
        << "threads=" << threads;
  }
}

// A warm engine's repeated runs must return every pooled buffer they draw
// and pool nothing they did not draw, so the pools of a cached engine stop
// growing after its first run. Worker 0 is the calling thread, which
// always expands the root item and so walks the leftmost path to a leaf in
// the first run: its frame stack is complete from then on, and its pooled
// bytes and scratch high-water mark must not move on later runs, however
// the other workers share the subtrees. (Count runs: Enumerate hands each
// model's bitset to the caller, so the pool refills by allocation.)
TEST(ParallelSearch, RepeatedRunsKeepThePoolsFlat) {
  Program p = workload::EvenCycleClusters(/*k=*/5, /*chain_len=*/24);
  GroundProgram gp = MustGround(p);
  EvalContextRegistry registry;
  ParallelSearchOptions po;
  po.num_threads = 4;
  po.registry = &registry;
  ParallelStableSearch par(gp, po);
  ASSERT_EQ(par.Count().search.models, 32u);
  const EvalContext& ctx0 = registry.ForWorker(0);
  const std::size_t bytes = ctx0.pooled_bytes();
  const std::size_t peak = ctx0.stats().peak_scratch_bytes;
  EXPECT_GT(bytes, 0u);
  for (int run = 0; run < 5; ++run) {
    ASSERT_EQ(par.Count().search.models, 32u);
    EXPECT_EQ(ctx0.pooled_bytes(), bytes) << "run " << run;
    EXPECT_EQ(ctx0.stats().peak_scratch_bytes, peak) << "run " << run;
  }
}

// --- Solver integration -------------------------------------------------

Solver MustCreate(Program program, const SolverOptions& options = {}) {
  auto s = Solver::FromProgram(std::move(program), options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

TEST(ParallelSearchSolver, SolvedSessionSeedsTheRoot) {
  SolverOptions o;
  o.search_threads = 4;
  Solver cold = MustCreate(workload::EvenNegativeCycles(5), o);
  StableResult cold_r = cold.StableModels();
  EXPECT_FALSE(cold_r.search.seeded);  // nothing solved yet

  Solver warm = MustCreate(workload::EvenNegativeCycles(5), o);
  warm.Solve();
  StableResult warm_r = warm.StableModels();
  EXPECT_TRUE(warm_r.search.seeded);
  ASSERT_EQ(warm_r.models.size(), cold_r.models.size());
  for (std::size_t i = 0; i < warm_r.models.size(); ++i) {
    EXPECT_EQ(warm_r.models[i], cold_r.models[i]) << "model " << i;
  }
  EXPECT_EQ(warm_r.search.afp_calls + 1, cold_r.search.afp_calls);
  // The receipt is surfaced through the session stats (CLI --stats).
  EXPECT_EQ(warm.Stats().search.models, warm_r.models.size());
  EXPECT_EQ(warm.Stats().search.num_workers, 4u);

  SolverOptions ablation = o;
  ablation.seed_search = false;  // pinned re-solve-from-scratch baseline
  Solver unseeded = MustCreate(workload::EvenNegativeCycles(5), ablation);
  unseeded.Solve();
  StableResult ab_r = unseeded.StableModels();
  EXPECT_FALSE(ab_r.search.seeded);
  EXPECT_EQ(ab_r.search.afp_calls, cold_r.search.afp_calls);
  ASSERT_EQ(ab_r.models.size(), warm_r.models.size());
  for (std::size_t i = 0; i < ab_r.models.size(); ++i) {
    EXPECT_EQ(ab_r.models[i], warm_r.models[i]) << "model " << i;
  }
}

TEST(ParallelSearchSolver, ThreadCountsAgreeThroughTheFacade) {
  std::vector<Bitset> expected;
  for (int threads : kThreadCounts) {
    SolverOptions o;
    o.search_threads = threads;
    Solver solver = MustCreate(workload::EvenCycleClusters(4, 4), o);
    solver.Solve();
    StableResult r = solver.StableModels();
    EXPECT_EQ(r.search.num_workers, static_cast<std::size_t>(threads));
    if (expected.empty()) {
      expected = std::move(r.models);
      continue;
    }
    ASSERT_EQ(r.models.size(), expected.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.models[i], expected[i])
          << "threads=" << threads << " model " << i;
    }
  }
}

// Regression pair: StableModels on a session mutated after a previous
// StableModels call must not reuse the stale cached search state — the
// cached engine's solvers and indexes reference the pre-mutation rule
// storage. Differential oracle: a fresh solver built over the mutated
// program.

TEST(ParallelSearchSolver, FactMutationInvalidatesCachedSearch) {
  const std::string_view text = "e. p :- e, not q. a :- not b. b :- not a.";
  SolverOptions o;
  o.search_threads = 2;
  auto solver = Solver::FromText(text, o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  StableResult before = solver->StableModels();
  EXPECT_EQ(before.models.size(), 2u);  // {e,p,a}, {e,p,b}

  ASSERT_TRUE(solver->RetractFacts({"e"}).ok());
  StableResult after = solver->StableModels();

  auto fresh = Solver::FromText("p :- e, not q. a :- not b. b :- not a.", o);
  ASSERT_TRUE(fresh.ok());
  StableResult oracle = fresh->StableModels();
  EXPECT_EQ(NamedModels(solver->ground(), after.models),
            NamedModels(fresh->ground(), oracle.models));

  // And back: re-asserting restores the original answer through yet
  // another engine rebuild.
  ASSERT_TRUE(solver->AssertFacts({"e"}).ok());
  StableResult restored = solver->StableModels();
  ASSERT_EQ(restored.models.size(), before.models.size());
  for (std::size_t i = 0; i < before.models.size(); ++i) {
    EXPECT_EQ(restored.models[i], before.models[i]) << "model " << i;
  }
}

TEST(ParallelSearchSolver, RuleMutationInvalidatesCachedSearch) {
  SolverOptions o;
  o.search_threads = 2;
  o.ground.simplify = false;  // rule mutations require unsimplified grounding
  auto solver = Solver::FromText("a :- not b. b :- not a.", o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_EQ(solver->StableModels().models.size(), 2u);

  ASSERT_TRUE(solver->AddRule("c :- not a.").ok());
  StableResult after = solver->StableModels();

  auto fresh =
      Solver::FromText("a :- not b. b :- not a. c :- not a.", o);
  ASSERT_TRUE(fresh.ok());
  StableResult oracle = fresh->StableModels();
  EXPECT_EQ(NamedModels(solver->ground(), after.models),
            NamedModels(fresh->ground(), oracle.models));
}

}  // namespace
}  // namespace afp
