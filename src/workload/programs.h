#ifndef AFP_WORKLOAD_PROGRAMS_H_
#define AFP_WORKLOAD_PROGRAMS_H_

#include <cstdint>
#include <string>

#include "ast/program.h"
#include "workload/graphs.h"

namespace afp {
namespace workload {

/// Names node i "a", "b", ... for i < 26, else "n<i>". Matches the paper's
/// node naming on the small examples.
std::string NodeName(int i);

/// `prefix` followed by the decimal `i`, e.g. IndexedName("p", 3) == "p3".
/// Built by appending: g++ 12 at -O3 reports a -Wrestrict false positive
/// inside libstdc++ for `"p" + std::to_string(i)`.
std::string IndexedName(const char* prefix, int i);

/// The win–move program of Example 5.2 over the given move graph:
///   wins(X) :- move(X,Y), not wins(Y).
/// plus move facts. Unstratified whenever the graph has a cycle.
Program WinMove(const Digraph& g);

/// Transitive closure and its complement (Example 2.2):
///   tc(X,Y) :- e(X,Y).
///   tc(X,Y) :- e(X,Z), tc(Z,Y).
///   ntc(X,Y) :- node(X), node(Y), not tc(X,Y).
/// plus e facts and node facts (the guard makes ntc range-restricted).
/// Stratified: ntc sits above tc.
Program TransitiveClosureComplement(const Digraph& g);

/// The fixed program of Example 5.1 over H = p{a..i}; Table I traces its
/// alternating fixpoint. p{d,e,f} become false, p{a,b} stay undefined and
/// the AFP partial model is {p(c), p(i), ¬p(d), ¬p(e), ¬p(f), ¬p(g),
/// ¬p(h)}.
Program Example51();

/// The two-rule program from Example 3.1 (p is true in all total models but
/// every rule is undefined in {¬p}):
///   p :- q.  p :- r.  q :- not r.  r :- not q.
Program Example31();

/// k independent even negative cycles:
///   a_i :- not b_i.   b_i :- not a_i.      (i = 1..k)
/// The well-founded model leaves everything undefined; there are exactly
/// 2^k stable models. The workload behind bench_stable_np.
Program EvenNegativeCycles(int k);

/// EvenNegativeCycles(k) with a stratified negation chain of length
/// `chain_len` attached to every cluster:
///   a_i :- not b_i.   b_i :- not a_i.
///   c_i_0.   c_i_j :- not c_i_{j-1}.        (j = 1..chain_len-1)
/// Still exactly 2^k stable models (the chains are deterministic), but
/// every node of the stable-model branch tree pays a propagation over
/// k * chain_len extra rules — the workload behind bench_search, where
/// per-node alternating-fixpoint cost is what the parallel branch-tree
/// engine amortizes across workers.
Program EvenCycleClusters(int k, int chain_len);

/// A random propositional normal program: `num_atoms` atoms p0..p_{n-1},
/// `num_rules` rules with bodies of length `body_len`, each literal negated
/// with probability `neg_prob` (in percent). Used by the property tests and
/// bench_afp_vs_wfs.
Program RandomPropositional(int num_atoms, int num_rules, int body_len,
                            int neg_prob_percent, std::uint64_t seed);

/// A random stratified (non-recursive-through-negation) propositional
/// program: atoms are layered; rule bodies draw positive literals from any
/// lower-or-equal layer and negative literals from strictly lower layers.
Program RandomStratified(int num_atoms, int num_rules, int body_len,
                         int num_layers, std::uint64_t seed);

/// A random non-ground Datalog program with negation: unary/binary
/// predicates over `num_consts` constants, `num_facts` random facts,
/// `num_rules` safe rules of 1–3 body literals (negative literals only
/// over variables bound by a positive literal; head variables likewise).
/// Used for differential testing of the grounder (smart vs full modes must
/// give the same well-founded verdicts).
Program RandomDatalog(int num_consts, int num_facts, int num_rules,
                      std::uint64_t seed);

}  // namespace workload
}  // namespace afp

#endif  // AFP_WORKLOAD_PROGRAMS_H_
