#ifndef AFP_GROUND_GROUNDER_H_
#define AFP_GROUND_GROUNDER_H_

#include <cstddef>
#include <cstdint>

#include "ast/program.h"
#include "ground/ground_program.h"
#include "util/status.h"

namespace afp {

/// Instantiation strategy.
enum class GroundMode {
  /// Instantiate rules bottom-up against the least model of the program's
  /// positive projection (negative literals ignored). This is the standard
  /// "relevant" grounding: every rule instance whose positive body could
  /// ever be satisfied is produced, and nothing else. Terminates iff that
  /// least model is finite (always, for function-free programs).
  kSmart,
  /// Enumerate every assignment of rule variables to the program's active
  /// domain of constants (the full Herbrand instantiation P_H for
  /// function-free programs). Exponential in rule arity; intended for the
  /// small examples where trace fidelity to the paper matters.
  kFull,
};

/// Options controlling grounding.
struct GroundOptions {
  GroundMode mode = GroundMode::kSmart;
  /// Use delta-driven (semi-naive) instantiation; when false, every round
  /// re-derives all instances (the ablation baseline for bench_grounding).
  bool semi_naive = true;
  /// Drop negative body literals whose atom can never be derived (they are
  /// certainly true), and omit such atoms from the ground program's base.
  /// This preserves the well-founded and stable semantics of the reachable
  /// atoms; disable it to reproduce the paper's traces, which mention
  /// underivable atoms explicitly. Ignored in kFull mode (no dropping).
  bool simplify = true;
  /// Guards against non-terminating instantiation (infinite Herbrand
  /// universes reachable through function symbols). max_rules counts the
  /// instances emitted before the final structural dedupe, so an instance
  /// produced by two different rules counts twice. Naive kSmart grounding
  /// drops repeated instances at emission and counts each once.
  std::size_t max_atoms = 5'000'000;
  std::size_t max_rules = 20'000'000;
};

/// Computes the (relevant) Herbrand instantiation of `program`.
///
/// `program` is taken by mutable reference because instantiation creates new
/// ground terms in its term table; no rules or symbols are modified. The
/// returned GroundProgram borrows `program` and must not outlive it.
///
/// When `candidates_visited` is non-null it receives the join's work
/// counter (GroundStats::join_candidates_visited) whether or not grounding
/// succeeds, so a run cut short by max_atoms still reports its cost.
class Grounder {
 public:
  static StatusOr<GroundProgram> Ground(
      Program& program, const GroundOptions& options = {},
      std::uint64_t* candidates_visited = nullptr);
};

}  // namespace afp

#endif  // AFP_GROUND_GROUNDER_H_
