#ifndef AFP_GROUND_INCREMENTAL_GROUNDER_H_
#define AFP_GROUND_INCREMENTAL_GROUNDER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "ground/ground_match.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "util/status.h"

namespace afp {

/// Persistent delta-grounder for a live Solver session: maintains the sealed
/// GroundProgram as rules are added to / removed from the source program,
/// re-instantiating only what a mutation can reach instead of re-running the
/// batch grounder wholesale.
///
/// Invariants (established lazily at Init, maintained by every mutation):
///
///   * `derived` is the monotone set of atoms that have ever been derivable
///     in this session — initial grounding heads, heads of facts retracted
///     before Init (they supported instances that still exist), and every
///     head derived by a session mutation since. It never shrinks: removing
///     a rule leaves its former derivations in the universe as
///     (semantically false) dead atoms, exactly like RetractFacts does.
///   * For every live source rule r, every instance of r whose positive
///     body lies inside `derived` is present in the ground program; the
///     per-signature `count` records how many live source rules emit that
///     instance. A rule removal decrements counts along r's re-enumerated
///     instances and physically removes a ground rule only when its count
///     reaches zero — duplicate instances shared across source rules
///     survive the removal of one of them.
///   * Fact rules (empty body) never collide with rule instances: the
///     session requires simplify=false grounding, under which a non-fact
///     source rule instantiates with its body length intact, so rule
///     signatures always have non-empty bodies. EDB facts stay entirely the
///     Solver's business (AddFact/RemoveFact); this class only tracks the
///     resulting rule-id motion (NoteFactAppended/NoteFactRemoved) and
///     folds newly-derivable asserted atoms into `derived` at the next rule
///     op (SyncNewlyDerived) — the deferred-extension contract documented
///     in docs/API.md.
///
/// The instantiation core (derivation state, round-cursored candidate
/// lists, join order, semi-naive round filters, binding and matching) is
/// the batch grounder's JoinCore (ground/ground_match.h), so both produce
/// the same instances.
class IncrementalGrounder {
 public:
  static constexpr std::uint32_t kNoSourceRule =
      static_cast<std::uint32_t>(-1);

  /// What one mutation did to the ground program, in application order —
  /// the Solver patches its dependency graph, rule buckets and kernel
  /// cache from this (mirroring how UpdateFactsById consumes FactRemoval).
  struct MutationDelta {
    /// Gp rule ids appended by this mutation (ascending), and their head
    /// atoms (parallel vector — the ids alias other rules once a later
    /// removal swap-moves them, the heads never do).
    std::vector<std::uint32_t> added_rules;
    std::vector<AtomId> added_heads;
    struct Removal {
      std::uint32_t erased_rule;
      std::uint32_t moved_rule;
      AtomId head;
      /// Head of the rule swapped into the erased slot, captured at
      /// removal time (reading it later is wrong once further removals
      /// have moved that slot again). kInvalidAtom when nothing moved.
      AtomId moved_head;
      /// The removed rule's body (captured before the erase): the Solver
      /// checks no removed edge head -> body atom was intra-component —
      /// the one case where dropping edges could invalidate the cached
      /// SCC partition — and falls back to a full graph rebuild if so.
      std::vector<AtomId> pos, neg;
    };
    /// Swap-removes applied, in order (ids are as-of each removal).
    std::vector<Removal> removals;
    /// Universe size before/after (growth appends ids; never shrinks).
    std::size_t atoms_before = 0;
    std::size_t atoms_after = 0;
    /// Source rules whose instantiation joins actually ran — the
    /// "rules re-ground" half of the O(touched) delta receipt.
    std::size_t rules_reground = 0;

    void Clear() {
      added_rules.clear();
      added_heads.clear();
      removals.clear();
      atoms_before = atoms_after = 0;
      rules_reground = 0;
    }
  };

  /// Borrows both; they must outlive this object. `opts` supplies the
  /// instantiation guards (max_atoms / max_rules); opts.simplify must be
  /// false (the Solver enforces this before constructing one).
  IncrementalGrounder(Program& program, GroundProgram& gp,
                      const GroundOptions& opts)
      : program_(program), gp_(gp), opts_(opts) {}

  bool initialized() const { return initialized_; }

  /// Candidate atoms this grounder's joins have tried to match (see
  /// GroundStats::join_candidates_visited), errors included.
  std::uint64_t candidates_visited() const {
    return core_.candidates_visited();
  }

  /// Builds the derived set, per-predicate candidate lists and instance
  /// provenance counts from the current ground program; `extra_derived`
  /// re-adds heads whose fact rules were retracted before this call.
  /// Asserted facts on previously underivable atoms are folded in here:
  /// their downstream instances are spliced into the ground program and
  /// reported through `delta`.
  Status Init(std::span<const AtomId> extra_derived, MutationDelta* delta);

  /// Instantiates source rules program.rules()[first..] (all must be
  /// non-fact rules, already validated) over the derived set and cascades
  /// new derivations semi-naively across all live rules.
  Status AddSourceRules(std::size_t first_rule, MutationDelta* delta);

  /// Removes the live source rule at `rule_index`: re-enumerates its
  /// instances over the current derived set, decrements their provenance
  /// counts, and removes count-zero ground rules. The source rule is
  /// tombstoned (Program's rule list is append-only).
  Status RemoveSourceRule(std::size_t rule_index, MutationDelta* delta);

  /// Folds atoms newly made derivable by EDB asserts into the derived set,
  /// cascading instantiation (called at the start of each rule op with the
  /// Solver's queue of asserted atom ids; already-derived ids are ignored).
  Status SyncNewlyDerived(std::span<const AtomId> atoms,
                          MutationDelta* delta);

  /// Finds a live source rule structurally equivalent to `r` (equal up to
  /// a bijective renaming of variables). Returns its rule index.
  std::optional<std::size_t> FindLiveRule(const Rule& r) const;

  bool IsLive(std::size_t rule_index) const {
    return rule_index < alive_.size() && alive_[rule_index];
  }
  std::size_t num_live_rules() const { return num_live_; }

  /// Keeps the gp-rule-id -> provenance index aligned with the Solver's
  /// EDB fact mutations (which append / swap-remove gp rules).
  void NoteFactAppended() {
    if (initialized_) rule_sigs_.push_back(nullptr);
  }
  void NoteFactRemoved(std::uint32_t erased_rule, std::uint32_t moved_rule);

 private:
  StatusOr<AtomId> InternAtom(SymbolId pred, std::span<const TermId> args);
  void MarkDerived(AtomId id, std::uint32_t round);
  /// Syncs alive_/triggers_ with program_.rules() (appends only).
  void RegisterSourceRules();

  /// Semi-naive join of rule `r`'s positive body (JoinCore::Join), with
  /// the `delta_pos`-th positive literal restricted to the previous round's
  /// delta (delta_pos == num_pos means no delta constraint — full join).
  /// `emit_only` suppresses derivation-side effects (rule removal).
  Status Join(const Rule& r, std::size_t delta_pos, std::uint32_t round,
              bool emit_only, MutationDelta* delta);
  Status EmitInstance(const Rule& r, const TermBinding& binding,
                      std::span<const AtomId> matched, bool emit_only,
                      MutationDelta* delta);
  Status BuildSig(const Rule& r, const TermBinding& binding,
                  std::span<const AtomId> matched, GroundRuleSig& sig);

  /// Runs semi-naive cascade rounds until no new atoms are derived; the
  /// first round's delta is core_.derived_log()[delta_begin..].
  Status CascadeFrom(std::size_t delta_begin, MutationDelta* delta);

  Program& program_;
  GroundProgram& gp_;
  GroundOptions opts_;

  bool initialized_ = false;
  /// Tombstone bitmap over program_.rules() (facts are never "live" here).
  std::vector<std::uint8_t> alive_;
  std::size_t num_live_ = 0;
  /// pred -> (source rule index, delta position) trigger index; entries of
  /// tombstoned rules are skipped at use.
  std::unordered_map<SymbolId, std::vector<std::pair<std::uint32_t,
                                                     std::uint32_t>>>
      triggers_;

  /// Derivation state over gp atom ids, candidate lists and the join.
  JoinCore core_;
  std::uint32_t current_round_ = 0;

  /// Instance provenance: signature -> live-source-rule count. The mapped
  /// gp rule id lives in rule_sigs_'s inverse; we store it alongside.
  struct SigEntry {
    std::uint32_t count = 0;
    std::uint32_t gp_rule = 0;
  };
  std::unordered_map<GroundRuleSig, SigEntry, GroundRuleSigHash> sigs_;
  /// gp rule id -> its sigs_ element (nullptr for fact rules). Pointers,
  /// not iterators: rehashing invalidates unordered_map iterators but not
  /// element addresses.
  std::vector<std::pair<const GroundRuleSig, SigEntry>*> rule_sigs_;
};

}  // namespace afp

#endif  // AFP_GROUND_INCREMENTAL_GROUNDER_H_
