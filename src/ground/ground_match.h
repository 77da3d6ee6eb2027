#ifndef AFP_GROUND_GROUND_MATCH_H_
#define AFP_GROUND_GROUND_MATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ast/program.h"
#include "ast/term.h"
#include "ground/atom_table.h"
#include "util/arena.h"
#include "util/span_hash.h"
#include "util/status.h"

namespace afp {

/// The join core shared by the batch grounder (ground/grounder.cc) and the
/// session delta-grounder (ground/incremental_grounder.cc): derivation
/// state, per-predicate candidate lists with round cursors, and the
/// semi-naive left-to-right join of a rule's positive body. Ground
/// instantiation is one-way matching, never full unification — candidate
/// atoms carry no variables.
///
/// Derivation state: every tracked atom has a derived flag; derived atoms
/// are appended, in derivation order, to their predicate's candidate list
/// and to derived_log(). The rounds they are derived in never decrease, so
/// every candidate list is sorted by round.
///
/// Round cursors: each candidate list records where each round's atoms
/// begin. A join position therefore scans only the atoms its round filter
/// admits (a delta position only the previous round's), never the whole
/// list: grounding `n(s(X)) :- n(X).` visits one candidate per derived
/// atom rather than all atoms so far, every round.
///
/// The binding is a TermBinding stack that doubles as the trail, and the
/// matched candidate ids are kept on a parallel stack handed to the emit
/// callback, so emission reuses the positive body atoms instead of
/// substituting and re-interning them. A join allocates nothing once its
/// scratch stacks have warmed.
class JoinCore {
 public:
  // --- derivation state ---

  /// Number of tracked atoms (ids [0, size())).
  std::size_t size() const { return derived_.size(); }
  /// Tracks atoms up to id n - 1; new ones start underived.
  void Track(std::size_t n) {
    if (n <= derived_.size()) return;
    derived_.resize(n, 0);
  }
  bool derived(AtomId a) const { return derived_[a] != 0; }
  /// Marks `a` (of predicate `pred`) derived in `round`, which must be no
  /// earlier than any round marked before.
  void MarkDerived(AtomId a, SymbolId pred, std::uint32_t round);
  /// Every derived atom, in derivation order (grouped by round).
  const std::vector<AtomId>& derived_log() const { return derived_log_; }
  /// The distinct predicates of derived_log()[begin, end), ascending — the
  /// order in which a semi-naive round fires its triggered rules. Valid
  /// until the next call.
  std::span<const SymbolId> DeltaPredicates(const AtomTable& atoms,
                                            std::size_t begin,
                                            std::size_t end);

  // --- joins ---

  /// Joins the positive body literals of `r` left to right over the
  /// candidate lists, calling `emit(binding, matched)` once per complete
  /// match; `matched` holds the candidate id matched at each positive
  /// position. In semi-naive mode positions before `delta_pos` see kOld,
  /// position `delta_pos` sees kDelta and later ones kUpTo (delta_pos ==
  /// number of positive literals puts every position under kOld). Naive
  /// mode puts every position under kUpTo. The first error returned by
  /// `emit` stops the join and is returned.
  template <typename Emit>
  Status Join(const TermTable& terms, const AtomTable& atoms, const Rule& r,
              std::size_t delta_pos, std::uint32_t round, bool semi_naive,
              Emit&& emit);

  /// The binding stack. Join clears it; the batch grounder's active-domain
  /// enumeration drives it directly.
  TermBinding& binding() { return binding_; }

  /// Candidate atoms the joins tried to match so far — the join's work
  /// counter, linear in the atoms derived when round cursors do their job.
  std::uint64_t candidates_visited() const { return visited_; }
  /// Bytes handed out by the candidate-list arena.
  std::size_t arena_bytes() const { return arena_.total_allocated(); }

 private:
  /// Which derivation rounds a join position of round `round` may draw
  /// candidates from (atoms derived in `round` itself are never visible):
  ///   kOld   — rounds before round - 1;
  ///   kDelta — round - 1 exactly (the semi-naive delta position);
  ///   kUpTo  — every round up to round - 1.
  enum class RoundFilter : std::uint8_t { kOld, kDelta, kUpTo };

  /// One growable arena-backed segment of a candidate list. Chunks
  /// never move once allocated, so a join may keep walking a list while
  /// emission appends to it.
  struct CandChunk {
    CandChunk* next;
    std::uint32_t count;
    std::uint32_t cap;
    AtomId* items() { return reinterpret_cast<AtomId*>(this + 1); }
    const AtomId* items() const {
      return reinterpret_cast<const AtomId*>(this + 1);
    }
  };
  /// A position in a candidate list: its offset, and the chunk and
  /// in-chunk index holding that offset.
  struct Cursor {
    std::uint32_t offset = 0;
    const CandChunk* chunk = nullptr;
    std::uint32_t index = 0;
  };
  /// Where the atoms of `round` begin in a list.
  struct RoundStart {
    std::uint32_t round;
    Cursor at;
  };
  /// A predicate's candidate list: arena chunks indexed densely by
  /// predicate symbol.
  struct PredList {
    CandChunk* head = nullptr;
    CandChunk* tail = nullptr;
    std::uint32_t count = 0;
    std::vector<RoundStart> starts;
  };
  /// The candidates one join position may scan: offsets [from.offset, end)
  /// of one list, walked through the chunks from `from`.
  struct Range {
    Cursor from;
    std::uint32_t end = 0;
  };
  struct Frame {
    const TermTable& terms;
    const AtomTable& atoms;
    std::size_t delta_pos;
    std::uint32_t round;
    bool semi_naive;
  };

  /// The first position holding an atom of a round >= `round`.
  static Cursor StartOf(const PredList& pl, std::uint32_t round);
  Range RangeOf(SymbolId pred, RoundFilter filter, std::uint32_t round) const;

  bool MatchAtom(const TermTable& terms, const AtomTable& atoms,
                 const std::vector<TermId>& pattern_args, AtomId cand) {
    auto cand_args = atoms.args(cand);
    if (cand_args.size() != pattern_args.size()) return false;
    for (std::size_t i = 0; i < cand_args.size(); ++i) {
      if (!terms.Match(pattern_args[i], cand_args[i], binding_)) return false;
    }
    return true;
  }

  template <typename Emit>
  Status JoinAt(const Frame& f, std::size_t pos_index, Emit& emit);

  std::vector<std::uint8_t> derived_;
  std::vector<AtomId> derived_log_;
  std::vector<PredList> lists_;  // by SymbolId
  Arena arena_;

  TermBinding binding_;
  std::vector<AtomId> matched_;
  std::vector<const Atom*> pos_lits_;
  std::vector<SymbolId> delta_preds_;
  std::uint64_t visited_ = 0;
};

template <typename Emit>
Status JoinCore::Join(const TermTable& terms, const AtomTable& atoms,
                      const Rule& r, std::size_t delta_pos,
                      std::uint32_t round, bool semi_naive, Emit&& emit) {
  assert(round >= 1 && "round 0 holds the seeds; joins start at round 1");
  pos_lits_.clear();
  for (const Literal& l : r.body) {
    if (l.positive) pos_lits_.push_back(&l.atom);
  }
  binding_.Clear();
  matched_.clear();
  const Frame f{terms, atoms, delta_pos, round, semi_naive};
  return JoinAt(f, 0, emit);
}

template <typename Emit>
Status JoinCore::JoinAt(const Frame& f, std::size_t pos_index, Emit& emit) {
  if (pos_index == pos_lits_.size()) {
    return emit(static_cast<const TermBinding&>(binding_),
                std::span<const AtomId>(matched_));
  }
  const Atom& lit = *pos_lits_[pos_index];
  RoundFilter filter = RoundFilter::kUpTo;
  if (f.semi_naive && pos_index < f.delta_pos) {
    filter = RoundFilter::kOld;
  } else if (f.semi_naive && pos_index == f.delta_pos) {
    filter = RoundFilter::kDelta;
  }
  // The range is fixed before the first candidate is tried: atoms that
  // emission appends during the scan lie past `end` (and in a round this
  // position may not see anyway).
  const Range range = RangeOf(lit.predicate, filter, f.round);
  const CandChunk* chunk = range.from.chunk;
  std::uint32_t index = range.from.index;
  for (std::uint32_t pos = range.from.offset; pos < range.end; ++pos) {
    if (index == chunk->cap) {
      chunk = chunk->next;
      index = 0;
    }
    const AtomId cand = chunk->items()[index++];
    ++visited_;
    const std::size_t mark = binding_.size();
    if (MatchAtom(f.terms, f.atoms, lit.args, cand)) {
      matched_.push_back(cand);
      Status st = JoinAt(f, pos_index + 1, emit);
      if (!st.ok()) return st;
      matched_.pop_back();
    }
    binding_.Undo(mark);
  }
  return Status::Ok();
}

/// Shared hash of a ground rule instance (head :- pos..., not neg...),
/// consumed both by the signature map of the incremental grounder and by
/// the in-place dedupe paths that hash the same structure straight out of
/// a body pool without materializing a signature (ground/grounder.cc,
/// ground/ground_program.cc).
inline std::uint64_t HashGroundRule(AtomId head, std::span<const AtomId> pos,
                                    std::span<const AtomId> neg) {
  std::uint64_t h = HashMixWord(kSpanHashSeed, head);
  h = HashMixSpan(h, pos);
  h = HashMixSpan(h, neg);
  return HashAvalanche(h);
}

/// Structural signature of a ground rule instance — the provenance-count
/// key of the incremental grounder.
struct GroundRuleSig {
  AtomId head;
  std::vector<AtomId> pos;
  std::vector<AtomId> neg;
  bool operator==(const GroundRuleSig& o) const {
    return head == o.head && pos == o.pos && neg == o.neg;
  }
};
struct GroundRuleSigHash {
  std::size_t operator()(const GroundRuleSig& s) const {
    return static_cast<std::size_t>(HashGroundRule(s.head, s.pos, s.neg));
  }
};

}  // namespace afp

#endif  // AFP_GROUND_GROUND_MATCH_H_
