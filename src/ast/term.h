#ifndef AFP_AST_TERM_H_
#define AFP_AST_TERM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_index.h"
#include "util/interner.h"

namespace afp {

/// Appends a constant, functor or predicate name in input syntax: bare
/// when the parser reads it back as the same identifier or integer, else
/// in single quotes ('A b', '__bot', 'not'), so rendered programs re-parse
/// to themselves.
void AppendSymbol(std::string& out, std::string_view name);

/// Dense id of a hash-consed term within a TermTable.
using TermId = std::uint32_t;
inline constexpr TermId kInvalidTerm = static_cast<TermId>(-1);

/// Kind of a term node.
enum class TermKind : std::uint8_t {
  kConstant,  // e.g. `a`, `42`
  kVariable,  // e.g. `X`
  kCompound,  // e.g. `f(X, g(a))`
};

/// Variable bindings of a one-way match or a substitution: a stack of
/// (variable, term) pairs. Bind pushes; Undo(mark) pops back to a mark
/// taken with size(), so the binding is its own trail and a join that
/// backtracks through it allocates nothing once the stack has warmed.
/// Lookup scans from the top: a later Bind of a variable shadows an
/// earlier one until it is undone, and a variable bound to kInvalidTerm
/// reads as unbound, which is how quantifiers scope their variables in
/// the first-order evaluator. Rules bind a handful of
/// variables, so the scan beats hashing.
class TermBinding {
 public:
  /// The term bound to `var`, or kInvalidTerm when it is unbound.
  TermId Lookup(SymbolId var) const {
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].var == var) return entries_[i].value;
    }
    return kInvalidTerm;
  }
  void Bind(SymbolId var, TermId value) { entries_.push_back({var, value}); }
  std::size_t size() const { return entries_.size(); }
  void Undo(std::size_t mark) { entries_.resize(mark); }
  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    SymbolId var;
    TermId value;
  };
  std::vector<Entry> entries_;
};

/// Hash-consed store of first-order terms. Each distinct term is stored
/// exactly once, so term equality is TermId equality and substitution
/// results are shared. Terms are immutable once created.
///
/// The Herbrand universe of a program (paper §3) is the set of ground terms
/// formed from its constants and function symbols; TermTable is the concrete
/// machinery backing it.
///
/// Interning is indexed by a FlatIndex probing the node/argument pools in
/// place: Make*/Find* hash the candidate (kind, symbol, args) directly from
/// the caller's span and compare against resident terms through
/// nodes_/args_, so a compound lookup materializes no key and performs no
/// steady-state allocation.
class TermTable {
 public:
  /// Returns the (unique) constant term with the given symbol.
  TermId MakeConstant(SymbolId symbol);
  /// Returns the (unique) variable term with the given symbol.
  TermId MakeVariable(SymbolId symbol);
  /// Returns the (unique) compound term functor(args...). `args` must be
  /// non-empty; zero-arity function symbols are constants.
  TermId MakeCompound(SymbolId functor, std::span<const TermId> args);

  /// Const lookups: return the term id if it is already interned, or
  /// kInvalidTerm otherwise. Used to query models without mutating tables.
  TermId FindConstant(SymbolId symbol) const;
  TermId FindCompound(SymbolId functor, std::span<const TermId> args) const;

  TermKind kind(TermId t) const { return nodes_[t].kind; }
  /// The constant/variable name, or the functor symbol for compounds.
  SymbolId symbol(TermId t) const { return nodes_[t].symbol; }
  /// Argument list (empty for constants and variables).
  std::span<const TermId> args(TermId t) const {
    const Node& n = nodes_[t];
    return {args_.data() + n.args_offset, n.args_len};
  }
  /// True iff the term contains no variables.
  bool IsGround(TermId t) const { return nodes_[t].ground; }
  /// Nesting depth: constants/variables have depth 0, f(t...) has
  /// 1 + max depth of arguments. Used by the grounder's depth guard.
  std::uint32_t Depth(TermId t) const { return nodes_[t].depth; }

  std::size_t size() const { return nodes_.size(); }

  /// Probe/allocation counters of the flat index.
  FlatIndexStats index_stats() const { return flat_.stats(); }

  /// Renders `t` using `symbols` for names, e.g. "f(a,g(X))"; constant and
  /// functor names are written as AppendSymbol writes them.
  std::string ToString(TermId t, const Interner& symbols) const;

  /// Applies `binding` to `t`. Unbound variables are left in place and
  /// ground subterms are returned as they are; a non-ground compound is
  /// rebuilt through a reusable argument stack, so a substitution whose
  /// result is already interned allocates nothing.
  TermId Substitute(TermId t, const TermBinding& binding) {
    const Node& n = nodes_[t];
    if (n.ground) return t;
    if (n.kind == TermKind::kVariable) {
      const TermId v = binding.Lookup(n.symbol);
      return v == kInvalidTerm ? t : v;
    }
    return SubstituteCompound(t, binding);
  }

  /// Collects the variable symbols occurring in `t` into `out` (may repeat).
  void CollectVariables(TermId t, std::vector<SymbolId>& out) const;

  /// Syntactic one-way matching of pattern `pattern` (may contain variables)
  /// against ground term `ground`, pushing each newly bound variable onto
  /// `binding`. Returns false on mismatch, possibly after pushing partial
  /// bindings: callers take binding.size() first and Undo to it.
  bool Match(TermId pattern, TermId ground, TermBinding& binding) const {
    const Node& p = nodes_[pattern];
    // Ground terms are hash-consed: structural equality is id equality.
    if (p.ground) return pattern == ground;
    if (p.kind == TermKind::kVariable) {
      const TermId bound = binding.Lookup(p.symbol);
      if (bound == kInvalidTerm) {
        binding.Bind(p.symbol, ground);
        return true;
      }
      return bound == ground;
    }
    return MatchCompound(pattern, ground, binding);
  }

 private:
  struct Node {
    TermKind kind;
    bool ground;
    std::uint32_t depth;
    SymbolId symbol;
    std::uint32_t args_offset;
    std::uint32_t args_len;
  };

  static std::uint64_t HashTerm(TermKind kind, SymbolId symbol,
                                std::span<const TermId> args);
  /// True iff resident term `id` is (kind, symbol, args).
  bool TermEquals(TermId id, TermKind kind, SymbolId symbol,
                  std::span<const TermId> args) const;

  TermId Intern(TermKind kind, SymbolId symbol, std::span<const TermId> args);
  TermId Find(TermKind kind, SymbolId symbol,
              std::span<const TermId> args) const;
  /// Appends the node + argument payload; returns the new dense id.
  TermId AppendNode(TermKind kind, SymbolId symbol,
                    std::span<const TermId> args);
  TermId SubstituteCompound(TermId t, const TermBinding& binding);
  bool MatchCompound(TermId pattern, TermId ground,
                     TermBinding& binding) const;

  std::vector<Node> nodes_;
  std::vector<TermId> args_;
  FlatIndex flat_;
  /// Argument stack of SubstituteCompound: each nesting level pushes its
  /// rebuilt arguments, interns them, and pops back to where it began.
  std::vector<TermId> subst_stack_;
};

}  // namespace afp

#endif  // AFP_AST_TERM_H_
