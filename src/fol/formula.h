#ifndef AFP_FOL_FORMULA_H_
#define AFP_FOL_FORMULA_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "ast/term.h"
#include "util/interner.h"

namespace afp {

/// Node kinds of first-order rule bodies (§8). Equality is interpreted by
/// the Clark equality theory: ground terms are equal iff syntactically
/// identical.
enum class FormulaKind : std::uint8_t {
  kTrue,
  kFalse,
  kAtom,     // p(t...)
  kNegAtom,  // ¬p(t...)  (explicit literal form, Definition 8.1)
  kEq,       // t1 = t2
  kNeq,      // t1 ≠ t2
  kAnd,
  kOr,
  kNot,      // general negation (eliminated by PushNegations)
  kExists,
  kForall,
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// Immutable first-order formula node. Built via the factory functions
/// below; shared subformulas are allowed (the tree is never mutated).
struct Formula {
  FormulaKind kind;
  Atom atom;                        // kAtom / kNegAtom
  TermId lhs = kInvalidTerm;        // kEq / kNeq
  TermId rhs = kInvalidTerm;        // kEq / kNeq
  std::vector<FormulaPtr> children; // kNot(1) / kAnd / kOr / quantifiers(1)
  std::vector<SymbolId> quant_vars; // kExists / kForall

  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr MakeAtom(Atom a);
  static FormulaPtr MakeNegAtom(Atom a);
  static FormulaPtr Eq(TermId l, TermId r);
  static FormulaPtr Neq(TermId l, TermId r);
  static FormulaPtr Not(FormulaPtr f);
  static FormulaPtr And(std::vector<FormulaPtr> fs);
  static FormulaPtr Or(std::vector<FormulaPtr> fs);
  static FormulaPtr Exists(std::vector<SymbolId> vars, FormulaPtr f);
  static FormulaPtr Forall(std::vector<SymbolId> vars, FormulaPtr f);
};

/// Free variables of `f` (variables not captured by a quantifier).
std::set<SymbolId> FreeVariables(const Formula& f, const TermTable& terms);

/// Renders the formula, e.g. "not exists Y (e(Y,X) and not w(Y))".
std::string FormulaToString(const Formula& f, const Interner& symbols,
                            const TermTable& terms);

/// Pushes negations inward (Definition 8.1's explicit literal form).
///
/// With `keep_negated_exists == false` the result is full negation normal
/// form: negations rest only on atoms (kNegAtom), both quantifiers may
/// appear, kNot disappears. This is the form Definition 8.2 evaluates.
///
/// With `keep_negated_exists == true`, negations are pushed through ∧, ∨,
/// ¬¬ and ∀ (which is eliminated as ∀X φ ≡ ¬∃X ¬φ), but a negation meeting
/// an ∃ stays put as kNot(kExists(...)). This is the staging form for the
/// elementary simplifications of §8.3, which extract exactly such negated
/// existential subformulas into auxiliary relations.
FormulaPtr PushNegations(const FormulaPtr& f, const TermTable& terms,
                         bool keep_negated_exists);

/// Renames every quantified variable to a fresh name ("_Qn") so that no
/// variable is bound twice and bound names never collide with free names.
/// Required before flattening nested quantifiers into rule bodies.
FormulaPtr StandardizeApart(const FormulaPtr& f, Program& program,
                            int* counter);

/// Substitutes `binding` for free variables throughout `f` (bound variables
/// are untouched; callers must standardize apart first if capture is
/// possible).
FormulaPtr SubstituteFormula(const FormulaPtr& f, Program& program,
                             const TermBinding& binding);

}  // namespace afp

#endif  // AFP_FOL_FORMULA_H_
