#include "fol/formula.h"

namespace afp {

namespace {

/// Implements PushNegations: `negate` tracks the parity of negations above
/// the current node.
FormulaPtr Push(const FormulaPtr& f, const TermTable& terms, bool negate,
                bool keep_negated_exists) {
  switch (f->kind) {
    case FormulaKind::kTrue:
      return negate ? Formula::False() : f;
    case FormulaKind::kFalse:
      return negate ? Formula::True() : f;
    case FormulaKind::kAtom:
      return negate ? Formula::MakeNegAtom(f->atom) : f;
    case FormulaKind::kNegAtom:
      return negate ? Formula::MakeAtom(f->atom) : f;
    case FormulaKind::kEq:
      return negate ? Formula::Neq(f->lhs, f->rhs) : f;
    case FormulaKind::kNeq:
      return negate ? Formula::Eq(f->lhs, f->rhs) : f;
    case FormulaKind::kNot:
      return Push(f->children[0], terms, !negate, keep_negated_exists);
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      bool flip = negate;  // De Morgan
      std::vector<FormulaPtr> kids;
      kids.reserve(f->children.size());
      for (const auto& c : f->children) {
        kids.push_back(Push(c, terms, negate, keep_negated_exists));
      }
      bool is_and = (f->kind == FormulaKind::kAnd) != flip;
      return is_and ? Formula::And(std::move(kids))
                    : Formula::Or(std::move(kids));
    }
    case FormulaKind::kExists: {
      if (!negate) {
        return Formula::Exists(
            f->quant_vars,
            Push(f->children[0], terms, false, keep_negated_exists));
      }
      if (keep_negated_exists) {
        // ¬∃X φ is kept as an extractable unit; the body is normalized
        // positively.
        return Formula::Not(Formula::Exists(
            f->quant_vars,
            Push(f->children[0], terms, false, keep_negated_exists)));
      }
      // ¬∃X φ ≡ ∀X ¬φ.
      return Formula::Forall(
          f->quant_vars,
          Push(f->children[0], terms, true, keep_negated_exists));
    }
    case FormulaKind::kForall: {
      if (keep_negated_exists) {
        // ∀X φ ≡ ¬∃X ¬φ; under an additional negation, ¬∀X φ ≡ ∃X ¬φ.
        if (negate) {
          return Formula::Exists(
              f->quant_vars,
              Push(f->children[0], terms, true, keep_negated_exists));
        }
        return Formula::Not(Formula::Exists(
            f->quant_vars,
            Push(f->children[0], terms, true, keep_negated_exists)));
      }
      if (!negate) {
        return Formula::Forall(
            f->quant_vars,
            Push(f->children[0], terms, false, keep_negated_exists));
      }
      // ¬∀X φ ≡ ∃X ¬φ.
      return Formula::Exists(
          f->quant_vars,
          Push(f->children[0], terms, true, keep_negated_exists));
    }
  }
  return f;
}

}  // namespace

FormulaPtr PushNegations(const FormulaPtr& f, const TermTable& terms,
                         bool keep_negated_exists) {
  return Push(f, terms, /*negate=*/false, keep_negated_exists);
}

FormulaPtr StandardizeApart(const FormulaPtr& f, Program& program,
                            int* counter) {
  switch (f->kind) {
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // Rename each bound variable to a fresh one inside the child first,
      // then recurse (inner quantifiers were already renamed by the
      // recursive call order below: child first, then apply substitution).
      FormulaPtr child = StandardizeApart(f->children[0], program, counter);
      TermBinding renaming;
      std::vector<SymbolId> fresh_vars;
      for (SymbolId v : f->quant_vars) {
        std::string fresh = "_Q" + std::to_string((*counter)++);
        SymbolId fv = program.Symbol(fresh);
        renaming.Bind(v, program.terms().MakeVariable(fv));
        fresh_vars.push_back(fv);
      }
      child = SubstituteFormula(child, program, renaming);
      return f->kind == FormulaKind::kExists
                 ? Formula::Exists(std::move(fresh_vars), std::move(child))
                 : Formula::Forall(std::move(fresh_vars), std::move(child));
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kNot: {
      std::vector<FormulaPtr> kids;
      kids.reserve(f->children.size());
      for (const auto& c : f->children) {
        kids.push_back(StandardizeApart(c, program, counter));
      }
      if (f->kind == FormulaKind::kNot) {
        return Formula::Not(std::move(kids[0]));
      }
      return f->kind == FormulaKind::kAnd ? Formula::And(std::move(kids))
                                          : Formula::Or(std::move(kids));
    }
    default:
      return f;
  }
}

FormulaPtr SubstituteFormula(const FormulaPtr& f, Program& program,
                             const TermBinding& binding) {
  switch (f->kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return f;
    case FormulaKind::kAtom:
    case FormulaKind::kNegAtom: {
      Atom a = f->atom;
      for (TermId& t : a.args) t = program.terms().Substitute(t, binding);
      return f->kind == FormulaKind::kAtom
                 ? Formula::MakeAtom(std::move(a))
                 : Formula::MakeNegAtom(std::move(a));
    }
    case FormulaKind::kEq:
    case FormulaKind::kNeq: {
      TermId l = program.terms().Substitute(f->lhs, binding);
      TermId r = program.terms().Substitute(f->rhs, binding);
      return f->kind == FormulaKind::kEq ? Formula::Eq(l, r)
                                         : Formula::Neq(l, r);
    }
    case FormulaKind::kNot:
      return Formula::Not(SubstituteFormula(f->children[0], program,
                                            binding));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaPtr> kids;
      kids.reserve(f->children.size());
      for (const auto& c : f->children) {
        kids.push_back(SubstituteFormula(c, program, binding));
      }
      return f->kind == FormulaKind::kAnd ? Formula::And(std::move(kids))
                                          : Formula::Or(std::move(kids));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // Bound variables shadow the binding: kInvalidTerm reads as unbound,
      // so Substitute leaves them in place.
      TermBinding inner = binding;
      for (SymbolId v : f->quant_vars) inner.Bind(v, kInvalidTerm);
      FormulaPtr child = SubstituteFormula(f->children[0], program, inner);
      return f->kind == FormulaKind::kExists
                 ? Formula::Exists(f->quant_vars, std::move(child))
                 : Formula::Forall(f->quant_vars, std::move(child));
    }
  }
  return f;
}

}  // namespace afp
