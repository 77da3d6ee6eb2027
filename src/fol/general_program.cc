#include "fol/general_program.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/eval_context.h"
#include "ground/atom_table.h"
#include "util/bitset.h"

namespace afp {

std::set<SymbolId> GeneralProgram::IdbPredicates() const {
  std::set<SymbolId> out;
  for (const GeneralRule& r : rules_) out.insert(r.head.predicate);
  return out;
}

namespace {

Status CheckFunctionFreeTerm(const Program& p, TermId t) {
  if (p.terms().kind(t) == TermKind::kCompound) {
    return Status::InvalidArgument(
        "general programs are function-free (FP logic has no function "
        "symbols); found compound term " +
        p.terms().ToString(t, p.symbols()));
  }
  return Status::Ok();
}

Status CheckFunctionFreeFormula(const Program& p, const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kAtom:
    case FormulaKind::kNegAtom:
      for (TermId t : f.atom.args) {
        AFP_RETURN_IF_ERROR(CheckFunctionFreeTerm(p, t));
      }
      return Status::Ok();
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
      AFP_RETURN_IF_ERROR(CheckFunctionFreeTerm(p, f.lhs));
      return CheckFunctionFreeTerm(p, f.rhs);
    default:
      for (const auto& c : f.children) {
        AFP_RETURN_IF_ERROR(CheckFunctionFreeFormula(p, *c));
      }
      return Status::Ok();
  }
}

}  // namespace

Status GeneralProgram::Validate() const {
  std::set<SymbolId> idb = IdbPredicates();
  for (const Rule& r : base_.rules()) {
    if (!r.IsFact(base_.terms())) {
      return Status::InvalidArgument(
          "the base of a general program may contain only facts");
    }
    if (idb.count(r.head.predicate)) {
      return Status::InvalidArgument(
          "predicate '" + base_.symbols().Name(r.head.predicate) +
          "' has both facts and a general rule; EDB and IDB must be "
          "disjoint in general programs");
    }
    for (TermId t : r.head.args) {
      AFP_RETURN_IF_ERROR(CheckFunctionFreeTerm(base_, t));
    }
  }
  for (const GeneralRule& r : rules_) {
    for (TermId t : r.head.args) {
      AFP_RETURN_IF_ERROR(CheckFunctionFreeTerm(base_, t));
      if (base_.terms().kind(t) == TermKind::kConstant) continue;
    }
    AFP_RETURN_IF_ERROR(CheckFunctionFreeFormula(base_, *r.body));
    // Body free variables must occur in the head.
    std::set<SymbolId> head_vars;
    {
      std::vector<SymbolId> vs;
      for (TermId t : r.head.args) base_.terms().CollectVariables(t, vs);
      head_vars.insert(vs.begin(), vs.end());
    }
    for (SymbolId v : FreeVariables(*r.body, base_.terms())) {
      if (!head_vars.count(v)) {
        return Status::InvalidArgument(
            "free variable '" + base_.symbols().Name(v) +
            "' of a rule body does not occur in the head; quantify it "
            "explicitly");
      }
    }
  }
  return Status::Ok();
}

namespace {

/// Ground evaluation engine per Definition 8.2.
class GeneralEvaluator {
 public:
  GeneralEvaluator(EvalContext& ctx, GeneralProgram& gp,
                   const GeneralAfpOptions& options)
      : ctx_(ctx), gp_(gp), options_(options) {}

  StatusOr<GeneralAfpResult> Run() {
    AFP_RETURN_IF_ERROR(gp_.Validate());
    CollectDomain();
    AFP_RETURN_IF_ERROR(BuildUniverse());

    // Alternating fixpoint over the IDB base (§5), with S_P computed by the
    // naive first-order T iteration below.
    const std::size_t n = universe_.size();
    GeneralAfpResult result;
    // All five loop bitsets cycle through the caller's pool; a batch of
    // general-program evaluations allocates only on its first call.
    Bitset under_neg = ctx_.AcquireBitset(n);
    Bitset under_pos = ctx_.AcquireBitset(n);
    Bitset over_neg = ctx_.AcquireBitset(n);
    Bitset over_pos = ctx_.AcquireBitset(n);
    Bitset next_under_neg = ctx_.AcquireBitset(n);
    while (true) {
      ++result.outer_iterations;
      Sp(under_neg, &under_pos);
      over_neg.AssignComplementOf(under_pos);
      Sp(over_neg, &over_pos);
      next_under_neg.AssignComplementOf(over_pos);
      if (next_under_neg == under_neg) break;
      std::swap(under_neg, next_under_neg);
    }

    for (std::size_t a = 0; a < n; ++a) {
      TruthValue v = TruthValue::kUndefined;
      if (under_pos.Test(a)) v = TruthValue::kTrue;
      if (under_neg.Test(a)) v = TruthValue::kFalse;
      result.values.emplace(
          universe_.ToString(static_cast<AtomId>(a), gp_.base().symbols(),
                             gp_.base().terms()),
          v);
    }
    ctx_.ReleaseBitset(std::move(under_neg));
    ctx_.ReleaseBitset(std::move(under_pos));
    ctx_.ReleaseBitset(std::move(over_neg));
    ctx_.ReleaseBitset(std::move(over_pos));
    ctx_.ReleaseBitset(std::move(next_under_neg));
    return result;
  }

 private:
  void CollectDomain() {
    std::unordered_set<TermId> seen;
    auto visit = [&](auto&& self, TermId t) -> void {
      if (gp_.base().terms().kind(t) == TermKind::kConstant &&
          seen.insert(t).second) {
        domain_.push_back(t);
      }
      for (TermId a : gp_.base().terms().args(t)) self(self, a);
    };
    for (const Rule& r : gp_.base().rules()) {
      for (TermId t : r.head.args) visit(visit, t);
    }
    auto visit_formula = [&](auto&& self, const Formula& f) -> void {
      if (f.kind == FormulaKind::kAtom || f.kind == FormulaKind::kNegAtom) {
        for (TermId t : f.atom.args) visit(visit, t);
      } else if (f.kind == FormulaKind::kEq || f.kind == FormulaKind::kNeq) {
        visit(visit, f.lhs);
        visit(visit, f.rhs);
      }
      for (const auto& c : f.children) self(self, *c);
    };
    for (const GeneralRule& r : gp_.general_rules()) {
      for (TermId t : r.head.args) visit(visit, t);
      visit_formula(visit_formula, *r.body);
    }
  }

  Status BuildUniverse() {
    // EDB facts.
    for (const Rule& r : gp_.base().rules()) {
      AtomId id = edb_.Intern(r.head.predicate, r.head.args);
      facts_.insert(id);
      edb_preds_.insert(r.head.predicate);
    }
    // IDB ground atoms: every predicate × domain tuple.
    std::size_t total = 0;
    for (const GeneralRule& r : gp_.general_rules()) {
      if (idb_done_.count(r.head.predicate)) continue;
      idb_done_.insert(r.head.predicate);
      std::size_t k = r.head.args.size();
      std::size_t count = 1;
      for (std::size_t i = 0; i < k; ++i) count *= domain_.size();
      total += count;
      if (total > options_.max_base) {
        return Status::ResourceExhausted(
            "general AFP universe exceeds max_base=" +
            std::to_string(options_.max_base));
      }
      std::vector<TermId> tuple(k);
      EnumerateTuples(r.head.predicate, tuple, 0);
    }
    // Normalized rule bodies: full negation-normal form (Definition 8.2's
    // explicit literal form, with quantifiers retained).
    for (const GeneralRule& r : gp_.general_rules()) {
      nnf_bodies_.push_back(PushNegations(r.body, gp_.base().terms(),
                                          /*keep_negated_exists=*/false));
    }
    return Status::Ok();
  }

  void EnumerateTuples(SymbolId pred, std::vector<TermId>& tuple,
                       std::size_t i) {
    if (i == tuple.size()) {
      universe_.Intern(pred, tuple);
      return;
    }
    for (TermId c : domain_) {
      tuple[i] = c;
      EnumerateTuples(pred, tuple, i + 1);
    }
  }

  /// S_P(Ĩ): least fixpoint of the one-step consequence over first-order
  /// bodies, with the negative set fixed (Definition 4.2 generalized per
  /// §8.1).
  void Sp(const Bitset& assumed_false, Bitset* out) {
    ++ctx_.stats().sp_calls;
    out->Resize(universe_.size());
    Bitset& derived = *out;
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t ri = 0; ri < gp_.general_rules().size(); ++ri) {
        const GeneralRule& r = gp_.general_rules()[ri];
        std::vector<SymbolId> head_vars;
        for (TermId t : r.head.args) {
          gp_.base().terms().CollectVariables(t, head_vars);
        }
        std::sort(head_vars.begin(), head_vars.end());
        head_vars.erase(std::unique(head_vars.begin(), head_vars.end()),
                        head_vars.end());
        TermBinding env;
        EnumerateRule(r, nnf_bodies_[ri], head_vars, 0, env, derived,
                      assumed_false, changed);
      }
    }
  }

  void EnumerateRule(const GeneralRule& r, const FormulaPtr& body,
                     const std::vector<SymbolId>& vars, std::size_t i,
                     TermBinding& env, Bitset& derived,
                     const Bitset& assumed_false, bool& changed) {
    if (i == vars.size()) {
      std::vector<TermId> args;
      args.reserve(r.head.args.size());
      for (TermId t : r.head.args) {
        args.push_back(gp_.base().terms().Substitute(t, env));
      }
      AtomId head = universe_.Find(r.head.predicate, args);
      if (head == kInvalidAtom || derived.Test(head)) return;
      if (Eval(*body, env, derived, assumed_false)) {
        derived.Set(head);
        changed = true;
      }
      return;
    }
    const std::size_t mark = env.size();
    for (TermId c : domain_) {
      env.Bind(vars[i], c);
      EnumerateRule(r, body, vars, i + 1, env, derived, assumed_false,
                    changed);
      env.Undo(mark);
    }
  }

  /// Definition 8.2: literals are looked up in (derived ⊎ ¬·assumed_false);
  /// connectives and quantifiers are evaluated classically over the domain.
  bool Eval(const Formula& f, TermBinding& env, const Bitset& pos_set,
            const Bitset& neg_set) {
    switch (f.kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAtom:
      case FormulaKind::kNegAtom: {
        std::vector<TermId> args;
        args.reserve(f.atom.args.size());
        for (TermId t : f.atom.args) {
          args.push_back(gp_.base().terms().Substitute(t, env));
        }
        bool negative = f.kind == FormulaKind::kNegAtom;
        if (edb_preds_.count(f.atom.predicate)) {
          AtomId id = edb_.Find(f.atom.predicate, args);
          bool is_fact = id != kInvalidAtom && facts_.count(id) > 0;
          return negative ? !is_fact : is_fact;
        }
        AtomId id = universe_.Find(f.atom.predicate, args);
        if (id == kInvalidAtom) return negative;  // not in the base
        return negative ? neg_set.Test(id) : pos_set.Test(id);
      }
      case FormulaKind::kEq:
      case FormulaKind::kNeq: {
        TermId l = gp_.base().terms().Substitute(f.lhs, env);
        TermId r = gp_.base().terms().Substitute(f.rhs, env);
        return (f.kind == FormulaKind::kEq) == (l == r);
      }
      case FormulaKind::kNot:
        // Cannot appear in evaluation NNF; treat classically for safety.
        return !Eval(*f.children[0], env, pos_set, neg_set);
      case FormulaKind::kAnd:
        for (const auto& c : f.children) {
          if (!Eval(*c, env, pos_set, neg_set)) return false;
        }
        return true;
      case FormulaKind::kOr:
        for (const auto& c : f.children) {
          if (Eval(*c, env, pos_set, neg_set)) return true;
        }
        return false;
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        bool exists = f.kind == FormulaKind::kExists;
        return QuantEval(f, 0, exists, env, pos_set, neg_set);
      }
    }
    return false;
  }

  /// Binds the i-th quantified variable to each domain constant in turn.
  /// The binding shadows any outer binding of the same variable until it
  /// is undone.
  bool QuantEval(const Formula& f, std::size_t i, bool exists,
                 TermBinding& env, const Bitset& pos_set,
                 const Bitset& neg_set) {
    if (i == f.quant_vars.size()) {
      return Eval(*f.children[0], env, pos_set, neg_set);
    }
    const SymbolId v = f.quant_vars[i];
    const std::size_t mark = env.size();
    for (TermId c : domain_) {
      env.Bind(v, c);
      const bool sub = QuantEval(f, i + 1, exists, env, pos_set, neg_set);
      env.Undo(mark);
      if (exists && sub) return true;
      if (!exists && !sub) return false;
    }
    // Empty domains: ∃ over nothing is false; ∀ over nothing is true.
    return !exists;
  }

  EvalContext& ctx_;
  GeneralProgram& gp_;
  const GeneralAfpOptions& options_;
  std::vector<TermId> domain_;
  AtomTable universe_;  // IDB ground atoms
  AtomTable edb_;
  std::unordered_set<AtomId> facts_;
  std::set<SymbolId> edb_preds_;
  std::set<SymbolId> idb_done_;
  std::vector<FormulaPtr> nnf_bodies_;
};

}  // namespace

StatusOr<GeneralAfpResult> GeneralAlternatingFixpointWithContext(
    EvalContext& ctx, GeneralProgram& program,
    const GeneralAfpOptions& options) {
  GeneralEvaluator eval(ctx, program, options);
  return eval.Run();
}

StatusOr<GeneralAfpResult> GeneralAlternatingFixpoint(
    GeneralProgram& program, const GeneralAfpOptions& options) {
  EvalContext ctx;
  return GeneralAlternatingFixpointWithContext(ctx, program, options);
}

}  // namespace afp
