#include "ast/program.h"

#include <algorithm>

namespace afp {

bool Rule::IsFact(const TermTable& terms) const {
  if (!body.empty()) return false;
  for (TermId t : head.args) {
    if (!terms.IsGround(t)) return false;
  }
  return true;
}

void Program::AddRule(Atom head, std::vector<Literal> body) {
  auto record_arity = [this](const Atom& a) {
    arity_.try_emplace(a.predicate, static_cast<std::uint32_t>(a.args.size()));
  };
  record_arity(head);
  for (const Literal& l : body) record_arity(l.atom);
  rules_.push_back(Rule{std::move(head), std::move(body)});
}

void Program::AddFact(std::string_view pred,
                      std::vector<std::string_view> consts) {
  std::vector<TermId> args;
  args.reserve(consts.size());
  for (std::string_view c : consts) args.push_back(Const(c));
  AddRule(Atom{symbols_.Intern(pred), std::move(args)});
}

std::set<SymbolId> Program::IdbPredicates() const {
  std::set<SymbolId> idb;
  for (const Rule& r : rules_) {
    if (!r.IsFact(terms_)) idb.insert(r.head.predicate);
  }
  return idb;
}

std::set<SymbolId> Program::EdbPredicates() const {
  std::set<SymbolId> idb = IdbPredicates();
  std::set<SymbolId> edb;
  for (const auto& [pred, arity] : arity_) {
    if (!idb.count(pred)) edb.insert(pred);
  }
  return edb;
}

std::string Program::AtomToString(const Atom& a) const {
  std::string out;
  AppendSymbol(out, symbols_.Name(a.predicate));
  if (!a.args.empty()) {
    out += '(';
    for (std::size_t i = 0; i < a.args.size(); ++i) {
      if (i > 0) out += ',';
      out += terms_.ToString(a.args[i], symbols_);
    }
    out += ')';
  }
  return out;
}

std::string Program::LiteralToString(const Literal& l) const {
  return l.positive ? AtomToString(l.atom) : "not " + AtomToString(l.atom);
}

std::string Program::RuleToString(const Rule& r) const {
  std::string out = AtomToString(r.head);
  if (!r.body.empty()) {
    out += " :- ";
    for (std::size_t i = 0; i < r.body.size(); ++i) {
      if (i > 0) out += ", ";
      out += LiteralToString(r.body[i]);
    }
  }
  out += '.';
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& r : rules_) {
    out += RuleToString(r);
    out += '\n';
  }
  return out;
}

Status Program::Validate() const {
  // Arity consistency.
  std::map<SymbolId, std::uint32_t> seen;
  auto check_atom = [&](const Atom& a) -> Status {
    auto [it, inserted] =
        seen.emplace(a.predicate, static_cast<std::uint32_t>(a.args.size()));
    if (!inserted && it->second != a.args.size()) {
      return Status::InvalidArgument(
          "predicate '" + symbols_.Name(a.predicate) +
          "' used with inconsistent arities " + std::to_string(it->second) +
          " and " + std::to_string(a.args.size()));
    }
    return Status::Ok();
  };
  for (const Rule& r : rules_) {
    AFP_RETURN_IF_ERROR(check_atom(r.head));
    for (const Literal& l : r.body) AFP_RETURN_IF_ERROR(check_atom(l.atom));
  }

  // Safety (range restriction).
  for (const Rule& r : rules_) {
    std::vector<SymbolId> positive_vars;
    for (const Literal& l : r.body) {
      if (!l.positive) continue;
      for (TermId t : l.atom.args) terms_.CollectVariables(t, positive_vars);
    }
    std::sort(positive_vars.begin(), positive_vars.end());

    auto check_covered = [&](const Atom& a, const char* where) -> Status {
      std::vector<SymbolId> vars;
      for (TermId t : a.args) terms_.CollectVariables(t, vars);
      for (SymbolId v : vars) {
        if (!std::binary_search(positive_vars.begin(), positive_vars.end(),
                                v)) {
          return Status::InvalidArgument(
              "unsafe rule '" + RuleToString(r) + "': variable '" +
              symbols_.Name(v) + "' in " + where +
              " does not occur in any positive body literal");
        }
      }
      return Status::Ok();
    };
    AFP_RETURN_IF_ERROR(check_covered(r.head, "the head"));
    for (const Literal& l : r.body) {
      if (!l.positive) {
        AFP_RETURN_IF_ERROR(check_covered(l.atom, "a negative literal"));
      }
    }
  }
  return Status::Ok();
}

}  // namespace afp
