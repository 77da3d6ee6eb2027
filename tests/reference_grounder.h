// Reference grounder for tests: the relevant Herbrand instantiation P_H
// (Definition 3.4) computed the slow, obvious way, as an oracle for
// ground/grounder.cc. It shares nothing with the production grounder but
// the parsed Program: no join core, no atom table, no dedupe index.
//
//   * kSmart: D is the least model of the positive projection, computed
//     by naive bottom-up iteration (every rule re-matched against all of D
//     until nothing new is derived); P_H holds every instance whose
//     positive body lies in D. With `simplify`, a negative literal whose
//     atom is not in D is dropped (it is certainly true) and the base is D.
//   * kFull: every assignment of a rule's variables to the active domain
//     (the constants occurring in the program); no simplification.
//
// Rules come back as canonical strings (head, then the sorted positive
// and the sorted negative body), one per distinct rule, sorted; the base
// comes back as sorted atom names. Ground programs are compared through
// CanonicalRules / AtomNames below.

#ifndef AFP_TESTS_REFERENCE_GROUNDER_H_
#define AFP_TESTS_REFERENCE_GROUNDER_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"

namespace afp {

struct ReferenceGround {
  std::vector<std::string> rules;  // canonical, distinct, sorted
  std::vector<std::string> atoms;  // names, distinct, sorted
};

/// "head :- p1, p2, not n1." with each body part sorted by name.
inline std::string CanonicalRule(const std::string& head,
                                 std::vector<std::string> pos,
                                 std::vector<std::string> neg) {
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  std::string out = head;
  const char* sep = " :- ";
  for (const std::string& a : pos) {
    out += sep + a;
    sep = ", ";
  }
  for (const std::string& a : neg) {
    out += std::string(sep) + "not " + a;
    sep = ", ";
  }
  return out + ".";
}

/// Every rule of `gp` in canonical form, sorted, duplicates kept (so a
/// ground program holding a rule twice does not compare equal to a set).
inline std::vector<std::string> CanonicalRules(const GroundProgram& gp) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < gp.num_rules(); ++i) {
    const GroundRule& r = gp.rule(i);
    std::vector<std::string> pos, neg;
    for (AtomId a : gp.pos(r)) pos.push_back(gp.AtomName(a));
    for (AtomId a : gp.neg(r)) neg.push_back(gp.AtomName(a));
    out.push_back(CanonicalRule(gp.AtomName(r.head), pos, neg));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The atom names of `gp`, sorted, duplicates kept.
inline std::vector<std::string> AtomNames(const GroundProgram& gp) {
  std::vector<std::string> out;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) out.push_back(gp.AtomName(a));
  std::sort(out.begin(), out.end());
  return out;
}

class ReferenceGrounder {
 public:
  /// Grounds `program` (which gains the instantiated terms in its term
  /// table). The program must be finite-ground under `mode`.
  static ReferenceGround Ground(Program& program, GroundMode mode,
                                bool simplify) {
    ReferenceGrounder g(program);
    return mode == GroundMode::kFull ? g.Full() : g.Smart(simplify);
  }

 private:
  using GAtom = std::pair<SymbolId, std::vector<TermId>>;
  using Subst = std::map<SymbolId, TermId>;
  struct Instance {
    GAtom head;
    std::vector<GAtom> pos, neg;
  };

  explicit ReferenceGrounder(Program& program) : p_(program) {}

  // --- terms ---

  /// One-way matching of `pattern` against ground `t`, extending `s`.
  bool Match(TermId pattern, TermId t, Subst& s) const {
    const TermTable& tt = p_.terms();
    switch (tt.kind(pattern)) {
      case TermKind::kVariable: {
        auto [it, fresh] = s.emplace(tt.symbol(pattern), t);
        return fresh || it->second == t;
      }
      case TermKind::kConstant:
        return pattern == t;
      case TermKind::kCompound: {
        if (tt.kind(t) != TermKind::kCompound ||
            tt.symbol(t) != tt.symbol(pattern) ||
            tt.args(t).size() != tt.args(pattern).size()) {
          return false;
        }
        for (std::size_t i = 0; i < tt.args(t).size(); ++i) {
          if (!Match(tt.args(pattern)[i], tt.args(t)[i], s)) return false;
        }
        return true;
      }
    }
    return false;
  }

  TermId Apply(TermId t, const Subst& s) {
    TermTable& tt = p_.terms();
    switch (tt.kind(t)) {
      case TermKind::kVariable:
        return s.at(tt.symbol(t));
      case TermKind::kConstant:
        return t;
      case TermKind::kCompound: {
        // Copied first: interning a nested result may move the arg pool.
        std::vector<TermId> args(tt.args(t).begin(), tt.args(t).end());
        for (TermId& a : args) a = Apply(a, s);
        return tt.MakeCompound(tt.symbol(t), args);
      }
    }
    return t;
  }

  GAtom Apply(const Atom& a, const Subst& s) {
    GAtom out{a.predicate, {}};
    for (TermId t : a.args) out.second.push_back(Apply(t, s));
    return out;
  }

  Instance Apply(const Rule& r, const Subst& s) {
    Instance in{Apply(r.head, s), {}, {}};
    for (const Literal& l : r.body) {
      (l.positive ? in.pos : in.neg).push_back(Apply(l.atom, s));
    }
    return in;
  }

  std::string Name(const GAtom& a) const {
    std::string out;
    AppendSymbol(out, p_.symbols().Name(a.first));
    if (!a.second.empty()) {
      out += '(';
      for (std::size_t i = 0; i < a.second.size(); ++i) {
        if (i > 0) out += ',';
        out += p_.terms().ToString(a.second[i], p_.symbols());
      }
      out += ')';
    }
    return out;
  }

  // --- kSmart ---

  /// Every substitution under which all positive body atoms of `r` lie in
  /// `d`, found by matching the positive literals left to right.
  void PositiveMatches(const Rule& r, const std::set<GAtom>& d,
                       std::size_t i, Subst& s, std::vector<Subst>& out) {
    while (i < r.body.size() && !r.body[i].positive) ++i;
    if (i == r.body.size()) {
      out.push_back(s);
      return;
    }
    const Atom& lit = r.body[i].atom;
    // D is ordered by predicate first: scan just this predicate's atoms.
    for (auto it = d.lower_bound(GAtom{lit.predicate, {}});
         it != d.end() && it->first == lit.predicate; ++it) {
      const GAtom& cand = *it;
      if (cand.second.size() != lit.args.size()) continue;
      Subst next = s;
      bool ok = true;
      for (std::size_t k = 0; ok && k < lit.args.size(); ++k) {
        ok = Match(lit.args[k], cand.second[k], next);
      }
      if (ok) PositiveMatches(r, d, i + 1, next, out);
    }
  }

  ReferenceGround Smart(bool simplify) {
    // D: the least model of the positive projection, naive iteration.
    std::set<GAtom> d;
    for (bool changed = true; changed;) {
      changed = false;
      for (const Rule& r : p_.rules()) {
        std::vector<Subst> matches;
        Subst s;
        PositiveMatches(r, d, 0, s, matches);
        for (const Subst& m : matches) {
          changed |= d.insert(Apply(r.head, m)).second;
        }
      }
    }
    // P_H restricted to the instances whose positive body lies in D.
    std::vector<Instance> instances;
    for (const Rule& r : p_.rules()) {
      std::vector<Subst> matches;
      Subst s;
      PositiveMatches(r, d, 0, s, matches);
      for (const Subst& m : matches) instances.push_back(Apply(r, m));
    }
    if (simplify) {
      for (Instance& in : instances) {
        std::erase_if(in.neg, [&](const GAtom& a) { return !d.count(a); });
      }
    }
    ReferenceGround out = Collect(instances);
    if (simplify) {
      out.atoms.clear();
      for (const GAtom& a : d) out.atoms.push_back(Name(a));
      std::sort(out.atoms.begin(), out.atoms.end());
    }
    return out;
  }

  // --- kFull ---

  void CollectConstants(TermId t, std::set<TermId>& out) const {
    const TermTable& tt = p_.terms();
    if (tt.kind(t) == TermKind::kConstant) out.insert(t);
    for (TermId a : tt.args(t)) CollectConstants(a, out);
  }

  void CollectVariables(TermId t, std::set<SymbolId>& out) const {
    const TermTable& tt = p_.terms();
    if (tt.kind(t) == TermKind::kVariable) out.insert(tt.symbol(t));
    for (TermId a : tt.args(t)) CollectVariables(a, out);
  }

  ReferenceGround Full() {
    std::set<TermId> domain;
    for (const Rule& r : p_.rules()) {
      for (TermId t : r.head.args) CollectConstants(t, domain);
      for (const Literal& l : r.body) {
        for (TermId t : l.atom.args) CollectConstants(t, domain);
      }
    }
    std::vector<Instance> instances;
    for (const Rule& r : p_.rules()) {
      std::set<SymbolId> var_set;
      for (TermId t : r.head.args) CollectVariables(t, var_set);
      for (const Literal& l : r.body) {
        for (TermId t : l.atom.args) CollectVariables(t, var_set);
      }
      const std::vector<SymbolId> vars(var_set.begin(), var_set.end());
      Subst s;
      auto assign = [&](auto&& self, std::size_t i) -> void {
        if (i == vars.size()) {
          instances.push_back(Apply(r, s));
          return;
        }
        for (TermId c : domain) {
          s[vars[i]] = c;
          self(self, i + 1);
        }
      };
      assign(assign, 0);
    }
    return Collect(instances);
  }

  /// Distinct canonical rules, and every atom they mention.
  ReferenceGround Collect(const std::vector<Instance>& instances) const {
    std::set<std::string> rules, atoms;
    for (const Instance& in : instances) {
      std::vector<std::string> pos, neg;
      for (const GAtom& a : in.pos) pos.push_back(Name(a));
      for (const GAtom& a : in.neg) neg.push_back(Name(a));
      const std::string head = Name(in.head);
      atoms.insert(head);
      atoms.insert(pos.begin(), pos.end());
      atoms.insert(neg.begin(), neg.end());
      rules.insert(CanonicalRule(head, pos, neg));
    }
    return {{rules.begin(), rules.end()}, {atoms.begin(), atoms.end()}};
  }

  Program& p_;
};

}  // namespace afp

#endif  // AFP_TESTS_REFERENCE_GROUNDER_H_
