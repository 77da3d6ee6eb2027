#include "ground/incremental_grounder.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace afp {

namespace {

/// Structural equivalence of two terms up to a bijective variable renaming
/// (`ab`/`ba` accumulate the two directions of the bijection). Constants and
/// compounds are hash-consed, so ground subterms compare by id.
bool TermEquiv(const TermTable& tt, TermId a, TermId b,
               std::unordered_map<SymbolId, SymbolId>& ab,
               std::unordered_map<SymbolId, SymbolId>& ba) {
  if (tt.kind(a) != tt.kind(b)) return false;
  switch (tt.kind(a)) {
    case TermKind::kVariable: {
      SymbolId va = tt.symbol(a), vb = tt.symbol(b);
      auto [ita, insa] = ab.emplace(va, vb);
      auto [itb, insb] = ba.emplace(vb, va);
      return ita->second == vb && itb->second == va && insa == insb;
    }
    case TermKind::kConstant:
      return a == b;
    case TermKind::kCompound: {
      if (tt.symbol(a) != tt.symbol(b)) return false;
      auto aa = tt.args(a), bb = tt.args(b);
      if (aa.size() != bb.size()) return false;
      for (std::size_t i = 0; i < aa.size(); ++i) {
        if (!TermEquiv(tt, aa[i], bb[i], ab, ba)) return false;
      }
      return true;
    }
  }
  return false;
}

bool AtomEquiv(const TermTable& tt, const Atom& a, const Atom& b,
               std::unordered_map<SymbolId, SymbolId>& ab,
               std::unordered_map<SymbolId, SymbolId>& ba) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    if (!TermEquiv(tt, a.args[i], b.args[i], ab, ba)) return false;
  }
  return true;
}

/// Rule equivalence up to variable renaming; body literal order is
/// significant (the removal API matches the rule as written).
bool RuleEquiv(const TermTable& tt, const Rule& a, const Rule& b) {
  if (a.body.size() != b.body.size()) return false;
  std::unordered_map<SymbolId, SymbolId> ab, ba;
  if (!AtomEquiv(tt, a.head, b.head, ab, ba)) return false;
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    if (a.body[i].positive != b.body[i].positive) return false;
    if (!AtomEquiv(tt, a.body[i].atom, b.body[i].atom, ab, ba)) return false;
  }
  return true;
}

std::size_t NumPositive(const Rule& r) {
  std::size_t n = 0;
  for (const Literal& l : r.body) n += l.positive;
  return n;
}

}  // namespace

StatusOr<AtomId> IncrementalGrounder::InternAtom(
    SymbolId pred, std::span<const TermId> args) {
  AtomId id = gp_.atoms().Intern(pred, args);
  if (id >= core_.size()) {
    if (gp_.atoms().size() > opts_.max_atoms) {
      return Status::ResourceExhausted(
          "delta grounding exceeded max_atoms=" +
          std::to_string(opts_.max_atoms));
    }
    core_.Track(gp_.atoms().size());
  }
  return id;
}

void IncrementalGrounder::MarkDerived(AtomId id, std::uint32_t round) {
  core_.MarkDerived(id, gp_.atoms().predicate(id), round);
}

void IncrementalGrounder::RegisterSourceRules() {
  const auto& rules = program_.rules();
  for (std::size_t ri = alive_.size(); ri < rules.size(); ++ri) {
    const Rule& r = rules[ri];
    if (r.IsFact(program_.terms())) {
      alive_.push_back(0);  // EDB facts are the Solver's business
      continue;
    }
    alive_.push_back(1);
    ++num_live_;
    std::uint32_t num_pos = 0;
    for (const Literal& l : r.body) {
      if (!l.positive) continue;
      triggers_[l.atom.predicate].push_back(
          {static_cast<std::uint32_t>(ri), num_pos});
      ++num_pos;
    }
  }
}

Status IncrementalGrounder::Init(std::span<const AtomId> extra_derived,
                                 MutationDelta* delta) {
  if (initialized_) return Status::Ok();
  delta->atoms_before = gp_.num_atoms();

  core_.Track(gp_.num_atoms());
  rule_sigs_.assign(gp_.num_rules(), nullptr);
  current_round_ = 0;

  // Reconstruct derivability and instance provenance from the ground
  // program: every head is derivable; every non-fact rule is an instance
  // whose emitting-rule count the live-rule instantiation below recovers.
  for (std::uint32_t ri = 0; ri < gp_.num_rules(); ++ri) {
    const GroundRule& gr = gp_.rule(ri);
    if (!core_.derived(gr.head)) MarkDerived(gr.head, 0);
    if (gr.pos_len + gr.neg_len == 0) continue;  // fact
    auto p = gp_.pos(gr);
    auto n = gp_.neg(gr);
    GroundRuleSig sig{gr.head,
                      {p.begin(), p.end()},
                      {n.begin(), n.end()}};
    auto [it, inserted] = sigs_.emplace(std::move(sig), SigEntry{0, ri});
    assert(inserted && "sealed ground program holds duplicate rules");
    if (inserted) rule_sigs_[ri] = &*it;
  }
  // Heads of facts retracted before this point supported instances that
  // are still in the program; without re-adding them the removal-side
  // re-enumeration would miss those instances (and a later re-assert could
  // resurrect rules whose source was removed).
  for (AtomId a : extra_derived) {
    if (a < core_.size() && !core_.derived(a)) MarkDerived(a, 0);
  }

  RegisterSourceRules();
  initialized_ = true;

  // Instantiate every live rule over the derived set. Existing instances
  // bump their provenance count; instances newly enabled by post-seal
  // asserts are spliced in (the deferred-extension contract).
  const std::size_t log_before = core_.derived_log().size();
  ++current_round_;
  for (std::size_t ri = 0; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    const Rule& r = program_.rules()[ri];
    ++delta->rules_reground;
    // Full join (delta_pos == num_pos puts every position under the
    // strictly-old filter): round + 1 makes "old" mean everything up to
    // and including the previous round, while heads derived by this very
    // join (marked at current_round_) stay invisible until the cascade.
    AFP_RETURN_IF_ERROR(Join(r, NumPositive(r), current_round_ + 1,
                             /*emit_only=*/false, delta));
  }
  AFP_RETURN_IF_ERROR(CascadeFrom(log_before, delta));
  delta->atoms_after = gp_.num_atoms();
  return Status::Ok();
}

Status IncrementalGrounder::AddSourceRules(std::size_t first_rule,
                                           MutationDelta* delta) {
  assert(initialized_);
  assert(first_rule == alive_.size());
  delta->atoms_before = gp_.num_atoms();
  RegisterSourceRules();
  const std::size_t log_before = core_.derived_log().size();
  ++current_round_;
  for (std::size_t ri = first_rule; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    const Rule& r = program_.rules()[ri];
    ++delta->rules_reground;
    // Full join over everything derived so far (see Init for the round
    // + 1 convention).
    AFP_RETURN_IF_ERROR(Join(r, NumPositive(r), current_round_ + 1,
                             /*emit_only=*/false, delta));
  }
  AFP_RETURN_IF_ERROR(CascadeFrom(log_before, delta));
  delta->atoms_after = gp_.num_atoms();
  return Status::Ok();
}

Status IncrementalGrounder::RemoveSourceRule(std::size_t rule_index,
                                             MutationDelta* delta) {
  assert(initialized_);
  if (!IsLive(rule_index)) {
    return Status::InvalidArgument("rule is not live");
  }
  delta->atoms_before = gp_.num_atoms();
  alive_[rule_index] = 0;
  --num_live_;
  const Rule& r = program_.rules()[rule_index];
  // Re-enumerate the rule's instances over the current derived set — by
  // the emission invariant this is exactly the set it has emitted — and
  // decrement their provenance counts (emit_only: no derivation effects).
  ++current_round_;
  ++delta->rules_reground;
  // Full join (round + 1: every derived atom is visible; emit_only marks
  // nothing, so the enumeration is exactly the rule's emitted set).
  AFP_RETURN_IF_ERROR(Join(r, NumPositive(r), current_round_ + 1,
                           /*emit_only=*/true, delta));
  delta->atoms_after = gp_.num_atoms();
  return Status::Ok();
}

Status IncrementalGrounder::SyncNewlyDerived(std::span<const AtomId> atoms,
                                             MutationDelta* delta) {
  if (!initialized_) return Status::Ok();  // folded in at Init instead
  delta->atoms_before = gp_.num_atoms();
  const std::size_t log_before = core_.derived_log().size();
  ++current_round_;
  for (AtomId a : atoms) {
    if (a < core_.size() && !core_.derived(a)) MarkDerived(a, current_round_);
  }
  if (core_.derived_log().size() != log_before) {
    AFP_RETURN_IF_ERROR(CascadeFrom(log_before, delta));
  }
  delta->atoms_after = gp_.num_atoms();
  return Status::Ok();
}

Status IncrementalGrounder::CascadeFrom(std::size_t delta_begin,
                                        MutationDelta* delta) {
  std::size_t delta_end = core_.derived_log().size();
  while (delta_begin < delta_end) {
    ++current_round_;
    for (SymbolId pred :
         core_.DeltaPredicates(gp_.atoms(), delta_begin, delta_end)) {
      auto it = triggers_.find(pred);
      if (it == triggers_.end()) continue;
      for (const auto& [ri, dp] : it->second) {
        if (!alive_[ri]) continue;
        const Rule& r = program_.rules()[ri];
        ++delta->rules_reground;
        AFP_RETURN_IF_ERROR(
            Join(r, dp, current_round_, /*emit_only=*/false, delta));
      }
    }
    delta_begin = delta_end;
    delta_end = core_.derived_log().size();
  }
  return Status::Ok();
}

Status IncrementalGrounder::Join(const Rule& r, std::size_t delta_pos,
                                 std::uint32_t round, bool emit_only,
                                 MutationDelta* delta) {
  return core_.Join(program_.terms(), gp_.atoms(), r, delta_pos, round,
                    /*semi_naive=*/true,
                    [&](const TermBinding& b, std::span<const AtomId> m) {
                      return EmitInstance(r, b, m, emit_only, delta);
                    });
}

Status IncrementalGrounder::BuildSig(const Rule& r,
                                     const TermBinding& binding,
                                     std::span<const AtomId> matched,
                                     GroundRuleSig& sig) {
  std::vector<TermId> args;
  args.reserve(r.head.args.size());
  for (TermId t : r.head.args) {
    TermId g = program_.terms().Substitute(t, binding);
    if (!program_.terms().IsGround(g)) {
      return Status::Internal("non-ground head after substitution in '" +
                              program_.RuleToString(r) + "'");
    }
    args.push_back(g);
  }
  AFP_ASSIGN_OR_RETURN(sig.head, InternAtom(r.head.predicate, args));
  // Positive literals are the atoms the join matched; only the negative
  // ones are substituted and interned.
  sig.pos.assign(matched.begin(), matched.end());
  for (const Literal& l : r.body) {
    if (l.positive) continue;
    args.clear();
    args.reserve(l.atom.args.size());
    for (TermId t : l.atom.args) {
      TermId g = program_.terms().Substitute(t, binding);
      if (!program_.terms().IsGround(g)) {
        return Status::Internal(
            "non-ground body literal after substitution in '" +
            program_.RuleToString(r) + "'");
      }
      args.push_back(g);
    }
    AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(l.atom.predicate, args));
    sig.neg.push_back(id);
  }
  return Status::Ok();
}

Status IncrementalGrounder::EmitInstance(const Rule& r,
                                         const TermBinding& binding,
                                         std::span<const AtomId> matched,
                                         bool emit_only,
                                         MutationDelta* delta) {
  GroundRuleSig sig;
  AFP_RETURN_IF_ERROR(BuildSig(r, binding, matched, sig));

  if (emit_only) {
    // Removal side: decrement provenance; drop the ground rule when its
    // last emitting source rule goes away.
    auto it = sigs_.find(sig);
    if (it == sigs_.end() || it->second.count == 0) {
      return Status::Internal(
          "rule removal found an instance with no provenance (invariant "
          "breach): " + program_.RuleToString(r));
    }
    if (--it->second.count > 0) return Status::Ok();
    const std::uint32_t gp_rule = it->second.gp_rule;
    GroundProgram::FactRemoval rem = gp_.RemoveRuleAt(gp_rule);
    const AtomId moved_head = rem.moved_rule != rem.erased_rule
                                  ? gp_.rule(rem.erased_rule).head
                                  : kInvalidAtom;
    delta->removals.push_back({rem.erased_rule, rem.moved_rule, sig.head,
                               moved_head, std::move(sig.pos),
                               std::move(sig.neg)});
    auto* moved = rule_sigs_[rem.moved_rule];
    rule_sigs_[rem.erased_rule] = moved;
    if (moved != nullptr) moved->second.gp_rule = rem.erased_rule;
    rule_sigs_.pop_back();
    sigs_.erase(it);
    return Status::Ok();
  }

  auto it = sigs_.find(sig);
  if (it != sigs_.end()) {
    // Already present (emitted by another live rule, or by this rule in an
    // earlier session round): just add provenance.
    ++it->second.count;
    return Status::Ok();
  }
  if (gp_.num_rules() >= opts_.max_rules) {
    return Status::ResourceExhausted("delta grounding exceeded max_rules=" +
                                     std::to_string(opts_.max_rules));
  }
  const AtomId head = sig.head;
  gp_.AddRule(head, sig.pos, sig.neg, /*dedupe=*/false);
  const std::uint32_t id = static_cast<std::uint32_t>(gp_.num_rules() - 1);
  auto [it2, inserted] = sigs_.emplace(std::move(sig), SigEntry{1, id});
  assert(inserted);
  rule_sigs_.push_back(&*it2);
  delta->added_rules.push_back(id);
  delta->added_heads.push_back(head);
  if (!core_.derived(head)) MarkDerived(head, current_round_);
  return Status::Ok();
}

std::optional<std::size_t> IncrementalGrounder::FindLiveRule(
    const Rule& r) const {
  for (std::size_t ri = 0; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    if (RuleEquiv(program_.terms(), program_.rules()[ri], r)) return ri;
  }
  return std::nullopt;
}

void IncrementalGrounder::NoteFactRemoved(std::uint32_t erased_rule,
                                          std::uint32_t moved_rule) {
  if (!initialized_) return;
  auto* moved = rule_sigs_[moved_rule];
  rule_sigs_[erased_rule] = moved;
  if (moved != nullptr) moved->second.gp_rule = erased_rule;
  rule_sigs_.pop_back();
}

}  // namespace afp
