#include "ground/grounder.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ground/ground_match.h"

namespace afp {

namespace {

/// A fully instantiated rule awaiting final assembly: body literals live
/// in a shared AtomId pool (pending_pool_).
struct PendingMeta {
  AtomId head;
  std::uint32_t pos_offset;
  std::uint32_t pos_len;
  std::uint32_t neg_offset;
  std::uint32_t neg_len;
};

class GrounderImpl {
 public:
  GrounderImpl(Program& program, const GroundOptions& opts)
      : program_(program),
        opts_(opts),
        dedupe_emitted_(opts.mode == GroundMode::kSmart && !opts.semi_naive) {}

  StatusOr<GroundProgram> Run() {
    // Split facts from proper rules; facts seed round 0.
    for (const Rule& r : program_.rules()) {
      if (r.IsFact(program_.terms())) {
        AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(r.head.predicate,
                                                   r.head.args));
        if (!core_.derived(id)) MarkDerived(id, 0);
        fact_atoms_.push_back(id);
      } else {
        rules_.push_back(&r);
      }
    }

    if (opts_.mode == GroundMode::kFull) {
      AFP_RETURN_IF_ERROR(FullInstantiation());
    } else {
      AFP_RETURN_IF_ERROR(SmartInstantiation());
    }
    return Assemble();
  }

  std::uint64_t candidates_visited() const {
    return core_.candidates_visited();
  }

 private:
  // --- atom bookkeeping ---

  StatusOr<AtomId> InternAtom(SymbolId pred, std::span<const TermId> args) {
    AtomId id = atoms_.Intern(pred, args);
    if (id >= core_.size()) {
      if (atoms_.size() > opts_.max_atoms) {
        return Status::ResourceExhausted(
            "grounding exceeded max_atoms=" +
            std::to_string(opts_.max_atoms) +
            " (infinite Herbrand universe? raise GroundOptions::max_atoms)");
      }
      core_.Track(atoms_.size());
    }
    return id;
  }

  void MarkDerived(AtomId id, std::uint32_t round) {
    core_.MarkDerived(id, atoms_.predicate(id), round);
  }

  // --- full (active-domain) instantiation ---

  Status FullInstantiation() {
    // Active domain: every constant occurring anywhere in the program.
    std::vector<TermId> domain;
    {
      std::unordered_set<TermId> seen;
      auto visit_term = [&](auto&& self, TermId t) -> void {
        const TermTable& tt = program_.terms();
        if (tt.kind(t) == TermKind::kConstant) {
          if (seen.insert(t).second) domain.push_back(t);
        }
        for (TermId a : tt.args(t)) self(self, a);
      };
      for (const Rule& r : program_.rules()) {
        for (TermId t : r.head.args) visit_term(visit_term, t);
        for (const Literal& l : r.body) {
          for (TermId t : l.atom.args) visit_term(visit_term, t);
        }
      }
    }

    // Distinct assignments give distinct instances (every variable occurs
    // in some atom), so no emission dedupe is needed; simplification is
    // off in full mode, so the derived flags go unused.
    for (const Rule* r : rules_) {
      std::vector<SymbolId> vars;
      auto collect_atom = [&](const Atom& a) {
        for (TermId t : a.args) program_.terms().CollectVariables(t, vars);
      };
      collect_atom(r->head);
      for (const Literal& l : r->body) collect_atom(l.atom);
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

      core_.binding().Clear();
      AFP_RETURN_IF_ERROR(EnumerateAssignments(*r, vars, 0, domain));
    }
    return Status::Ok();
  }

  Status EnumerateAssignments(const Rule& r, const std::vector<SymbolId>& vars,
                              std::size_t i,
                              const std::vector<TermId>& domain) {
    TermBinding& binding = core_.binding();
    if (i == vars.size()) return EmitInstance(r, binding, {});
    const std::size_t mark = binding.size();
    for (TermId c : domain) {
      binding.Bind(vars[i], c);
      AFP_RETURN_IF_ERROR(EnumerateAssignments(r, vars, i + 1, domain));
      binding.Undo(mark);
    }
    return Status::Ok();
  }

  // --- smart (derivability-driven) instantiation ---

  Status SmartInstantiation() {
    // Trigger index: for each predicate, the (rule, positive-literal index)
    // pairs whose literal has that predicate. A round only revisits rules
    // triggered by the previous round's newly derived atoms.
    std::unordered_map<SymbolId,
                       std::vector<std::pair<const Rule*, std::size_t>>>
        triggers;
    std::vector<const Rule*> body_free_rules;
    for (const Rule* r : rules_) {
      std::size_t num_pos = 0;
      for (const Literal& l : r->body) {
        if (l.positive) {
          triggers[l.atom.predicate].push_back({r, num_pos});
          ++num_pos;
        }
      }
      if (num_pos == 0) body_free_rules.push_back(r);
    }

    auto emit = [this](const Rule& r) {
      return [this, &r](const TermBinding& b, std::span<const AtomId> m) {
        return EmitInstance(r, b, m);
      };
    };
    std::size_t delta_begin = 0;  // derived_log range of the last round
    std::size_t delta_end = core_.derived_log().size();  // facts = round 0
    std::uint32_t round = 1;
    while (true) {
      current_emit_round_ = round;
      const std::size_t log_before = core_.derived_log().size();
      if (round == 1) {
        // Fully ground rules (no positive literals): exactly once.
        for (const Rule* r : body_free_rules) {
          core_.binding().Clear();
          AFP_RETURN_IF_ERROR(EmitInstance(*r, core_.binding(), {}));
        }
      }
      if (!opts_.semi_naive) {
        // Naive: re-join everything derived so far, every round.
        for (const Rule* r : rules_) {
          std::size_t num_pos = 0;
          for (const Literal& l : r->body) num_pos += l.positive;
          if (num_pos == 0) continue;
          AFP_RETURN_IF_ERROR(core_.Join(program_.terms(), atoms_, *r,
                                         /*delta_pos=*/num_pos, round,
                                         /*semi_naive=*/false, emit(*r)));
        }
      } else {
        // Semi-naive: fire only the rules whose bodies mention a predicate
        // that gained atoms in the previous round, at that delta position,
        // in ascending-SymbolId order (rule firing order — and therefore
        // atom/rule ids — must not depend on hashing).
        for (SymbolId pred :
             core_.DeltaPredicates(atoms_, delta_begin, delta_end)) {
          auto it = triggers.find(pred);
          if (it == triggers.end()) continue;
          for (const auto& [r, dp] : it->second) {
            AFP_RETURN_IF_ERROR(core_.Join(program_.terms(), atoms_, *r, dp,
                                           round, /*semi_naive=*/true,
                                           emit(*r)));
          }
        }
      }
      if (core_.derived_log().size() == log_before) break;  // no new atoms
      delta_begin = log_before;
      delta_end = core_.derived_log().size();
      ++round;
    }
    return Status::Ok();
  }

  // --- instance emission ---

  /// Substitutes `binding` into `a`'s arguments; every result must be
  /// ground (guaranteed by rule safety for head and body alike).
  Status SubstArgs(const Rule& r, const Atom& a, const TermBinding& binding,
                   const char* what, std::vector<TermId>& out) {
    out.clear();
    out.reserve(a.args.size());
    for (TermId t : a.args) {
      TermId g = program_.terms().Substitute(t, binding);
      if (!program_.terms().IsGround(g)) {
        return Status::Internal(std::string("non-ground ") + what +
                                " after substitution in '" +
                                program_.RuleToString(r) + "'");
      }
      out.push_back(g);
    }
    return Status::Ok();
  }

  /// Emits the instance of `r` under `binding`: substitute the head and
  /// the negative literals into reusable scratch, take the positive
  /// literals from `matched` (the atoms the join matched at the positive
  /// body positions; empty when the instance did not come from a join:
  /// body-free rules, full mode), and append to the pending pool. A
  /// semi-naive or full enumeration visits every instance of a rule once,
  /// so only naive mode checks the pool for an identical earlier instance
  /// (hashed in place); duplicates across rules fall to GroundProgram's
  /// structural dedupe in Assemble, which keeps the first occurrence.
  Status EmitInstance(const Rule& r, const TermBinding& binding,
                      std::span<const AtomId> matched) {
    AFP_RETURN_IF_ERROR(SubstArgs(r, r.head, binding, "head", emit_args_));
    AtomId head;
    AFP_ASSIGN_OR_RETURN(head, InternAtom(r.head.predicate, emit_args_));
    emit_pos_.clear();
    emit_neg_.clear();
    std::size_t k = 0;
    for (const Literal& l : r.body) {
      if (l.positive && k < matched.size()) {
        emit_pos_.push_back(matched[k++]);
        continue;
      }
      AFP_RETURN_IF_ERROR(
          SubstArgs(r, l.atom, binding, "body literal", emit_args_));
      AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(l.atom.predicate,
                                                 emit_args_));
      (l.positive ? emit_pos_ : emit_neg_).push_back(id);
    }

    if (dedupe_emitted_) {
      const std::uint64_t h = HashGroundRule(head, emit_pos_, emit_neg_);
      const std::uint32_t next =
          static_cast<std::uint32_t>(pending_meta_.size());
      const std::uint32_t got = emitted_.FindOrInsert(
          h, next, [&](std::uint32_t id) { return PendingEquals(id, head); });
      if (got != next) return Status::Ok();
    }
    AFP_RETURN_IF_ERROR(CountEmitted());
    if (!core_.derived(head)) MarkDerived(head, current_emit_round_);
    PendingMeta m;
    m.head = head;
    m.pos_offset = static_cast<std::uint32_t>(pending_pool_.size());
    m.pos_len = static_cast<std::uint32_t>(emit_pos_.size());
    pending_pool_.insert(pending_pool_.end(), emit_pos_.begin(),
                         emit_pos_.end());
    m.neg_offset = static_cast<std::uint32_t>(pending_pool_.size());
    m.neg_len = static_cast<std::uint32_t>(emit_neg_.size());
    pending_pool_.insert(pending_pool_.end(), emit_neg_.begin(),
                         emit_neg_.end());
    pending_meta_.push_back(m);
    return Status::Ok();
  }

  /// True iff pending instance `id` equals the scratch instance
  /// (emit_pos_/emit_neg_ + `head`). Order-sensitive — body reordering is
  /// collapsed later by GroundProgram's structural dedupe. Reads
  /// pending_pool_ in place.
  bool PendingEquals(std::uint32_t id, AtomId head) const {
    const PendingMeta& m = pending_meta_[id];
    if (m.head != head || m.pos_len != emit_pos_.size() ||
        m.neg_len != emit_neg_.size()) {
      return false;
    }
    const AtomId* pool = pending_pool_.data();
    return std::equal(emit_pos_.begin(), emit_pos_.end(),
                      pool + m.pos_offset) &&
           std::equal(emit_neg_.begin(), emit_neg_.end(),
                      pool + m.neg_offset);
  }

  /// Charges one emitted instance against GroundOptions::max_rules.
  Status CountEmitted() {
    if (num_emitted_ >= opts_.max_rules) {
      return Status::ResourceExhausted(
          "grounding exceeded max_rules=" + std::to_string(opts_.max_rules));
    }
    ++num_emitted_;
    return Status::Ok();
  }

  // --- final assembly ---

  StatusOr<GroundProgram> Assemble() {
    const bool simplify = opts_.simplify && opts_.mode != GroundMode::kFull;
    GroundProgram gp(&program_);
    auto kept = [&](AtomId a) { return !simplify || core_.derived(a); };

    // Compact the atom table: in simplify mode, only derivable atoms remain
    // in the base (everything else is certainly false and gets erased from
    // rule bodies below).
    // Kept atoms are distinct and already in id order: they are appended
    // with their hash into a table sized up front, no equality probe.
    std::vector<AtomId> remap(atoms_.size(), kInvalidAtom);
    std::size_t num_kept = 0;
    for (AtomId a = 0; a < atoms_.size(); ++a) num_kept += kept(a);
    gp.atoms().Reserve(num_kept);
    for (AtomId a = 0; a < atoms_.size(); ++a) {
      if (kept(a)) {
        remap[a] = gp.atoms().AppendUnique(atoms_.predicate(a),
                                           atoms_.args(a));
      }
    }

    // Empty-body rules (facts, and rules whose every literal simplified
    // away) are deduped by head atom id; they can only equal one another,
    // so the structural index sees just the rules with a body.
    std::vector<std::uint8_t> fact_seen(gp.num_atoms(), 0);
    auto add_rule = [&](AtomId head, std::span<const AtomId> pos,
                        std::span<const AtomId> neg) {
      if (pos.empty() && neg.empty()) {
        if (fact_seen[head]) return;
        fact_seen[head] = 1;
        gp.AddRule(head, {}, {}, /*dedupe=*/false);
        return;
      }
      gp.AddRule(head, pos, neg);
    };
    for (AtomId f : fact_atoms_) add_rule(remap[f], {}, {});
    std::vector<AtomId> pos, neg;
    auto add_pending = [&](AtomId head, std::span<const AtomId> ppos,
                           std::span<const AtomId> pneg) {
      pos.clear();
      neg.clear();
      for (AtomId a : ppos) pos.push_back(remap[a]);
      for (AtomId a : pneg) {
        if (simplify && !core_.derived(a)) continue;  // certainly-true literal
        neg.push_back(remap[a]);
      }
      add_rule(remap[head], pos, neg);
    };
    for (const PendingMeta& m : pending_meta_) {
      add_pending(m.head, {pending_pool_.data() + m.pos_offset, m.pos_len},
                  {pending_pool_.data() + m.neg_offset, m.neg_len});
    }

    // The grounding receipt: fold in the counters of every scratch
    // structure this grounder is about to destroy (its own atom table, the
    // naive-mode instance-dedupe index, the candidate-list arena). The
    // live tables the program keeps (gp.atoms(), program_.terms()) are read
    // separately by Solver::Stats so their counters keep accumulating.
    GroundStats& gs = gp.grounding_stats_mutable();
    gs.Absorb(atoms_.index_stats());
    gs.Absorb(emitted_.stats());
    gs.arena_bytes = core_.arena_bytes();
    gs.join_candidates_visited = core_.candidates_visited();

    // Grounding is done: drop the dedupe bookkeeping before the program
    // starts its long life. Folds the rule-dedupe index counters into the
    // receipt.
    gp.SealRules();
    gs.atoms = gp.num_atoms();
    gs.rules = gp.num_rules();
    return gp;
  }

  Program& program_;
  const GroundOptions& opts_;
  std::vector<const Rule*> rules_;  // non-fact rules

  AtomTable atoms_;
  /// Derivation state, candidate lists and the join (shared with the
  /// incremental grounder).
  JoinCore core_;
  std::vector<AtomId> fact_atoms_;
  std::uint32_t current_emit_round_ = 1;

  // Emitted-instance dedupe + pending storage: a (hash, id) index over the
  // shared AtomId pool, consulted only when dedupe_emitted_ (naive mode).
  const bool dedupe_emitted_;
  std::size_t num_emitted_ = 0;  // instances charged against max_rules
  std::vector<PendingMeta> pending_meta_;
  std::vector<AtomId> pending_pool_;
  FlatIndex emitted_;

  // Reusable emission scratch.
  std::vector<TermId> emit_args_;
  std::vector<AtomId> emit_pos_, emit_neg_;
};

}  // namespace

StatusOr<GroundProgram> Grounder::Ground(Program& program,
                                         const GroundOptions& options,
                                         std::uint64_t* candidates_visited) {
  AFP_RETURN_IF_ERROR(program.Validate());
  GrounderImpl impl(program, options);
  StatusOr<GroundProgram> out = impl.Run();
  if (candidates_visited != nullptr) {
    *candidates_visited = impl.candidates_visited();
  }
  return out;
}

}  // namespace afp
