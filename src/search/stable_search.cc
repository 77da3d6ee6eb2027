#include "search/stable_search.h"

#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "exec/scheduler.h"
#include "stable/gl_transform.h"

namespace afp {

namespace {

/// The first atom at or after `from` in neither `t` nor `f`, or
/// kInvalidAtom when every atom is decided.
AtomId FirstUndecided(const Bitset& t, const Bitset& f, std::size_t from) {
  for (std::size_t wi = from >> 6; wi < t.num_words(); ++wi) {
    std::uint64_t open = ~(t.word(wi) | f.word(wi));
    if (wi == from >> 6) open &= ~0ULL << (from & 63);
    if (open != 0) {
      const std::size_t a = wi * 64 + std::countr_zero(open);
      return a < t.universe_size() ? static_cast<AtomId>(a) : kInvalidAtom;
    }
  }
  return kInvalidAtom;
}

/// The rules of `from` a node's children still evaluate under its decided
/// sets (t, f): head undecided and not `branch`, no positive body atom in
/// f, no negative body atom in t.
void FilterResidual(const RuleView& view, std::span<const std::uint32_t> from,
                    const Bitset& t, const Bitset& f, AtomId branch,
                    std::vector<std::uint32_t>* out) {
  out->clear();
  for (std::uint32_t ri : from) {
    const GroundRule& r = view.rules[ri];
    if (r.head == branch || t.Test(r.head) || f.Test(r.head)) continue;
    bool open = true;
    for (AtomId a : view.pos(r)) open = open && !f.Test(a);
    for (AtomId a : view.neg(r)) open = open && !t.Test(a);
    if (open) out->push_back(ri);
  }
}

/// Returns a slot's bitset to the pool (a moved-from shell would seed it
/// with zero-capacity buffers) and installs `value` in its place.
void Install(EvalContext& ctx, Bitset& slot, Bitset&& value) {
  if (slot.CapacityBytes() != 0) ctx.ReleaseBitset(std::move(slot));
  slot = std::move(value);
}

}  // namespace

ParallelStableSearch::ParallelStableSearch(const GroundProgram& gp,
                                           ParallelSearchOptions options)
    : gp_(gp),
      options_(options),
      index_(gp.View()),
      all_rules_(gp.num_rules()),
      no_atoms_(gp.num_atoms()) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_ = std::make_unique<EvalContextRegistry>();
    registry_ = own_registry_.get();
  }
  // Built here, on the constructing thread, so the workers only read it.
  index_.neg_occ_offsets();
  std::iota(all_rules_.begin(), all_rules_.end(), 0u);
  afp_options_.horn_mode = options_.horn_mode;
  afp_options_.sp_mode = options_.sp_mode;
  if (!options_.wfs_propagation) {
    // Atoms not derivable even with every negative literal granted can
    // never belong to a stable model (S_P is monotonic) — the same static
    // cut the sequential search computes, done once.
    Bitset all(gp_.num_atoms());
    all.SetAll();
    statically_false_ = Bitset::ComplementOf(
        index_.EventualConsequences(all, options_.horn_mode));
  }
}

ParallelStableSearch::~ParallelStableSearch() = default;

void ParallelStableSearch::SeedRoot(const Bitset& wf_true,
                                    const Bitset& wf_false) {
  seed_true_ = wf_true;
  seed_false_ = wf_false;
  seeded_ = true;
}

void ParallelStableSearch::ClearSeed() {
  seed_true_ = Bitset();
  seed_false_ = Bitset();
  seeded_ = false;
}

ParallelSearchResult ParallelStableSearch::Enumerate(
    const StableSearchControl& control) {
  return Run(control, /*count_only=*/false);
}

ParallelSearchResult ParallelStableSearch::Count(
    const StableSearchControl& control) {
  return Run(control, /*count_only=*/true);
}

ParallelSearchResult ParallelStableSearch::Run(
    const StableSearchControl& control, bool count_only) {
  int requested = options_.num_threads < 1 ? 1 : options_.num_threads;
  if (requested > 256) requested = 256;  // RunWorkPool's own clamp
  const std::size_t nw = static_cast<std::size_t>(requested);

  // Grow the worker roster to the pool size; slots persist across runs
  // with their contexts, evaluators and frame stacks warm.
  registry_->EnsureSize(nw);
  while (workers_.size() < nw) workers_.emplace_back();
  for (std::size_t i = 0; i < nw; ++i) {
    Worker& w = workers_[i];
    if (w.ctx == nullptr) {
      w.ctx = &registry_->ForWorker(i);
      w.even.emplace(index_, *w.ctx, options_.sp_mode, options_.horn_mode);
      w.odd.emplace(index_, *w.ctx, options_.sp_mode, options_.horn_mode);
      w.leaf.emplace(index_, *w.ctx, options_.sp_mode, options_.horn_mode);
    }
    w.leaf_masked = false;
    w.nodes = 0;
    w.afp_calls = 0;
    w.implied_atoms = 0;
    w.leaves = 0;
    w.stable_checks = 0;
    w.pruned = 0;
    w.residual_rules = 0;
    w.inline_nodes = 0;
    w.start = w.ctx->stats();
  }

  num_workers_ = nw;
  count_only_ = count_only;
  max_models_ = control.max_models;
  cancel_ = control.cancel;
  has_deadline_ = control.timeout.count() > 0;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() + control.timeout;
  }
  stop_.store(false, std::memory_order_relaxed);
  models_.clear();
  emitted_ = 0;
  finished_ = false;
  // Root seeding only replaces the root's well-founded propagation; the
  // positive-closure ablation computes something weaker at the root, so a
  // seed there would change the branch tree rather than shortcut it.
  use_seed_ = seeded_ && options_.wfs_propagation;

  WorkPoolStats pstats;
  pstats.num_workers = nw;
  if (max_models_ == 0) {
    finished_ = true;  // the empty prefix, exactly
  } else {
    // The whole tree is one item writing one segment; workers split
    // further items off it on demand (see "Splitting" in the header).
    Segment& all = segments_.emplace_back();
    cursor_ = &all;
    Item& root = items_.emplace_back();
    root.out = &all;
    outstanding_.store(1, std::memory_order_relaxed);
    const std::uint64_t root_item = reinterpret_cast<std::uintptr_t>(&root);
    SchedulerOptions sched;
    sched.num_threads = requested;
    pstats = RunWorkPool(
        std::span<const std::uint64_t>(&root_item, 1), sched,
        [this](WorkPool& pool, std::uint64_t item, std::uint32_t worker) {
          ExpandItem(pool, reinterpret_cast<Item*>(item), worker);
        });
  }

  ParallelSearchResult result;
  StableSearchStats& s = result.search;
  s.per_worker_nodes.reserve(nw);
  for (std::size_t i = 0; i < nw; ++i) {
    const Worker& w = workers_[i];
    s.nodes += w.nodes;
    s.afp_calls += w.afp_calls;
    s.implied_atoms += w.implied_atoms;
    s.leaves += w.leaves;
    s.stable_checks += w.stable_checks;
    s.pruned_nodes += w.pruned;
    s.residual_rules += w.residual_rules;
    s.inline_nodes += w.inline_nodes;
    s.per_worker_nodes.push_back(w.nodes);
    result.eval.Accumulate(w.ctx->stats().Since(w.start));
  }
  s.models = emitted_;
  s.num_workers = pstats.num_workers;
  s.steals = pstats.steals;
  s.idle_waits = pstats.idle_waits;
  s.per_worker_steals = pstats.per_worker_steals;
  s.seeded = use_seed_;
  s.complete = finished_;
  result.models = std::move(models_);
  models_.clear();
  // The split-off frames are plain copies, never drawn from a pool.
  items_.clear();
  segments_.clear();
  cursor_ = nullptr;
  return result;
}

bool ParallelStableSearch::ShouldStop() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  if ((cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
      (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)) {
    stop_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

ParallelStableSearch::Outcome ParallelStableSearch::Evaluate(
    Worker& w, const Frame* parent, bool assume_true, std::uint32_t depth,
    Frame* self, Bitset* model) {
  EvalContext& ctx = *w.ctx;
  const std::size_t n = gp_.num_atoms();
  const AtomId literal = parent != nullptr ? parent->branch : kInvalidAtom;
  ++w.nodes;

  // --- Propagate under the parent's masks and this node's literal.
  Bitset decided_true;
  Bitset decided_false;
  if (options_.wfs_propagation) {
    if (parent == nullptr && use_seed_) {
      // The session already derived the well-founded model — which IS the
      // root's propagation result under empty assumptions.
      decided_true = ctx.AcquireBitsetCopy(seed_true_);
      decided_false = ctx.AcquireBitsetCopy(seed_false_);
    } else {
      // The residual delta over the parent's model (see the inheritance
      // proof in the header): its rules, its decided-true atoms as given
      // facts, the literal as one more fact when assumed true (its rules
      // are outside the residual either way), Ĩ_0 = its decided-false set.
      if (parent != nullptr) {
        SpMask mask;
        mask.rules = parent->residual;
        mask.given = &parent->true_set;
        mask.fact = assume_true ? literal : kInvalidAtom;
        w.even->SetMask(mask);
        w.odd->SetMask(mask);
        w.residual_rules += parent->residual.size();
      } else {
        // The root's mask would be every rule with nothing given: that is
        // the unmasked evaluation, whose propagation loop is tighter.
        w.even->ClearMask();
        w.odd->ClearMask();
        w.residual_rules += all_rules_.size();
      }
      AfpResult afp = AlternatingFixpointOnEvaluators(
          ctx, *w.even, *w.odd, n,
          parent != nullptr ? parent->false_set : no_atoms_, afp_options_);
      decided_true = std::move(afp.model.true_atoms());
      decided_false = std::move(afp.model.false_atoms());
      // The fixpoint noted these as escaped; this node keeps them in the
      // pool cycle, so adopt them back.
      ctx.NoteAdoptedBytes(decided_true.CapacityBytes() +
                           decided_false.CapacityBytes());
      ++w.afp_calls;
    }
    if (parent == nullptr) {
      // Every leaf model extends the root's model: the leaf checks run
      // over the root's residual (see "Leaf checks" in the header).
      FilterResidual(gp_.View(), all_rules_, decided_true, decided_false,
                     kInvalidAtom, &leaf_rules_);
      leaf_given_ = decided_true;
    }
  } else {
    // Positive-closure-only propagation (the Saccà–Zaniolo ablation) on
    // the same masks: the whole program, the assumed-true atoms given,
    // Ĩ = the assumed-false atoms.
    Bitset assumed_true = parent != nullptr
                              ? ctx.AcquireBitsetCopy(parent->true_set)
                              : ctx.AcquireBitset(n);
    Bitset assumed_false = parent != nullptr
                               ? ctx.AcquireBitsetCopy(parent->false_set)
                               : ctx.AcquireBitset(n);
    if (literal != kInvalidAtom) {
      (assume_true ? assumed_true : assumed_false).Set(literal);
    }
    SpMask mask;
    mask.rules = all_rules_;
    mask.given = &assumed_true;
    w.even->SetMask(mask);
    decided_true = ctx.AcquireBitset(n);
    w.even->Eval(assumed_false, &decided_true);
    w.residual_rules += all_rules_.size();
    if (!decided_true.IsDisjointWith(assumed_false)) {  // conflict
      ctx.ReleaseBitset(std::move(decided_true));
      ctx.ReleaseBitset(std::move(assumed_true));
      ctx.ReleaseBitset(std::move(assumed_false));
      ++w.pruned;
      return Outcome::kNoModel;
    }
    decided_false = ctx.AcquireBitsetCopy(assumed_false);
    decided_false |= statically_false_;
    Install(ctx, self->true_set, std::move(assumed_true));
    Install(ctx, self->false_set, std::move(assumed_false));
  }

  // Every assumption is one branch literal on the path from the root, and
  // each was undecided where it was made: the node's assumptions number
  // exactly its depth.
  w.implied_atoms += decided_true.Count() + decided_false.Count() - depth;

  // --- Canonical branch choice: the first undecided atom, at or after the
  // parent's branch atom (everything before it was decided there already).
  const AtomId branch = FirstUndecided(
      decided_true, decided_false, literal != kInvalidAtom ? literal : 0);

  if (branch == kInvalidAtom) {
    // Total leaf: verify stability against the *original* program.
    ++w.leaves;
    ++w.stable_checks;
    // Positive-closure leaves need not extend the well-founded model, so
    // that ablation checks them unmasked, over the whole program.
    if (options_.wfs_propagation && !w.leaf_masked) {
      SpMask mask;
      mask.rules = leaf_rules_;
      mask.given = &leaf_given_;
      w.leaf->SetMask(mask);
      w.leaf_masked = true;
    }
    const bool stable = IsStableModel(ctx, *w.leaf, decided_true);
    ctx.ReleaseBitset(std::move(decided_false));
    if (!stable) {
      ctx.ReleaseBitset(std::move(decided_true));
      return Outcome::kNoModel;
    }
    *model = std::move(decided_true);
    return Outcome::kModel;
  }

  self->branch = branch;
  if (options_.wfs_propagation) {
    FilterResidual(gp_.View(),
                   parent != nullptr
                       ? std::span<const std::uint32_t>(parent->residual)
                       : std::span<const std::uint32_t>(all_rules_),
                   decided_true, decided_false, branch, &self->residual);
    Install(ctx, self->true_set, std::move(decided_true));
    Install(ctx, self->false_set, std::move(decided_false));
  } else {
    ctx.ReleaseBitset(std::move(decided_true));
    ctx.ReleaseBitset(std::move(decided_false));
  }
  return Outcome::kInterior;
}

void ParallelStableSearch::ExpandItem(WorkPool& pool, Item* item,
                                      std::uint32_t worker) {
  if (!ShouldStop()) {
    ExpandInline(pool, workers_[worker], worker, *item);
  }
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

void ParallelStableSearch::ExpandInline(WorkPool& pool, Worker& w,
                                        std::uint32_t worker,
                                        const Item& item) {
  // Depth first without recursion, so a deep tree is bounded by memory,
  // not by the worker's stack: w.frames[d] holds the frame of the interior
  // node at depth d on the current path, and w.path[k] the state of the
  // path's k-th interior node below the item's root.
  const std::uint32_t base = item.depth;
  const Frame* parent = item.has_parent ? &item.parent : nullptr;
  bool assume_true = item.assume_true;
  std::uint32_t depth = base;
  Segment* seg = item.out;
  std::vector<Open>& path = w.path;
  path.clear();
  bool first = true;
  while (true) {
    if (seg->model_count >= max_models_ || ShouldStop()) {
      // No later model of this segment can be emitted.
      seg->cut = true;
      Finish(seg);
      return;
    }
    if (!first) ++w.inline_nodes;
    first = false;
    while (w.frames.size() <= depth) w.frames.emplace_back();
    Frame& self = w.frames[depth];
    Bitset model;
    switch (Evaluate(w, parent, assume_true, depth, &self, &model)) {
      case Outcome::kNoModel:
        break;
      case Outcome::kModel:
        Collect(*w.ctx, std::move(model), seg);
        break;
      case Outcome::kInterior:
        // Canonical order: the assume-false child first.
        path.push_back({/*true_due=*/true, /*resume=*/nullptr});
        if (outstanding_.load(std::memory_order_relaxed) < num_workers_) {
          Split(pool, w, worker, base, seg);
        }
        parent = &self;
        assume_true = false;
        ++depth;
        continue;
    }
    // Climb to the deepest interior node whose assume-true child is due,
    // moving on to the segment after each split-off child passed on the
    // way.
    while (!path.empty() && !path.back().true_due) {
      if (path.back().resume != nullptr) {
        Finish(seg);
        seg = path.back().resume;
      }
      path.pop_back();
    }
    if (path.empty()) {
      Finish(seg);
      return;
    }
    path.back().true_due = false;
    depth = base + static_cast<std::uint32_t>(path.size());
    parent = &w.frames[depth - 1];
    assume_true = true;
  }
}

void ParallelStableSearch::Split(WorkPool& pool, Worker& w,
                                 std::uint32_t worker, std::uint32_t base,
                                 Segment* seg) {
  // The shallowest assume-true child still due heads the largest subtree
  // this worker has left.
  std::size_t k = 0;
  while (k < w.path.size() && !w.path[k].true_due) ++k;
  if (k == w.path.size()) return;
  if (outstanding_.fetch_add(1, std::memory_order_relaxed) >= num_workers_) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);  // lost a race
    return;
  }
  // The subtree's models come after this worker's models under the split
  // node's assume-false child, and before its models after that node:
  // seg -> split-off segment -> resume segment -> what followed seg.
  Item* item;
  {
    std::lock_guard<std::mutex> lk(emit_mu_);
    Segment& off = segments_.emplace_back();
    Segment& resume = segments_.emplace_back();
    resume.next = seg->next;
    off.next = &resume;
    seg->next = &off;
    item = &items_.emplace_back();
    item->out = &off;
    w.path[k] = {/*true_due=*/false, /*resume=*/&resume};
  }
  // A copy: this worker reuses the frame once it climbs past the node.
  const Frame& frame = w.frames[base + k];
  item->has_parent = true;
  item->parent.true_set = frame.true_set;
  item->parent.false_set = frame.false_set;
  item->parent.residual = frame.residual;
  item->parent.branch = frame.branch;
  item->assume_true = true;
  item->depth = base + static_cast<std::uint32_t>(k) + 1;
  pool.Submit(reinterpret_cast<std::uintptr_t>(item), worker);
}

void ParallelStableSearch::Finish(Segment* seg) {
  std::lock_guard<std::mutex> lk(emit_mu_);
  seg->pending = false;
  AdvanceEmissionLocked();
}

void ParallelStableSearch::Collect(EvalContext& ctx, Bitset&& model,
                                   Segment* seg) const {
  ++seg->model_count;
  if (count_only_) {
    ctx.ReleaseBitset(std::move(model));
    return;
  }
  // The model's storage escapes the pool cycle into the result.
  ctx.NoteEscapedBytes(model.CapacityBytes());
  seg->models.push_back(std::move(model));
}

void ParallelStableSearch::AdvanceEmissionLocked() {
  while (!finished_ && cursor_ != nullptr) {
    Segment& seg = *cursor_;
    if (seg.pending) return;  // an earlier stretch is still open
    for (std::size_t i = 0; i < seg.model_count; ++i) {
      if (!count_only_) models_.push_back(std::move(seg.models[i]));
      if (++emitted_ >= max_models_) {
        // The canonical prefix is complete; whatever other workers raced
        // ahead on is now abandoned unemitted.
        finished_ = true;
        stop_.store(true, std::memory_order_relaxed);
        return;
      }
    }
    seg.model_count = 0;
    seg.models = std::vector<Bitset>();
    // A cut segment may hide more models: the prefix ends here.
    if (seg.cut) return;
    cursor_ = seg.next;
  }
  if (cursor_ == nullptr) finished_ = true;
}

}  // namespace afp
