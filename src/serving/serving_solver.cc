#include "serving/serving_solver.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace afp::serving {

StatusOr<std::unique_ptr<ServingSolver>> ServingSolver::FromText(
    std::string_view program_text, SolverOptions solver_options,
    ServingOptions serving_options) {
  AFP_ASSIGN_OR_RETURN(
      Solver solver,
      Solver::FromText(program_text, std::move(solver_options)));
  return Wrap(std::move(solver), std::move(serving_options));
}

std::unique_ptr<ServingSolver> ServingSolver::Wrap(
    Solver solver, ServingOptions serving_options) {
  return std::unique_ptr<ServingSolver>(
      new ServingSolver(std::move(solver), std::move(serving_options)));
}

ServingSolver::ServingSolver(Solver solver, ServingOptions opts)
    : opts_(std::move(opts)), solver_(std::move(solver)) {
  // Version 0 is the initial full solve, published before any reader or
  // producer can exist — snapshot() never observes null.
  std::lock_guard<std::mutex> lk(solver_mu_);
  solver_.Solve();
  PublishLocked(UpdateStats{}, /*batch_ops=*/0);
  if (opts_.background) {
    writer_ = std::thread(&ServingSolver::WriterLoop, this);
  }
}

ServingSolver::~ServingSolver() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    writer_.join();  // the loop drains remaining ops before exiting
  }
}

SnapshotPtr ServingSolver::snapshot() const {
#if AFP_SERVING_ATOMIC_SNAPSHOT
  return snapshot_.load(std::memory_order_acquire);
#else
  std::lock_guard<std::mutex> lk(snapshot_mu_);
  return snapshot_;
#endif
}

void ServingSolver::StoreSnapshot(SnapshotPtr snap) {
#if AFP_SERVING_ATOMIC_SNAPSHOT
  snapshot_.store(std::move(snap), std::memory_order_release);
#else
  std::lock_guard<std::mutex> lk(snapshot_mu_);
  snapshot_ = std::move(snap);
#endif
}

StatusOr<AtomId> ServingSolver::Resolve(const std::string& atom_text) const {
  // EDB mutation interns no atoms, but rule mutations DO grow the atom
  // table, so text resolution synchronizes with the writer. Ids are
  // append-only: once resolved, an id stays valid forever and the
  // id-based read paths below remain lock-free.
  std::lock_guard<std::mutex> lk(solver_mu_);
  return ResolveAtom(solver_.ground(), atom_text);
}

TruthValue ServingSolver::Query(AtomId id) const {
  if (id == kInvalidAtom) return TruthValue::kFalse;  // closed world
  const SnapshotPtr snap = snapshot();
  // An id interned after this snapshot published (concurrent rule op):
  // at this version the atom did not exist — closed-world false.
  if (id >= snap->model.true_atoms().universe_size()) {
    return TruthValue::kFalse;
  }
  return snap->model.Value(id);
}

StatusOr<TruthValue> ServingSolver::Query(
    const std::string& atom_text) const {
  AFP_ASSIGN_OR_RETURN(AtomId id, Resolve(atom_text));
  return Query(id);
}

std::vector<TruthValue> ServingSolver::QueryBatchIds(
    std::span<const AtomId> ids) const {
  const SnapshotPtr snap = snapshot();
  const std::size_t universe = snap->model.true_atoms().universe_size();
  std::vector<TruthValue> out;
  out.reserve(ids.size());
  for (AtomId id : ids) {
    out.push_back(id == kInvalidAtom || id >= universe
                      ? TruthValue::kFalse
                      : snap->model.Value(id));
  }
  return out;
}

std::vector<StatusOr<TruthValue>> ServingSolver::QueryBatch(
    const std::vector<std::string>& atom_texts) const {
  const SnapshotPtr snap = snapshot();
  const std::size_t universe = snap->model.true_atoms().universe_size();
  std::vector<StatusOr<TruthValue>> out;
  out.reserve(atom_texts.size());
  for (const std::string& text : atom_texts) {
    StatusOr<AtomId> id = Resolve(text);
    if (!id.ok()) {
      out.push_back(id.status());
    } else if (*id == kInvalidAtom || *id >= universe) {
      out.push_back(TruthValue::kFalse);
    } else {
      out.push_back(snap->model.Value(*id));
    }
  }
  return out;
}

namespace {

StatusOr<std::vector<AtomId>> ResolveBatchStrict(const GroundProgram& gp,
                                                 const std::vector<std::string>& atoms,
                                                 const char* verb) {
  std::vector<AtomId> ids;
  ids.reserve(atoms.size());
  for (const std::string& text : atoms) {
    AFP_ASSIGN_OR_RETURN(AtomId id, ResolveAtom(gp, text));
    if (id == kInvalidAtom) {
      return Status::NotFound(std::string("cannot ") + verb + " '" + text +
                              "': atom is outside the grounded base");
    }
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

Status ServingSolver::AssertFacts(const std::vector<std::string>& atoms) {
  std::vector<AtomId> ids;
  {
    // Text resolution reads the atom table, which rule ops grow.
    std::lock_guard<std::mutex> lk(solver_mu_);
    AFP_ASSIGN_OR_RETURN(ids,
                         ResolveBatchStrict(solver_.ground(), atoms, "assert"));
  }
  EnqueueOps(ids, /*add=*/true);
  return Status::Ok();
}

Status ServingSolver::RetractFacts(const std::vector<std::string>& atoms) {
  std::vector<AtomId> ids;
  {
    std::lock_guard<std::mutex> lk(solver_mu_);
    AFP_ASSIGN_OR_RETURN(
        ids, ResolveBatchStrict(solver_.ground(), atoms, "retract"));
  }
  EnqueueOps(ids, /*add=*/false);
  return Status::Ok();
}

void ServingSolver::AssertFactsById(std::span<const AtomId> ids) {
  EnqueueOps(ids, /*add=*/true);
}

void ServingSolver::RetractFactsById(std::span<const AtomId> ids) {
  EnqueueOps(ids, /*add=*/false);
}

void ServingSolver::AddRule(std::string rule_text) {
  EnqueueRuleOp(Op{Op::Kind::kAddRule, kInvalidAtom, std::move(rule_text)});
}

void ServingSolver::RemoveRule(std::string rule_text) {
  EnqueueRuleOp(Op{Op::Kind::kRemoveRule, kInvalidAtom, std::move(rule_text)});
}

void ServingSolver::EnqueueOps(std::span<const AtomId> ids, bool add) {
  const Op::Kind kind = add ? Op::Kind::kAssert : Op::Kind::kRetract;
  bool overflow = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (AtomId id : ids) {
      if (opts_.background) {
        // Backpressure: never let the queue outgrow the bound; block the
        // producer until the writer drains. One block event per wait.
        while (pending_.size() >= opts_.max_pending_updates && !stop_) {
          ++stats_.enqueue_blocks;
          cv_work_.notify_one();
          cv_not_full_.wait(lk);
        }
      }
      pending_.push_back(Op{kind, id, {}});
      ++enqueued_seq_;
      ++stats_.updates_enqueued;
    }
    overflow =
        !opts_.background && pending_.size() >= opts_.max_pending_updates;
  }
  cv_work_.notify_one();
  // Without a background writer the bound still holds: the producer that
  // fills the queue drains it inline.
  if (overflow) Pump();
}

void ServingSolver::EnqueueRuleOp(Op op) {
  bool overflow = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (opts_.background) {
      while (pending_.size() >= opts_.max_pending_updates && !stop_) {
        ++stats_.enqueue_blocks;
        cv_work_.notify_one();
        cv_not_full_.wait(lk);
      }
    }
    pending_.push_back(std::move(op));
    ++enqueued_seq_;
    ++stats_.rule_ops_enqueued;
    overflow =
        !opts_.background && pending_.size() >= opts_.max_pending_updates;
  }
  cv_work_.notify_one();
  if (overflow) Pump();
}

void ServingSolver::WriterLoop() {
  for (;;) {
    std::vector<Op> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stop_ and fully drained
      batch.swap(pending_);
    }
    cv_not_full_.notify_all();
    ApplyBatch(batch);
  }
}

bool ServingSolver::Pump() {
  std::vector<Op> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_.empty()) return false;
    batch.swap(pending_);
  }
  cv_not_full_.notify_all();
  ApplyBatch(batch);
  return true;
}

void ServingSolver::ApplyBatch(std::vector<Op>& batch) {
  // Rule ops are coalescing BARRIERS: the batch splits into maximal fact
  // segments separated by rule ops, applied strictly in queue order.
  // Within one fact segment the LAST op per atom wins and the segment
  // folds into ONE UpdateFactsById pass; coalescing never crosses a
  // barrier, so a fact op enqueued after a rule op is applied to the
  // post-mutation program, exactly as the producer observed it.
  UpdateStats up;  // accumulated across segments, published once
  std::uint64_t fact_ops = 0, coalesced = 0, rules_applied = 0,
                rules_failed = 0;
  Status last_error;
  std::unordered_map<AtomId, std::size_t> last;
  std::vector<AtomId> asserts, retracts;

  std::lock_guard<std::mutex> lk(solver_mu_);
  std::size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].is_rule()) {
      StatusOr<RuleUpdateStats> r =
          batch[i].kind == Op::Kind::kAddRule
              ? solver_.AddRule(batch[i].rule_text)
              : solver_.RemoveRule(batch[i].rule_text);
      if (r.ok()) {
        ++rules_applied;
        up.model_changed |= r->model_changed;
        up.components_downstream += r->components_downstream;
        up.components_resolved += r->components_resolved;
      } else {
        ++rules_failed;
        last_error = r.status();
      }
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < batch.size() && !batch[j].is_rule()) ++j;
    last.clear();
    for (std::size_t k = i; k < j; ++k) last[batch[k].id] = k;
    asserts.clear();
    retracts.clear();
    for (std::size_t k = i; k < j; ++k) {
      if (last[batch[k].id] != k) continue;
      (batch[k].kind == Op::Kind::kAssert ? asserts : retracts)
          .push_back(batch[k].id);
    }
    UpdateStats seg = solver_.UpdateFactsById(asserts, retracts);
    up.facts_changed += seg.facts_changed;
    up.components_downstream += seg.components_downstream;
    up.components_resolved += seg.components_resolved;
    up.components_skipped += seg.components_skipped;
    up.components_reused += seg.components_reused;
    up.model_changed |= seg.model_changed;
    fact_ops += j - i;
    coalesced += (j - i) - asserts.size() - retracts.size();
    i = j;
  }
  {
    std::lock_guard<std::mutex> slk(mu_);
    ++stats_.repair_passes;
    stats_.updates_applied += fact_ops;
    stats_.updates_coalesced += coalesced;
    stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, batch.size());
    stats_.facts_changed += up.facts_changed;
    stats_.rule_ops_applied += rules_applied;
    stats_.rule_ops_failed += rules_failed;
    if (!last_error.ok()) stats_.last_rule_error = last_error;
  }
  PublishLocked(up, batch.size());
}

void ServingSolver::PublishLocked(const UpdateStats& up,
                                  std::uint64_t batch_ops) {
  auto snap = std::make_shared<ModelSnapshot>();
  snap->model = solver_.SnapshotModel();  // counts warmed on this thread
  snap->last_update = up;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap->version = next_version_++;
    snap->updates_applied = published_seq_ + batch_ops;
    ++stats_.snapshots_published;
  }
  SnapshotPtr published = std::move(snap);
  StoreSnapshot(published);
  // The callback runs before Flush's waiters can see the new count, so
  // Flush returns only after on_publish has seen the snapshot it awaited.
  if (opts_.on_publish) opts_.on_publish(published);
  {
    std::lock_guard<std::mutex> lk(mu_);
    published_seq_ = published->updates_applied;
  }
  cv_flushed_.notify_all();
}

void ServingSolver::Flush() {
  if (!opts_.background) {
    while (Pump()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t target = enqueued_seq_;
  cv_flushed_.wait(lk, [&] { return published_seq_ >= target; });
}

ServingStats ServingSolver::Stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

namespace {

void WriteBits(std::ostringstream& out, const char* key, const Bitset& b) {
  out << key << std::hex;
  for (std::size_t wi = 0; wi < b.num_words(); ++wi) {
    out << ' ' << b.word(wi);
  }
  out << std::dec << '\n';
}

bool ReadBits(std::istringstream& in, const char* key, std::size_t universe,
              Bitset* out) {
  std::string tag;
  if (!(in >> tag) || tag != key) return false;
  *out = Bitset(universe);
  in >> std::hex;
  for (std::size_t wi = 0; wi < out->num_words(); ++wi) {
    std::uint64_t w = 0;
    if (!(in >> w)) return false;
    out->set_word(wi, w);
  }
  in >> std::dec;
  return true;
}

}  // namespace

std::string ServingSolver::SaveState() {
  Flush();  // the image reflects every mutation accepted before the call
  // solver_mu_ keeps the fact list and the snapshot mutually consistent
  // (no repair can publish between the two reads).
  std::lock_guard<std::mutex> lk(solver_mu_);
  const SnapshotPtr snap = snapshot();
  const GroundProgram& gp = solver_.ground();
  std::ostringstream out;
  out << "afp-serving-state 1\n";
  out << "version " << snap->version << '\n';
  out << "universe " << snap->model.true_atoms().universe_size() << '\n';
  // The EDB fact set at save time: restore syncs the restoring session's
  // facts to this list, so the adopted model satisfies the program again.
  out << "facts";
  for (std::size_t ri = 0; ri < gp.num_rules(); ++ri) {
    const GroundRule& r = gp.rule(ri);
    if (r.pos_len == 0 && r.neg_len == 0) out << ' ' << r.head;
  }
  out << '\n';
  WriteBits(out, "true", snap->model.true_atoms());
  WriteBits(out, "false", snap->model.false_atoms());
  out << "end\n";
  return std::move(out).str();
}

Status ServingSolver::RestoreState(std::string_view state) {
  std::istringstream in{std::string(state)};
  std::string magic;
  int format = 0;
  if (!(in >> magic >> format) || magic != "afp-serving-state" ||
      format != 1) {
    return Status::InvalidArgument(
        "not an afp-serving-state v1 image");
  }
  std::string tag;
  std::uint64_t saved_version = 0;
  std::size_t universe = 0;
  if (!(in >> tag >> saved_version) || tag != "version" ||
      !(in >> tag >> universe) || tag != "universe") {
    return Status::InvalidArgument("malformed serving-state header");
  }
  if (!(in >> tag) || tag != "facts") {
    return Status::InvalidArgument("malformed serving-state facts");
  }
  // "facts" carries bare ids until the next keyword ("true").
  std::vector<bool> target_fact(universe, false);
  AtomId id = 0;
  while (in >> id) {
    if (id >= universe) {
      return Status::InvalidArgument("serving-state fact id out of range");
    }
    target_fact[id] = true;
  }
  in.clear();  // the non-numeric "true" tag stopped the loop
  Bitset true_atoms, false_atoms;
  if (!ReadBits(in, "true", universe, &true_atoms) ||
      !ReadBits(in, "false", universe, &false_atoms) || !(in >> tag) ||
      tag != "end") {
    return Status::InvalidArgument("malformed serving-state body");
  }
  PartialModel model(std::move(true_atoms), std::move(false_atoms));

  // Apply pending mutations first so the restored state is not clobbered
  // by ops accepted before the restore call.
  Flush();
  std::lock_guard<std::mutex> lk(solver_mu_);
  // Cheap structural checks before any mutation — failing here leaves the
  // session completely untouched.
  if (universe != solver_.ground().num_atoms()) {
    return Status::InvalidArgument(
        "serving-state universe does not match this session's program");
  }
  if (!model.IsConsistent()) {
    return Status::InvalidArgument("serving-state model is inconsistent");
  }
  // Sync the EDB fact set to the image (the model was saved against that
  // set; without the sync, AdoptModel's satisfaction check would rightly
  // reject it). InvalidateModel first: on an unsolved session the
  // mutations apply without an interim repair.
  std::vector<AtomId> asserts, retracts;
  {
    const GroundProgram& gp = solver_.ground();
    std::vector<bool> current(universe, false);
    for (std::size_t ri = 0; ri < gp.num_rules(); ++ri) {
      const GroundRule& r = gp.rule(ri);
      if (r.pos_len == 0 && r.neg_len == 0) current[r.head] = true;
    }
    for (AtomId a = 0; a < universe; ++a) {
      if (target_fact[a] && !current[a]) asserts.push_back(a);
      if (!target_fact[a] && current[a]) retracts.push_back(a);
    }
  }
  solver_.InvalidateModel();
  solver_.UpdateFactsById(asserts, retracts);
  Status adopted = solver_.AdoptModel(std::move(model));
  if (!adopted.ok()) {
    // Cross-program image (same universe size, different rules): undo the
    // fact sync. The model cache stays cold; the next publication runs a
    // full solve, so serving remains correct, just not warm.
    solver_.UpdateFactsById(retracts, asserts);
    return adopted;
  }
  // Published under the session's own monotone version counter (the
  // saved stamp belongs to the previous incarnation's counter).
  PublishLocked(UpdateStats{}, /*batch_ops=*/0);
  return Status::Ok();
}

}  // namespace afp::serving
