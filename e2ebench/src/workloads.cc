#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "core/interpretation.h"
#include "exec/scheduler.h"
#include "parser/parser.h"

namespace e2e {
namespace {

using afp::AtomId;
using afp::TruthValue;

double UsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e3;
}

class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(NowNs() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool Passed() const { return NowNs() >= end_; }

 private:
  std::int64_t end_;
};

TruthValue Expected(GameValue v) {
  switch (v) {
    case GameValue::kWon:
      return TruthValue::kTrue;
    case GameValue::kLost:
      return TruthValue::kFalse;
    case GameValue::kDrawn:
      break;
  }
  return TruthValue::kUndefined;
}

/// Ids of wins(n_i) for every node (kInvalidAtom: outside the grounded
/// base, false under the closed world).
std::vector<AtomId> WinsIds(const afp::GroundProgram& gp, int n,
                            Tally& tally) {
  std::vector<AtomId> ids(static_cast<std::size_t>(n), afp::kInvalidAtom);
  for (int i = 0; i < n; ++i) {
    afp::StatusOr<AtomId> id = afp::ResolveAtom(gp, WinsAtom(i));
    if (id.ok()) {
      ids[static_cast<std::size_t>(i)] = *id;
    } else {
      tally.Fail("resolve " + WinsAtom(i) + ": " + id.status().ToString());
    }
  }
  return ids;
}

/// Compares every wins(n_i) of `model` with the oracle; one attempted
/// answer per node.
void CheckWins(const afp::PartialModel& model, const std::vector<AtomId>& ids,
               const std::vector<GameValue>& labels, const char* where,
               Tally& tally) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const TruthValue got = ids[i] == afp::kInvalidAtom
                               ? TruthValue::kFalse
                               : model.Value(ids[i]);
    tally.Check(got == Expected(labels[i]),
                std::string(where) + ": " + WinsAtom(static_cast<int>(i)) +
                    " is " + afp::TruthValueName(got));
  }
}

void RecordShape(const afp::Solver& solver, Segment& seg) {
  const afp::RuleView view = solver.ground().View();
  std::size_t neg = 0;
  for (const afp::GroundRule& r : view.rules) neg += r.neg_len;
  const afp::AtomDependencyGraph graph(view);
  seg.shape["atoms"] = static_cast<double>(view.num_atoms);
  seg.shape["ground_rules"] = static_cast<double>(view.rules.size());
  seg.shape["neg_occurrences"] = static_cast<double>(neg);
  seg.shape["components"] = static_cast<double>(graph.num_components());
  seg.shape["sp_calls"] = static_cast<double>(solver.Stats().eval.sp_calls);
}

void Put(MetricMap& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

/// Counters every traced workload reports from its session's stats.
void RecordSessionCounters(const afp::SolverStats& st, MetricMap& layer) {
  Put(layer, "ground.atoms", static_cast<double>(st.ground.atoms), "count");
  Put(layer, "ground.rules", static_cast<double>(st.ground.rules), "count");
  Put(layer, "ground.probes_per_atom",
      st.ground.atoms ? static_cast<double>(st.ground.intern_probes) /
                            static_cast<double>(st.ground.atoms)
                      : 0.0,
      "ratio");
  Put(layer, "exec.max_wavefront_width",
      static_cast<double>(st.sched.MaxWavefrontWidth()), "count");
  Put(layer, "exec.idle_waits", static_cast<double>(st.sched.idle_waits),
      "count");
  Put(layer, "exec.steals", static_cast<double>(st.sched.steals), "count");
}

/// Traced-run probes of the analysis and exec layers over `gp`: building
/// the dependency graph with its condensation, and a wavefront run of an
/// empty task over that condensation (the scheduler's dispatch cost).
void LayerProbes(const afp::GroundProgram& gp, int threads, SpanRecorder* rec,
                 MetricMap& layer) {
  constexpr int kReps = 5;
  std::size_t components = 0;
  for (int i = 0; i < kReps; ++i) {
    std::unique_ptr<afp::AtomDependencyGraph> graph;
    {
      Span s(rec, "analysis", "condense", -1);
      graph = std::make_unique<afp::AtomDependencyGraph>(gp.View());
      graph->condensation_offsets();
    }
    components = graph->num_components();
    afp::DagView dag;
    dag.num_nodes = graph->num_components();
    dag.offsets = &graph->condensation_offsets();
    dag.targets = &graph->condensation_successors();
    dag.in_degrees = &graph->condensation_in_degrees();
    afp::SchedulerOptions so;
    so.num_threads = threads;
    Span s(rec, "exec", "wavefront_noop", -1);
    afp::RunWavefront(dag, so, [](std::uint32_t, std::uint32_t) {});
  }
  const std::vector<SpanRecord> spans = rec->Records();
  Put(layer, "analysis.condense_ms",
      Median(SpanDurationsUs(spans, "analysis", "condense")) / 1e3, "ms");
  Put(layer, "analysis.components", static_cast<double>(components), "count");
  Put(layer, "exec.wavefront_noop_ms",
      Median(SpanDurationsUs(spans, "exec", "wavefront_noop")) / 1e3, "ms");
}

double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  const double base = Median(untraced);
  if (traced.empty() || base <= 0.0) return 0.0;
  return (Median(traced) - base) / base * 100.0;
}

double MedianSpanUs(SpanRecorder* rec, const char* layer, const char* call) {
  return Median(SpanDurationsUs(rec->Records(), layer, call));
}

struct ClusterShape {
  int clusters, size, intra, inter;
};

// Toggled-off edges held out at once by the fact-update streams.
constexpr std::size_t kToggleDepth = 64;
// Periphery rule ops cycle through this many nodes, so their dead head
// atoms stop growing the universe after the first round.
constexpr int kProbeNodes = 16;
// Mixed into the op seed for the query / read stream.
constexpr std::uint64_t kQueryStream = 0x5151515151515151ULL;

ClusterShape ClusteredSize(Size size) {
  switch (size) {
    case Size::kFull:
      return {256, 64, 128, 256};
    case Size::kTiny:
      break;
  }
  return {8, 16, 16, 8};
}

Graph ClusteredGraph(const RunConfig& cfg) {
  const ClusterShape c = ClusteredSize(cfg.size);
  return ClusteredScc(c.clusters, c.size, c.intra, c.inter, cfg.graph_seed);
}

}  // namespace

// ---------------------------------------------------------------------------
// cold_winmove_er: text -> Parse -> FromProgram (kScc) -> Solve -> Select on
// a fresh session per request, closed loop, one client.

namespace {

class ColdWinmoveEr final : public Workload {
 public:
  explicit ColdWinmoveEr(const RunConfig& cfg) : cfg_(cfg) {
    n_ = cfg.size == Size::kFull ? 16384 : 256;
    g_ = ErdosRenyi(n_, 6 * n_, cfg.graph_seed);
    text_ = WinMoveText(g_);
    labels_ = RetrogradeLabels(g_, {});
    won_ = static_cast<std::size_t>(
        std::count(labels_.begin(), labels_.end(), GameValue::kWon));
    opts_.engine = afp::SolverEngine::kScc;
    // Set-up is the first requests of the process.
    std::vector<double> setup_ms;
    for (int r = 0; r < kSetupReps; ++r) {
      setup_ms.push_back(Request(-1, nullptr, r == 0));
      if (r == 0 && session_) RecordShape(*session_, seg_);
    }
    Put(seg_.e2e, "setup_s", Median(setup_ms) / 1e3, "s");
  }

  void Run(double seconds) override {
    const Deadline deadline(seconds);
    do {
      const bool traced = cfg_.rec && iter_ % 2 == 1;
      const double ms = Request(iter_, traced ? cfg_.rec : nullptr,
                                iter_ % kFullCheckEvery == 0);
      (traced ? traced_ms_ : untraced_ms_).push_back(ms);
      ++iter_;
    } while (!deadline.Passed());
  }

  void DropSamples() override {
    untraced_ms_.clear();
    traced_ms_.clear();
  }

  Segment Finish() override {
    Put(seg_.e2e, "op_us_p50", BandPercentile(untraced_ms_, 0.5) * 1e3, "us");
    if (!cfg_.rec || !session_) return std::move(seg_);
    MetricMap& L = seg_.layer;
    const double parse_ms = MedianSpanUs(cfg_.rec, "parser", "parse") / 1e3;
    Put(L, "parser.parse_ms", parse_ms, "ms");
    Put(L, "parser.mb_per_s",
        parse_ms > 0 ? static_cast<double>(text_.size()) / 1e3 / parse_ms
                     : 0.0,
        "MB/s");
    Put(L, "ground.ground_ms",
        MedianSpanUs(cfg_.rec, "ground", "from_program") / 1e3, "ms");
    Put(L, "core.solve_ms", MedianSpanUs(cfg_.rec, "core", "solve") / 1e3,
        "ms");
    Put(L, "core.select_ms", MedianSpanUs(cfg_.rec, "core", "select") / 1e3,
        "ms");
    const afp::SolverStats& st = session_->Stats();
    Put(L, "core.sp_calls", static_cast<double>(st.eval.sp_calls), "count");
    Put(L, "core.rules_rescanned",
        static_cast<double>(st.eval.rules_rescanned), "count");
    Put(L, "core.kernel_components",
        static_cast<double>(st.eval.kernel_components), "count");
    RecordSessionCounters(st, L);
    LayerProbes(session_->ground(), cfg_.threads, cfg_.rec, L);
    Put(L, "trace.overhead_pct", OverheadPct(traced_ms_, untraced_ms_), "%");
    return std::move(seg_);
  }

 private:
  static constexpr std::int64_t kFullCheckEvery = 8;

  // One request; returns its latency in ms and keeps the session in
  // session_ (the previous one is destroyed first, outside the timing).
  double Request(std::int64_t iter, SpanRecorder* rec, bool full_check) {
    session_.reset();
    afp::Status status;
    std::optional<afp::StatusOr<std::vector<afp::QueryMatch>>> matches;
    const std::int64_t t0 = NowNs();
    {
      Span root(rec, "e2e", "request", iter);
      std::optional<afp::StatusOr<afp::Program>> program;
      {
        Span s(rec, "parser", "parse", iter);
        program.emplace(afp::Parser::Parse(text_));
      }
      if (!program->ok()) {
        status = program->status();
      } else {
        std::optional<afp::StatusOr<afp::Solver>> built;
        {
          Span s(rec, "ground", "from_program", iter);
          built.emplace(afp::Solver::FromProgram(std::move(**program), opts_));
        }
        if (!built->ok()) {
          status = built->status();
        } else {
          session_.emplace(std::move(**built));
          {
            Span s(rec, "core", "solve", iter);
            session_->Solve();
          }
          Span s(rec, "core", "select", iter);
          matches.emplace(session_->Select("wins(X)"));
        }
      }
    }
    const double ms = UsSince(t0) / 1e3;

    bool ok = status.ok() && matches && matches->ok() &&
              (*matches)->size() == won_;
    if (ok) {
      for (const afp::QueryMatch& m : **matches) {
        const int node = std::atoi(m.atom.c_str() + 6);  // "wins(n<i>)"
        ok = ok && node >= 0 && node < n_ &&
             labels_[static_cast<std::size_t>(node)] == GameValue::kWon;
      }
    }
    seg_.tally.Check(ok, "cold request " + std::to_string(iter) + ": " +
                             (status.ok() ? "Select disagrees with the oracle"
                                          : status.ToString()));
    if (ok && full_check) {
      CheckWins(session_->model(), WinsIds(session_->ground(), n_, seg_.tally),
                labels_, "cold model", seg_.tally);
    }
    return ms;
  }

  RunConfig cfg_;
  int n_ = 0;
  Graph g_;
  std::string text_;
  std::vector<GameValue> labels_;
  std::size_t won_ = 0;
  afp::SolverOptions opts_;
  std::optional<afp::Solver> session_;
  std::int64_t iter_ = 0;
  std::vector<double> untraced_ms_, traced_ms_;
  Segment seg_;
};

// ---------------------------------------------------------------------------
// update_clustered: a solved session; a seeded stream of single move-fact
// toggles by text, each followed by kQueriesPerOp point queries, with an
// AddRule/RemoveRule pair of a periphery rule every kRuleEvery toggles.

class UpdateClustered final : public Workload {
 public:
  explicit UpdateClustered(const RunConfig& cfg)
      : cfg_(cfg),
        g_(ClusteredGraph(cfg)),
        toggles_(g_.edges.size(), kToggleDepth, cfg.op_seed),
        ops_(cfg.op_seed ^ kQueryStream) {
    const std::string text = WinMoveText(g_);
    afp::SolverOptions opts;
    opts.ground.simplify = false;  // rule ops need the unsimplified program

    // Set-up: text -> session -> Solve -> the first rule op pair, which pays
    // the one-time provenance initialization of the delta grounder.
    std::vector<double> setup_ms;
    for (int r = 0; r < kSetupReps; ++r) {
      solver_.reset();
      const std::int64_t t0 = NowNs();
      afp::StatusOr<afp::Program> program = afp::Parser::Parse(text);
      if (!program.ok()) {
        seg_.tally.Fail("update parse: " + program.status().ToString());
        return;
      }
      afp::StatusOr<afp::Solver> built =
          afp::Solver::FromProgram(std::move(*program), opts);
      if (!built.ok()) {
        seg_.tally.Fail("update session: " + built.status().ToString());
        return;
      }
      solver_.emplace(std::move(*built));
      solver_->Solve();
      if (r == 0) RecordShape(*solver_, seg_);
      const afp::Status added = solver_->AddRule(ProbeRule(0)).status();
      const afp::Status removed = solver_->RemoveRule(ProbeRule(0)).status();
      setup_ms.push_back(UsSince(t0) / 1e3);
      if (!added.ok() || !removed.ok()) {
        seg_.tally.Fail("update setup rule op: " +
                        (added.ok() ? removed : added).ToString());
        solver_.reset();
        return;
      }
    }
    Put(seg_.e2e, "setup_s", Median(setup_ms) / 1e3, "s");

    wins_ids_ = WinsIds(solver_->ground(), g_.n, seg_.tally);
    out_edges_.resize(static_cast<std::size_t>(g_.n));
    for (std::size_t e = 0; e < g_.edges.size(); ++e) {
      out_edges_[static_cast<std::size_t>(g_.edges[e].first)].push_back(
          static_cast<int>(e));
    }
    for (int i = 0; i < kProbeNodes; ++i) {
      probe_nodes_.push_back(
          static_cast<int>(ops_.Below(static_cast<std::uint32_t>(g_.n))));
    }
  }

  void Run(double seconds) override {
    if (!solver_) return;
    const Deadline deadline(seconds);
    do {
      Op();
    } while (!deadline.Passed());
  }

  void DropSamples() override {
    for (std::vector<double>* v :
         {&update_us_, &query_us_, &rule_us_, &op_untraced_us_,
          &op_traced_us_, &resolved_, &downstream_, &kernel_components_,
          &sp_calls_, &rules_rescanned_, &reground_}) {
      v->clear();
    }
    graph_rebuilds_ = 0;
  }

  Segment Finish() override {
    if (!solver_) return std::move(seg_);
    CheckModel("update model at end of stream");
    Put(seg_.e2e, "op_us_p50", BandPercentile(update_us_, 0.5), "us");
    if (!cfg_.rec) return std::move(seg_);

    MetricMap& L = seg_.layer;
    Put(L, "afp.query_us_p50", BandPercentile(query_us_, 0.5), "us");
    Put(L, "afp.query_us_p99", BandPercentile(query_us_, 0.99), "us");
    Put(L, "afp.rule_update_us_p50", BandPercentile(rule_us_, 0.5), "us");
    const std::vector<SpanRecord> spans = cfg_.rec->Records();
    std::vector<double> resolve = SpanDurationsUs(spans, "parser", "resolve");
    std::vector<double> repair = SpanDurationsUs(spans, "core", "repair");
    const double resolve_p50 = Median(resolve);
    const double repair_p50 = Median(repair);
    Put(L, "parser.resolve_us_p50", resolve_p50, "us");
    Put(L, "core.repair_us_p50", repair_p50, "us");
    Put(L, "core.repair_us_p99", Percentile(repair, 0.99), "us");
    Put(L, "afp.update_self_us_p50",
        Median(SpanDurationsUs(spans, "afp", "update")) - resolve_p50 -
            repair_p50,
        "us");
    Put(L, "core.components_resolved_per_update", Mean(resolved_), "count");
    Put(L, "core.components_downstream_per_update", Mean(downstream_),
        "count");
    Put(L, "core.kernel_components", Mean(kernel_components_), "count");
    Put(L, "core.sp_calls", Mean(sp_calls_), "count");
    Put(L, "core.rules_rescanned", Mean(rules_rescanned_), "count");
    Put(L, "ground.rules_reground_per_op", Mean(reground_), "count");
    Put(L, "analysis.graph_rebuilds", static_cast<double>(graph_rebuilds_),
        "count");
    RecordSessionCounters(solver_->Stats(), L);
    LayerProbes(solver_->ground(), cfg_.threads, cfg_.rec, L);
    Put(L, "trace.overhead_pct", OverheadPct(op_traced_us_, op_untraced_us_),
        "%");
    return std::move(seg_);
  }

 private:
  static constexpr int kQueriesPerOp = 8;
  static constexpr std::int64_t kRuleEvery = 32;
  static constexpr std::int64_t kCheckEvery = 512;
  static constexpr std::int64_t kTracePeriod = 6;

  static std::string ProbeRule(int a) {
    return "probe(X) :- move(" + Node(a) + ",X), not wins(X).";
  }

  void Op() {
    const std::int64_t op = op_++;
    // Phase 0: untraced, through the facade (every op of an untraced run).
    // In a traced run, of every kTracePeriod ops one goes through the
    // traced facade (phase 1) and one through the traced split path
    // ResolveAtom + UpdateFactsById (phase 2), so the facade's own cost and
    // the tracing overhead can both be read off.
    const std::int64_t slot = op % kTracePeriod;
    const int phase = !cfg_.rec ? 0 : slot == 0 ? 1 : slot == 1 ? 2 : 0;
    SpanRecorder* rec = phase ? cfg_.rec : nullptr;
    const ToggleStream::Toggle t = toggles_.Next();
    const std::string atom =
        MoveAtom(g_.edges[t.edge].first, g_.edges[t.edge].second);
    afp::Status status;
    afp::UpdateStats stats;
    answers_.clear();
    const std::int64_t t_op = NowNs();
    {
      Span root(rec, "e2e", "update_op", op);
      const std::int64_t t0 = NowNs();
      if (phase < 2) {
        Span s(rec, "afp", "update", op);
        afp::StatusOr<afp::UpdateStats> r = t.retract
                                                ? solver_->RetractFact(atom)
                                                : solver_->AssertFact(atom);
        if (r.ok()) {
          stats = *r;
        } else {
          status = r.status();
        }
      } else {
        Span s(rec, "afp", "update_split", op);
        std::optional<afp::StatusOr<AtomId>> id;
        {
          Span r(rec, "parser", "resolve", op);
          id.emplace(afp::ResolveAtom(solver_->ground(), atom));
        }
        if (!id->ok()) {
          status = id->status();
        } else {
          const AtomId one[] = {**id};
          Span r(rec, "core", "repair", op);
          stats = t.retract ? solver_->UpdateFactsById({}, one)
                            : solver_->UpdateFactsById(one, {});
        }
      }
      if (phase == 0) update_us_.push_back(UsSince(t0));
      for (int q = 0; q < kQueriesPerOp; ++q) {
        const int node =
            static_cast<int>(ops_.Below(static_cast<std::uint32_t>(g_.n)));
        const std::int64_t tq = NowNs();
        std::optional<afp::StatusOr<TruthValue>> v;
        {
          Span s(rec, "afp", "query", op);
          v.emplace(solver_->Query(WinsAtom(node)));
        }
        if (phase == 0) query_us_.push_back(UsSince(tq));
        seg_.tally.Check(v->ok(), "Query " + WinsAtom(node));
        if (v->ok()) answers_.emplace_back(node, **v);
      }
    }
    if (phase == 0) op_untraced_us_.push_back(UsSince(t_op));
    if (phase == 1) op_traced_us_.push_back(UsSince(t_op));
    seg_.tally.Check(status.ok() && stats.facts_changed == 1,
                     (t.retract ? "retract " : "assert ") + atom + ": " +
                         status.ToString());
    resolved_.push_back(static_cast<double>(stats.components_resolved));
    downstream_.push_back(static_cast<double>(stats.components_downstream));
    kernel_components_.push_back(
        static_cast<double>(stats.eval.kernel_components));
    sp_calls_.push_back(static_cast<double>(stats.eval.sp_calls));
    rules_rescanned_.push_back(static_cast<double>(stats.eval.rules_rescanned));

    std::optional<std::vector<GameValue>> labels;
    if (op % kCheckEvery == kCheckEvery - 1) labels = CheckModel("update model");
    if (op % kRuleEvery == kRuleEvery - 1) {
      RulePair(op, rec, labels ? &*labels : nullptr);
    }
  }

  // Compares the whole model and the last op's query answers with the
  // oracle on the current move graph; returns the oracle's labels.
  std::vector<GameValue> CheckModel(const char* where) {
    std::vector<GameValue> labels = RetrogradeLabels(g_, toggles_.present());
    CheckWins(solver_->model(), wins_ids_, labels, where, seg_.tally);
    for (const auto& [node, value] : answers_) {
      seg_.tally.Check(
          value == Expected(labels[static_cast<std::size_t>(node)]),
          std::string(where) + ": Query " + WinsAtom(node));
    }
    return labels;
  }

  void NoteRule(const afp::StatusOr<afp::RuleUpdateStats>& r,
                const std::string& what) {
    seg_.tally.Check(r.ok(), what + ": " + r.status().ToString());
    if (!r.ok()) return;
    reground_.push_back(static_cast<double>(r->rules_reground));
    graph_rebuilds_ += r->graph_rebuilt ? 1 : 0;
  }

  // One AddRule/RemoveRule pair of a periphery rule; with `labels`, the
  // rule's answers are checked against the oracle between the two ops.
  void RulePair(std::int64_t op, SpanRecorder* rec,
                const std::vector<GameValue>* labels) {
    const int a = probe_nodes_[rule_pairs_++ % probe_nodes_.size()];
    const std::string rule = ProbeRule(a);
    std::optional<afp::StatusOr<afp::RuleUpdateStats>> add, remove;
    std::int64_t t0 = NowNs();
    {
      Span root(rec, "e2e", "add_rule", op);
      Span s(rec, "afp", "add_rule", op);
      add.emplace(solver_->AddRule(rule));
    }
    double us = UsSince(t0);
    NoteRule(*add, "AddRule " + rule);
    if (labels && add->ok()) {
      for (int e : out_edges_[static_cast<std::size_t>(a)]) {
        if (!toggles_.present()[static_cast<std::size_t>(e)]) continue;
        const int y = g_.edges[static_cast<std::size_t>(e)].second;
        const GameValue gy = (*labels)[static_cast<std::size_t>(y)];
        const TruthValue want = gy == GameValue::kLost  ? TruthValue::kTrue
                                : gy == GameValue::kWon ? TruthValue::kFalse
                                                        : TruthValue::kUndefined;
        afp::StatusOr<TruthValue> got =
            solver_->Query("probe(" + Node(y) + ")");
        seg_.tally.Check(got.ok() && *got == want,
                         "probe(" + Node(y) + ") after " + rule);
      }
    }
    t0 = NowNs();
    {
      Span root(rec, "e2e", "remove_rule", op);
      Span s(rec, "afp", "remove_rule", op);
      remove.emplace(solver_->RemoveRule(rule));
    }
    us += UsSince(t0);
    NoteRule(*remove, "RemoveRule " + rule);
    rule_us_.push_back(us);
  }

  RunConfig cfg_;
  Graph g_;
  ToggleStream toggles_;
  Rng ops_;
  std::optional<afp::Solver> solver_;
  std::vector<AtomId> wins_ids_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<int> probe_nodes_;
  std::size_t rule_pairs_ = 0;
  std::int64_t op_ = 0;
  // Answers of the last op's queries, compared with the oracle at checks.
  std::vector<std::pair<int, TruthValue>> answers_;
  std::vector<double> update_us_, query_us_, rule_us_;
  std::vector<double> op_untraced_us_, op_traced_us_;
  std::vector<double> resolved_, downstream_, kernel_components_, sp_calls_,
      rules_rescanned_, reground_;
  std::size_t graph_rebuilds_ = 0;
  Segment seg_;
};

// ---------------------------------------------------------------------------
// stable_even_clusters: full stable-model enumeration, repeated on one
// solved session.

class StableEvenClusters final : public Workload {
 public:
  explicit StableEvenClusters(const RunConfig& cfg) : cfg_(cfg) {
    k_ = cfg.size == Size::kFull ? 12 : 4;
    chain_ = cfg.size == Size::kFull ? 24 : 6;
    const std::string text = EvenCycleClustersText(k_, chain_);
    afp::SolverOptions opts;
    opts.search_threads = cfg.threads;
    std::vector<double> setup_ms;
    for (int r = 0; r < kSetupReps; ++r) {
      solver_.reset();
      const std::int64_t t0 = NowNs();
      afp::StatusOr<afp::Program> program = afp::Parser::Parse(text);
      if (!program.ok()) {
        seg_.tally.Fail("stable parse: " + program.status().ToString());
        return;
      }
      afp::StatusOr<afp::Solver> built =
          afp::Solver::FromProgram(std::move(*program), opts);
      if (!built.ok()) {
        seg_.tally.Fail("stable session: " + built.status().ToString());
        return;
      }
      solver_.emplace(std::move(*built));
      solver_->Solve();
      if (r == 0) RecordShape(*solver_, seg_);
      solver_->StableModels();  // builds and warms the cached search engine
      setup_ms.push_back(UsSince(t0) / 1e3);
    }
    Put(seg_.e2e, "setup_s", Median(setup_ms) / 1e3, "s");

    for (int i = 0; i < k_; ++i) {
      const std::string s = std::to_string(i);
      a_ids_.push_back(IdOf("a_" + s));
      b_ids_.push_back(IdOf("b_" + s));
      c_ids_.emplace_back();
      for (int j = 0; j < chain_; ++j) {
        c_ids_.back().push_back(IdOf("c_" + s + "_" + std::to_string(j)));
      }
    }
  }

  void Run(double seconds) override {
    if (!solver_) return;
    const Deadline deadline(seconds);
    do {
      const bool traced = cfg_.rec && iter_ % 2 == 1;
      SpanRecorder* rec = traced ? cfg_.rec : nullptr;
      last_.reset();  // frees the previous models outside the timing
      const std::int64_t t0 = NowNs();
      {
        Span root(rec, "e2e", "enumerate", iter_);
        Span s(rec, "search", "stable_models", iter_);
        last_.emplace(solver_->StableModels());
      }
      (traced ? traced_ms_ : untraced_ms_).push_back(UsSince(t0) / 1e3);
      Check(*last_);
      ++iter_;
    } while (!deadline.Passed());
  }

  void DropSamples() override {
    untraced_ms_.clear();
    traced_ms_.clear();
  }

  Segment Finish() override {
    Put(seg_.e2e, "op_us_p50", BandPercentile(untraced_ms_, 0.5) * 1e3, "us");
    if (!cfg_.rec || !last_) return std::move(seg_);
    MetricMap& L = seg_.layer;
    const afp::StableSearchStats& ss = last_->search;
    Put(L, "search.nodes", static_cast<double>(ss.nodes), "count");
    Put(L, "search.afp_calls", static_cast<double>(ss.afp_calls), "count");
    Put(L, "search.steals", static_cast<double>(ss.steals), "count");
    Put(L, "search.idle_waits", static_cast<double>(ss.idle_waits), "count");
    double max_nodes = 0.0, sum_nodes = 0.0;
    for (std::size_t w : ss.per_worker_nodes) {
      max_nodes = std::max(max_nodes, static_cast<double>(w));
      sum_nodes += static_cast<double>(w);
    }
    const double mean_nodes =
        ss.per_worker_nodes.empty()
            ? 0.0
            : sum_nodes / static_cast<double>(ss.per_worker_nodes.size());
    Put(L, "search.worker_imbalance",
        mean_nodes > 0 ? max_nodes / mean_nodes : 0.0, "ratio");
    Put(L, "search.useful_ratio",
        ss.stable_checks ? static_cast<double>(ss.models) /
                               static_cast<double>(ss.stable_checks)
                         : 0.0,
        "ratio");
    Put(L, "core.sp_calls", static_cast<double>(last_->eval.sp_calls),
        "count");
    Put(L, "core.rules_rescanned",
        static_cast<double>(last_->eval.rules_rescanned), "count");
    RecordSessionCounters(solver_->Stats(), L);
    LayerProbes(solver_->ground(), cfg_.threads, cfg_.rec, L);

    // Dispatch cost of the work pool alone: an empty task over a binary
    // tree with as many items as the search visited nodes.
    const std::uint64_t items = std::max<std::uint64_t>(1, ss.nodes);
    afp::SchedulerOptions so;
    so.num_threads = cfg_.threads;
    const std::uint64_t root[] = {1};
    for (int rep = 0; rep < 5; ++rep) {
      Span s(cfg_.rec, "exec", "workpool_noop", -1);
      afp::RunWorkPool(root, so,
                       [items](afp::WorkPool& pool, std::uint64_t item,
                               std::uint32_t worker) {
                         if (2 * item <= items) pool.Submit(2 * item, worker);
                         if (2 * item + 1 <= items) {
                           pool.Submit(2 * item + 1, worker);
                         }
                       });
    }
    Put(L, "exec.workpool_noop_ms",
        MedianSpanUs(cfg_.rec, "exec", "workpool_noop") / 1e3, "ms");
    Put(L, "trace.overhead_pct", OverheadPct(traced_ms_, untraced_ms_), "%");
    return std::move(seg_);
  }

 private:
  AtomId IdOf(const std::string& atom) {
    afp::StatusOr<AtomId> id = afp::ResolveAtom(solver_->ground(), atom);
    if (!id.ok()) {
      seg_.tally.Fail("resolve " + atom + ": " + id.status().ToString());
    }
    return id.ok() ? *id : afp::kInvalidAtom;
  }

  // Every model holds exactly one of a_i/b_i and c_i_j iff j is even, and
  // the 2^k models are distinct (their a-patterns cover every mask).
  void Check(const afp::StableResult& res) {
    const std::size_t expected = std::size_t{1} << k_;
    auto holds = [](const afp::Bitset& m, AtomId id) {
      return id != afp::kInvalidAtom && m.Test(id);
    };
    bool ok = res.search.complete && res.models.size() == expected;
    std::vector<bool> seen(expected, false);
    for (const afp::Bitset& m : res.models) {
      std::size_t mask = 0;
      for (int i = 0; ok && i < k_; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const bool a = holds(m, a_ids_[ui]);
        ok = a != holds(m, b_ids_[ui]);
        mask |= static_cast<std::size_t>(a) << i;
        for (int j = 0; ok && j < chain_; ++j) {
          ok = holds(m, c_ids_[ui][static_cast<std::size_t>(j)]) ==
               (j % 2 == 0);
        }
      }
      if (!ok || seen[mask]) {
        ok = false;
        break;
      }
      seen[mask] = true;
    }
    seg_.tally.Check(ok, "stable enumeration: " +
                             std::to_string(res.models.size()) + " models");
  }

  RunConfig cfg_;
  int k_ = 0;
  int chain_ = 0;
  std::optional<afp::Solver> solver_;
  std::vector<AtomId> a_ids_, b_ids_;
  std::vector<std::vector<AtomId>> c_ids_;
  std::int64_t iter_ = 0;
  std::optional<afp::StableResult> last_;
  std::vector<double> untraced_ms_, traced_ms_;
  Segment seg_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg) {
  if (name == "cold_winmove_er") return std::make_unique<ColdWinmoveEr>(cfg);
  if (name == "update_clustered") {
    return std::make_unique<UpdateClustered>(cfg);
  }
  if (name == "stable_even_clusters") {
    return std::make_unique<StableEvenClusters>(cfg);
  }
  return nullptr;
}

}  // namespace e2e
