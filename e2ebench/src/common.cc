#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>

namespace e2e {

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

double BandPercentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  constexpr double kBand = 0.005;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const std::size_t lo = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::max(0.0, std::floor((q - kBand) * n))));
  const std::size_t hi = std::clamp(
      static_cast<std::size_t>(std::ceil((q + kBand) * n)), lo + 1, v.size());
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void Tally::Fail(const std::string& what) {
  ++failed;
  if (notes.size() < 8) notes.push_back(what);
}

// ---------------------------------------------------------------------------

std::int64_t SpanRecorder::Open(const char* layer, const char* call,
                                std::int64_t iteration) {
  SpanRecord r;
  r.layer = layer;
  r.call = call;
  r.iteration = iteration;
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t>& stack = open_[self];
  r.parent = stack.empty() ? -1 : stack.back();
  r.thread = static_cast<int>(std::distance(open_.begin(), open_.find(self)));
  const std::int64_t index = static_cast<std::int64_t>(records_.size());
  records_.push_back(r);
  stack.push_back(index);
  records_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(std::int64_t index) {
  const std::int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(index)].end_ns = end;
  open_[std::this_thread::get_id()].pop_back();
}

std::vector<SpanRecord> SpanRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "index\tlayer\tcall\tstart_ns\tend_ns\tparent\titeration\tthread\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f, "%zu\t%s\t%s\t%lld\t%lld\t%lld\t%lld\t%d\n", i, r.layer,
                 r.call, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.iteration), r.thread);
  }
  return std::fclose(f) == 0;
}

SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  SelfTimes out;
  // Children's covered time per parent; children never overlap each other
  // (one thread, LIFO), so their durations sum to the covered part.
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<std::int64_t> root(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent < 0) {
      root[i] = static_cast<std::int64_t>(i);
    } else {
      root[i] = root[static_cast<std::size_t>(s.parent)];
      child_ms[static_cast<std::size_t>(s.parent)] += s.dur_us() / 1e3;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (std::string(spans[static_cast<std::size_t>(root[i])].layer) != "e2e") {
      continue;
    }
    out.layer_ms[s.layer] += s.dur_us() / 1e3 - child_ms[i];
    if (s.parent < 0) {
      out.e2e_ms += s.dur_us() / 1e3;
      ++out.iterations;
    }
  }
  return out;
}

std::vector<double> SpanDurationsUs(const std::vector<SpanRecord>& spans,
                                    const char* layer, const char* call) {
  std::vector<double> out;
  const std::string l(layer), c(call);
  for (const SpanRecord& s : spans) {
    if (l == s.layer && c == s.call) out.push_back(s.dur_us());
  }
  return out;
}

// ---------------------------------------------------------------------------

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ToggleStream::Toggle ToggleStream::Next() {
  Toggle t;
  if (out_.size() >= depth_ && !out_.empty()) {
    t.edge = out_.front();
    out_.pop_front();
    present_[t.edge] = true;
    return t;
  }
  do {
    t.edge = rng_.Below(static_cast<std::uint32_t>(present_.size()));
  } while (!present_[t.edge]);
  t.retract = true;
  present_[t.edge] = false;
  out_.push_back(t.edge);
  return t;
}

Graph ErdosRenyi(int n, int m, std::uint64_t seed) {
  Graph g;
  g.n = n;
  Rng rng(seed);
  std::set<std::pair<int, int>> seen;
  const std::uint32_t un = static_cast<std::uint32_t>(n);
  while (static_cast<int>(g.edges.size()) < m) {
    const int u = static_cast<int>(rng.Below(un));
    const int v = static_cast<int>(rng.Below(un));
    if (u != v && seen.insert({u, v}).second) g.edges.push_back({u, v});
  }
  return g;
}

Graph ClusteredScc(int clusters, int size, int intra, int inter,
                   std::uint64_t seed) {
  Graph g;
  g.n = clusters * size;
  Rng rng(seed);
  std::set<std::pair<int, int>> seen;
  auto add = [&](int u, int v) {
    if (u != v && seen.insert({u, v}).second) g.edges.push_back({u, v});
  };
  const std::uint32_t us = static_cast<std::uint32_t>(size);
  for (int c = 0; c < clusters; ++c) {
    const int base = c * size;
    for (int i = 0; i < size; ++i) add(base + i, base + (i + 1) % size);
    for (int e = 0; e < intra; ++e) {
      add(base + static_cast<int>(rng.Below(us)),
          base + static_cast<int>(rng.Below(us)));
    }
  }
  const std::uint32_t uc = static_cast<std::uint32_t>(clusters);
  for (int e = 0; clusters > 1 && e < inter; ++e) {
    int a = static_cast<int>(rng.Below(uc));
    int b = static_cast<int>(rng.Below(uc));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    add(a * size + static_cast<int>(rng.Below(us)),
        b * size + static_cast<int>(rng.Below(us)));
  }
  return g;
}

std::string WinMoveText(const Graph& g) {
  std::string text = "wins(X) :- move(X,Y), not wins(Y).\n";
  text.reserve(text.size() + g.edges.size() * 20);
  for (const auto& [u, v] : g.edges) {
    text += MoveAtom(u, v);
    text += ".\n";
  }
  return text;
}

std::string EvenCycleClustersText(int k, int chain) {
  std::string text;
  for (int i = 0; i < k; ++i) {
    const std::string s = std::to_string(i);
    text += "a_" + s + " :- not b_" + s + ".\n";
    text += "b_" + s + " :- not a_" + s + ".\n";
    text += "c_" + s + "_0.\n";
    for (int j = 1; j < chain; ++j) {
      text += "c_" + s + "_" + std::to_string(j) + " :- not c_" + s + "_" +
              std::to_string(j - 1) + ".\n";
    }
  }
  return text;
}

// ---------------------------------------------------------------------------

std::vector<GameValue> RetrogradeLabels(const Graph& g,
                                        const std::vector<bool>& present) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  std::vector<std::vector<int>> preds(n);
  std::vector<int> open_moves(n, 0);
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (!present.empty() && !present[e]) continue;
    const auto [u, v] = g.edges[e];
    preds[static_cast<std::size_t>(v)].push_back(u);
    ++open_moves[static_cast<std::size_t>(u)];
  }
  std::vector<GameValue> label(n, GameValue::kDrawn);
  std::deque<int> queue;
  for (std::size_t v = 0; v < n; ++v) {
    if (open_moves[v] == 0) {
      label[v] = GameValue::kLost;
      queue.push_back(static_cast<int>(v));
    }
  }
  while (!queue.empty()) {
    const std::size_t v = static_cast<std::size_t>(queue.front());
    queue.pop_front();
    for (int u : preds[v]) {
      const std::size_t pu = static_cast<std::size_t>(u);
      if (label[pu] != GameValue::kDrawn) continue;
      if (label[v] == GameValue::kLost) {
        label[pu] = GameValue::kWon;
        queue.push_back(u);
      } else if (--open_moves[pu] == 0) {
        label[pu] = GameValue::kLost;
        queue.push_back(u);
      }
    }
  }
  return label;
}

}  // namespace e2e
