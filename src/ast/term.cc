#include "ast/term.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "util/span_hash.h"

namespace afp {

std::uint64_t TermTable::HashTerm(TermKind kind, SymbolId symbol,
                                  std::span<const TermId> args) {
  std::uint64_t h = HashMixWord(kSpanHashSeed, static_cast<std::uint64_t>(kind));
  h = HashMixWord(h, symbol);
  h = HashMixSpan(h, args);
  return HashAvalanche(h);
}

bool TermTable::TermEquals(TermId id, TermKind kind, SymbolId symbol,
                           std::span<const TermId> args) const {
  const Node& n = nodes_[id];
  if (n.kind != kind || n.symbol != symbol || n.args_len != args.size()) {
    return false;
  }
  return std::equal(args.begin(), args.end(), args_.data() + n.args_offset);
}

TermId TermTable::AppendNode(TermKind kind, SymbolId symbol,
                             std::span<const TermId> args) {
  Node node;
  node.kind = kind;
  node.symbol = symbol;
  node.args_offset = static_cast<std::uint32_t>(args_.size());
  node.args_len = static_cast<std::uint32_t>(args.size());
  node.ground = kind != TermKind::kVariable;
  node.depth = 0;
  for (TermId a : args) {
    node.ground = node.ground && nodes_[a].ground;
    node.depth = std::max(node.depth, nodes_[a].depth + 1);
  }
  args_.insert(args_.end(), args.begin(), args.end());
  TermId id = static_cast<TermId>(nodes_.size());
  nodes_.push_back(node);
  return id;
}

TermId TermTable::Intern(TermKind kind, SymbolId symbol,
                         std::span<const TermId> args) {
  const std::uint64_t h = HashTerm(kind, symbol, args);
  const TermId next = static_cast<TermId>(nodes_.size());
  const TermId got = flat_.FindOrInsert(h, next, [&](std::uint32_t id) {
    return TermEquals(id, kind, symbol, args);
  });
  if (got == next) AppendNode(kind, symbol, args);
  return got;
}

TermId TermTable::Find(TermKind kind, SymbolId symbol,
                       std::span<const TermId> args) const {
  const std::uint64_t h = HashTerm(kind, symbol, args);
  const std::uint32_t got = flat_.Find(h, [&](std::uint32_t id) {
    return TermEquals(id, kind, symbol, args);
  });
  return got == FlatIndex::kNotFound ? kInvalidTerm : got;
}

TermId TermTable::MakeConstant(SymbolId symbol) {
  return Intern(TermKind::kConstant, symbol, {});
}

TermId TermTable::MakeVariable(SymbolId symbol) {
  return Intern(TermKind::kVariable, symbol, {});
}

TermId TermTable::MakeCompound(SymbolId functor,
                               std::span<const TermId> args) {
  assert(!args.empty() && "zero-arity compounds must be constants");
  return Intern(TermKind::kCompound, functor, args);
}

TermId TermTable::FindConstant(SymbolId symbol) const {
  return Find(TermKind::kConstant, symbol, {});
}

TermId TermTable::FindCompound(SymbolId functor,
                               std::span<const TermId> args) const {
  return Find(TermKind::kCompound, functor, args);
}

void AppendSymbol(std::string& out, std::string_view name) {
  auto digit = [](char c) { return c >= '0' && c <= '9'; };
  auto ident = [&](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || digit(c) ||
           c == '_';
  };
  bool bare;
  if (!name.empty() && (name[0] == '-' || digit(name[0]))) {
    bare = name.size() > 1 || name[0] != '-';
    for (std::size_t i = 1; bare && i < name.size(); ++i) bare = digit(name[i]);
  } else {
    bare = !name.empty() && name[0] >= 'a' && name[0] <= 'z' && name != "not";
    for (std::size_t i = 1; bare && i < name.size(); ++i) bare = ident(name[i]);
  }
  if (bare) {
    out += name;
  } else {
    out += '\'';
    out += name;
    out += '\'';
  }
}

std::string TermTable::ToString(TermId t, const Interner& symbols) const {
  // Depth first over an explicit stack of (compound, next argument)
  // frames, appending to one string: a term's nesting depth is bounded by
  // memory, not by the call stack.
  std::string out;
  std::vector<std::pair<TermId, std::uint32_t>> open;
  auto name = [&](TermId id) {
    const Node& n = nodes_[id];
    if (n.kind == TermKind::kVariable) {
      out += symbols.Name(n.symbol);
    } else {
      AppendSymbol(out, symbols.Name(n.symbol));
    }
    if (n.kind == TermKind::kCompound) {
      out += '(';
      open.emplace_back(id, 0);
    }
  };
  name(t);
  while (!open.empty()) {
    const Node& n = nodes_[open.back().first];
    const std::uint32_t i = open.back().second++;
    if (i == n.args_len) {
      out += ')';
      open.pop_back();
      continue;
    }
    if (i > 0) out += ',';
    name(args_[n.args_offset + i]);
  }
  return out;
}

TermId TermTable::SubstituteCompound(TermId t, const TermBinding& binding) {
  // Copy what the loop needs: MakeCompound may append to nodes_ and args_,
  // so no reference into either survives a recursive call.
  const SymbolId functor = nodes_[t].symbol;
  const std::uint32_t offset = nodes_[t].args_offset;
  const std::uint32_t len = nodes_[t].args_len;
  const std::size_t base = subst_stack_.size();
  bool changed = false;
  for (std::uint32_t i = 0; i < len; ++i) {
    const TermId a = args_[offset + i];
    const TermId na = Substitute(a, binding);
    changed = changed || na != a;
    subst_stack_.push_back(na);
  }
  TermId out = t;
  if (changed) {
    out = MakeCompound(functor, {subst_stack_.data() + base, len});
  }
  subst_stack_.resize(base);
  return out;
}

void TermTable::CollectVariables(TermId t, std::vector<SymbolId>& out) const {
  const Node& n = nodes_[t];
  if (n.ground) return;
  if (n.kind == TermKind::kVariable) {
    out.push_back(n.symbol);
    return;
  }
  for (TermId a : args(t)) CollectVariables(a, out);
}

bool TermTable::MatchCompound(TermId pattern, TermId ground,
                              TermBinding& binding) const {
  const Node& p = nodes_[pattern];
  const Node& g = nodes_[ground];
  if (g.kind != TermKind::kCompound || g.symbol != p.symbol ||
      g.args_len != p.args_len) {
    return false;
  }
  for (std::uint32_t i = 0; i < p.args_len; ++i) {
    if (!Match(args_[p.args_offset + i], args_[g.args_offset + i], binding)) {
      return false;
    }
  }
  return true;
}

}  // namespace afp
