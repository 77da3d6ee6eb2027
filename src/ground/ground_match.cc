#include "ground/ground_match.h"

#include <algorithm>
#include <cassert>
#include <new>

namespace afp {

void JoinCore::MarkDerived(AtomId a, SymbolId pred, std::uint32_t round) {
  derived_[a] = 1;
  derived_log_.push_back(a);

  if (pred >= lists_.size()) lists_.resize(pred + 1);
  PredList* pl = &lists_[pred];
  if (pl->tail == nullptr || pl->tail->count == pl->tail->cap) {
    const std::uint32_t cap =
        pl->tail == nullptr ? 8u : std::min(pl->tail->cap * 2u, 4096u);
    void* mem = arena_.Allocate(sizeof(CandChunk) + cap * sizeof(AtomId),
                                alignof(CandChunk));
    CandChunk* c = new (mem) CandChunk{nullptr, 0, cap};
    if (pl->tail == nullptr) {
      pl->head = c;
    } else {
      pl->tail->next = c;
    }
    pl->tail = c;
  }
  const Cursor at{pl->count, pl->tail, pl->tail->count};
  pl->tail->items()[pl->tail->count++] = a;
  assert(pl->starts.empty() || pl->starts.back().round <= round);
  if (pl->starts.empty() || pl->starts.back().round != round) {
    pl->starts.push_back({round, at});
  }
  ++pl->count;
}

std::span<const SymbolId> JoinCore::DeltaPredicates(const AtomTable& atoms,
                                                    std::size_t begin,
                                                    std::size_t end) {
  delta_preds_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    delta_preds_.push_back(atoms.predicate(derived_log_[i]));
  }
  std::sort(delta_preds_.begin(), delta_preds_.end());
  delta_preds_.erase(std::unique(delta_preds_.begin(), delta_preds_.end()),
                     delta_preds_.end());
  return delta_preds_;
}

JoinCore::Cursor JoinCore::StartOf(const PredList& pl, std::uint32_t round) {
  // Scanned from the back: a join asks for the last two rounds at most,
  // so this stops after an entry or two whatever the list's history.
  std::size_t i = pl.starts.size();
  while (i > 0 && pl.starts[i - 1].round >= round) --i;
  if (i < pl.starts.size()) return pl.starts[i].at;
  return Cursor{pl.count, nullptr, 0};  // past the end
}

JoinCore::Range JoinCore::RangeOf(SymbolId pred, RoundFilter filter,
                                  std::uint32_t round) const {
  Range out;
  if (pred >= lists_.size() || lists_[pred].count == 0) return out;
  const PredList* pl = &lists_[pred];
  const Cursor front{0, pl->head, 0};
  switch (filter) {
    case RoundFilter::kOld:
      out.from = front;
      out.end = StartOf(*pl, round - 1).offset;
      break;
    case RoundFilter::kDelta:
      out.from = StartOf(*pl, round - 1);
      out.end = StartOf(*pl, round).offset;
      break;
    case RoundFilter::kUpTo:
      out.from = front;
      out.end = StartOf(*pl, round).offset;
      break;
  }
  return out;
}

}  // namespace afp
