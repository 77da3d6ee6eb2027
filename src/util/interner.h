#ifndef AFP_UTIL_INTERNER_H_
#define AFP_UTIL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_index.h"
#include "util/span_hash.h"

namespace afp {

/// Dense integer id for an interned string (predicate, function, constant or
/// variable name). Ids are stable for the lifetime of the Interner.
using SymbolId = std::uint32_t;

/// Bidirectional string <-> SymbolId map. Interning makes symbol comparison
/// O(1) and lets terms/atoms store 4-byte ids instead of strings.
///
/// Each name is stored once, in names_; a FlatIndex of (hash, id) slots
/// finds it by comparing the probe against names_ in place, so a lookup
/// builds no key and allocates nothing.
class Interner {
 public:
  /// Returns the id for `name`, interning it if new.
  SymbolId Intern(std::string_view name) {
    const SymbolId fresh = static_cast<SymbolId>(names_.size());
    const SymbolId id = index_.FindOrInsert(
        HashBytes(name), fresh, [&](SymbolId r) { return names_[r] == name; });
    if (id == fresh) names_.emplace_back(name);
    return id;
  }

  /// Returns the id for `name` if interned, or npos otherwise. Safe to call
  /// from several threads while no thread interns.
  static constexpr SymbolId npos = FlatIndex::kNotFound;
  SymbolId Find(std::string_view name) const {
    return index_.FindShared(HashBytes(name),
                             [&](SymbolId r) { return names_[r] == name; });
  }

  /// Returns the string for an id. Precondition: id < size().
  const std::string& Name(SymbolId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  FlatIndex index_;
};

}  // namespace afp

#endif  // AFP_UTIL_INTERNER_H_
