#ifndef AFP_UTIL_SPAN_HASH_H_
#define AFP_UTIL_SPAN_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace afp {

/// The one span-hash of the interning pipeline. AtomTable, TermTable, the
/// grounder's instance-dedupe signature and GroundProgram's pre-seal rule
/// dedupe all hash the same shape of data — a small header word plus one or
/// more spans of dense 32-bit ids — and used to carry four copy-pasted
/// `h = h * 1000003 + v` loops. Those polynomials have no avalanche step:
/// their low bits are a near-linear function of the last few elements,
/// which is survivable under std::unordered_map's prime-modulus bucketing
/// but clusters catastrophically under FlatIndex's power-of-two masking.
/// Every hash built from these mixers therefore MUST be finished with
/// HashAvalanche before it is used to index anything.

/// Fixed seed so hashes are deterministic run to run (the flat index stores
/// them; determinism keeps probe traces reproducible under a debugger).
inline constexpr std::uint64_t kSpanHashSeed = 0x9E3779B97F4A7C15ull;

/// splitmix64 finalizer: full avalanche, so power-of-two slot masks see
/// every input bit.
inline std::uint64_t HashAvalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Folds one word into the running state. xor-multiply-shift: cheap, and
/// keeps adjacent ids (the common case — dense AtomIds) from landing in
/// adjacent slots once finished.
inline std::uint64_t HashMixWord(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull;
  h *= 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return h;
}

/// Folds a span of dense ids into the running state. The trailing length
/// word separates e.g. ([a], [b]) from ([a, b], []) when two spans are
/// mixed back to back (rule pos/neg bodies).
inline std::uint64_t HashMixSpan(std::uint64_t h,
                                 std::span<const std::uint32_t> s) {
  for (std::uint32_t v : s) h = HashMixWord(h, v);
  return HashMixWord(h, s.size());
}

/// Finished hash of a byte string (interned names). Every byte is read
/// through whole-word loads — the last word overlapping the previous one
/// instead of a byte loop over the tail — since most names are shorter
/// than one word.
inline std::uint64_t HashBytes(std::string_view s) {
  const char* p = s.data();
  const std::size_t n = s.size();
  auto load64 = [](const char* q) {
    std::uint64_t w;
    std::memcpy(&w, q, 8);
    return w;
  };
  auto load32 = [](const char* q) {
    std::uint32_t w;
    std::memcpy(&w, q, 4);
    return std::uint64_t{w};
  };
  std::uint64_t h = HashMixWord(kSpanHashSeed, n);
  if (n >= 8) {
    for (std::size_t i = 0; i + 8 < n; i += 8) {
      h = HashMixWord(h, load64(p + i));
    }
    h = HashMixWord(h, load64(p + n - 8));
  } else if (n >= 4) {
    h = HashMixWord(h, load32(p) | load32(p + n - 4) << 32);
  } else if (n > 0) {
    auto byte = [&](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])};
    };
    h = HashMixWord(h, byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16);
  }
  return HashAvalanche(h);
}

}  // namespace afp

#endif  // AFP_UTIL_SPAN_HASH_H_
