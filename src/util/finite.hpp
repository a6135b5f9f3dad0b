#pragma once

/// \file finite.hpp
/// Branch-free finiteness screen for float payloads.

#include <bit>
#include <cstdint>
#include <span>

namespace coastal::util {

/// True when no element of `v` is NaN or ±Inf.  A float is non-finite
/// exactly when its exponent bits are all ones; the loop ORs that test
/// over the whole span with no early exit, so the compiler turns it into
/// vector AND/compare/OR (SSE2 and up).
inline bool all_finite(std::span<const float> v) {
  constexpr uint32_t kExp = 0x7F800000u;
  uint32_t bad = 0;
  for (const float x : v) bad |= (std::bit_cast<uint32_t>(x) & kExp) == kExp;
  return bad == 0;
}

}  // namespace coastal::util
