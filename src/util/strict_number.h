#ifndef SGR_UTIL_STRICT_NUMBER_H_
#define SGR_UTIL_STRICT_NUMBER_H_

#include <cstdint>
#include <string>

namespace sgr {

/// Strict parsers for user-supplied numbers: CLI flags and SGR_*
/// environment knobs. The whole text must be the number — no leading
/// whitespace, no sign, no trailing characters — because the lax
/// std::stoull / std::strtod idiom silently ran "2x" as 2 and "-1" as
/// 2^64 - 1. Both throw std::runtime_error naming `what` (the flag or
/// variable) and the offending text.

/// A decimal unsigned integer that fits in 64 bits.
std::uint64_t ParseStrictUint(const std::string& text,
                              const std::string& what);

/// A finite non-negative decimal number ("0.5", "2", ".5", "1e-3"). Hex
/// floats, "inf" and "nan" are rejected.
double ParseStrictDouble(const std::string& text, const std::string& what);

}  // namespace sgr

#endif  // SGR_UTIL_STRICT_NUMBER_H_
