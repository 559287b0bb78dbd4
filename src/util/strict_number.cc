#include "util/strict_number.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace sgr {

namespace {

[[noreturn]] void Reject(const std::string& text, const std::string& what,
                         const char* expected) {
  throw std::runtime_error(what + "='" + text + "' is not " + expected);
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::uint64_t ParseStrictUint(const std::string& text,
                              const std::string& what) {
  constexpr const char* kExpected = "a non-negative 64-bit integer";
  if (text.empty()) Reject(text, what, kExpected);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (!IsDigit(c)) Reject(text, what, kExpected);
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) Reject(text, what, kExpected);
    value = value * 10 + digit;
  }
  return value;
}

double ParseStrictDouble(const std::string& text, const std::string& what) {
  constexpr const char* kExpected = "a finite non-negative number";
  // strtod alone skips leading whitespace, takes a sign, and reads "inf",
  // "nan" and hex floats; a leading digit or '.' and no 'x' rule all of
  // those out before it runs.
  if (text.empty() || !(IsDigit(text[0]) || text[0] == '.') ||
      text.find_first_of("xX") != std::string::npos) {
    Reject(text, what, kExpected);
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value)) {
    Reject(text, what, kExpected);
  }
  return value;
}

}  // namespace sgr
