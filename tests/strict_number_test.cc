#include "util/strict_number.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace sgr {
namespace {

TEST(StrictNumberTest, AcceptsPlainDecimals) {
  EXPECT_EQ(ParseStrictUint("0", "--n"), 0u);
  EXPECT_EQ(ParseStrictUint("42", "--n"), 42u);
  EXPECT_EQ(ParseStrictUint("007", "--n"), 7u);
  EXPECT_EQ(ParseStrictUint("18446744073709551615", "--n"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ParseStrictDouble("0.1", "--x"), 0.1);
  EXPECT_EQ(ParseStrictDouble("2", "--x"), 2.0);
  EXPECT_EQ(ParseStrictDouble(".5", "--x"), 0.5);
  EXPECT_EQ(ParseStrictDouble("1e-3", "--x"), 1e-3);
  EXPECT_EQ(ParseStrictDouble("1.5E+2", "--x"), 150.0);
}

TEST(StrictNumberTest, RejectsJunkSignsOverflowAndNonFinite) {
  for (const char* bad :
       {"", " 1", "1 ", "2x", "0x10", "-1", "+1", "1.5", "1e3",
        "18446744073709551616", "99999999999999999999", "abc"}) {
    EXPECT_THROW(ParseStrictUint(bad, "--n"), std::runtime_error) << bad;
  }
  for (const char* bad :
       {"", " 1", "1 ", "0.1x", "1.x5", "-1", "+1", "-0", "inf", "nan",
        "Infinity", "0x1p3", "1e999", "1e", ".", "e5"}) {
    EXPECT_THROW(ParseStrictDouble(bad, "--x"), std::runtime_error) << bad;
  }
  // An embedded NUL ends strtod's scan early; it is trailing junk too.
  EXPECT_THROW(ParseStrictDouble(std::string("1\0", 2), "--x"),
               std::runtime_error);
}

TEST(StrictNumberTest, ErrorNamesTheKnobAndTheText) {
  try {
    ParseStrictUint("2x", "--threads");
    FAIL() << "accepted 2x";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--threads"), std::string::npos) << message;
    EXPECT_NE(message.find("'2x'"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace sgr
