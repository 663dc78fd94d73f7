// Shared SLICER_* knob parsing: defaults, clamping, and malformed-value
// rejection must behave identically for every knob (SLICER_THREADS,
// SLICER_SHARDS, SLICER_PROOF_CACHE, SLICER_NET_THREADS, ...).
#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace slicer::env {
namespace {

/// RAII setenv/unsetenv for one knob.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_.c_str()); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
};

TEST(EnvKnob, UnsetUsesFallback) {
  ScopedEnv guard("SLICER_TEST_UNSET", nullptr);
  EXPECT_EQ(size_knob("SLICER_TEST_UNSET", 7, 1, 100), 7u);
}

TEST(EnvKnob, EmptyUsesFallback) {
  ScopedEnv guard("SLICER_TEST_EMPTY", "");
  EXPECT_EQ(size_knob("SLICER_TEST_EMPTY", 7, 1, 100), 7u);
}

TEST(EnvKnob, WellFormedValueParses) {
  ScopedEnv guard("SLICER_TEST_OK", "42");
  EXPECT_EQ(size_knob("SLICER_TEST_OK", 7, 1, 100), 42u);
}

TEST(EnvKnob, OutOfRangeClamps) {
  {
    ScopedEnv guard("SLICER_TEST_HIGH", "5000");
    EXPECT_EQ(size_knob("SLICER_TEST_HIGH", 7, 1, 100), 100u);
  }
  {
    ScopedEnv guard("SLICER_TEST_LOW", "0");
    EXPECT_EQ(size_knob("SLICER_TEST_LOW", 7, 1, 100), 1u);
  }
}

TEST(EnvKnob, MalformedFallsBack) {
  const char* bad[] = {"4x", "1e3", "x4", " 4", "4 ", "-3", "0x10", "", "++1"};
  for (const char* value : bad) {
    ScopedEnv guard("SLICER_TEST_BAD", value);
    EXPECT_EQ(size_knob("SLICER_TEST_BAD", 7, 1, 100), 7u)
        << "value: '" << value << "'";
  }
}

TEST(EnvKnob, OverflowFallsBack) {
  // Larger than any uint64: strtoull saturates with ERANGE → malformed.
  ScopedEnv guard("SLICER_TEST_HUGE", "99999999999999999999999999");
  EXPECT_EQ(size_knob("SLICER_TEST_HUGE", 7, 1, 100), 7u);
}

TEST(EnvKnob, BoundaryValuesPassThrough) {
  {
    ScopedEnv guard("SLICER_TEST_MIN", "1");
    EXPECT_EQ(size_knob("SLICER_TEST_MIN", 7, 1, 100), 1u);
  }
  {
    ScopedEnv guard("SLICER_TEST_MAX", "100");
    EXPECT_EQ(size_knob("SLICER_TEST_MAX", 7, 1, 100), 100u);
  }
}

}  // namespace
}  // namespace slicer::env
