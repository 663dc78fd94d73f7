#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace slicer::env {

namespace {

/// One diagnostic per knob per process: repeated reads of a misconfigured
/// knob (some are consulted per-construction) must not flood stderr.
void diagnose_once(const char* name, const std::string& message) {
  static std::mutex mu;
  static std::set<std::string>* reported = new std::set<std::string>();
  const std::lock_guard lock(mu);
  if (!reported->insert(name).second) return;
  std::fprintf(stderr, "slicer: %s: %s\n", name, message.c_str());
}

}  // namespace

std::size_t size_knob(const char* name, std::size_t fallback,
                      std::size_t min_value, std::size_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  // strtoull is laxer than the documented contract (leading whitespace,
  // '+'/'-' signs) — require the value to start with a digit and to be
  // consumed entirely.
  if (!std::isdigit(static_cast<unsigned char>(raw[0])) || end == raw ||
      *end != '\0' || errno == ERANGE) {
    diagnose_once(name, "ignoring malformed value \"" + std::string(raw) +
                            "\" (want an integer in [" +
                            std::to_string(min_value) + ", " +
                            std::to_string(max_value) + "]); using default " +
                            std::to_string(fallback));
    return fallback;
  }
  if (parsed < min_value || parsed > max_value) {
    const std::size_t clamped =
        parsed < min_value ? min_value : max_value;
    diagnose_once(name, "clamping out-of-range value " + std::string(raw) +
                            " into [" + std::to_string(min_value) + ", " +
                            std::to_string(max_value) + "] → " +
                            std::to_string(clamped));
    return clamped;
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace slicer::env
