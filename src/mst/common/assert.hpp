#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

/// \file assert.hpp
/// Internal invariant checking.
///
/// `MST_REQUIRE` validates *caller-supplied* data (platform descriptions,
/// task counts) and throws `std::invalid_argument` — these are part of the
/// public API contract and are always on.  `MST_ASSERT` guards *internal*
/// invariants (e.g. "the backward construction never produces a negative
/// first emission in makespan mode"); violations indicate a library bug and
/// throw `std::logic_error` so tests can detect them deterministically.
/// `MST_UNREACHABLE()` marks a point control never reaches (e.g. after a
/// switch that returns on every enumerator); it throws the same way and,
/// being a `[[noreturn]]` call, tells the compiler the path ends there.

namespace mst::detail {

[[noreturn]] inline void throw_requirement(const char* expr, const std::string& msg) {
  std::ostringstream os;
  os << "mst: requirement failed: (" << expr << ")";
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file, int line) {
  std::ostringstream os;
  os << "mst: internal invariant violated: (" << expr << ") at " << file << ':' << line;
  throw std::logic_error(os.str());
}

}  // namespace mst::detail

#define MST_REQUIRE(expr, msg)                            \
  do {                                                    \
    if (!(expr)) ::mst::detail::throw_requirement(#expr, (msg)); \
  } while (false)

#define MST_ASSERT(expr)                                              \
  do {                                                                \
    if (!(expr)) ::mst::detail::throw_invariant(#expr, __FILE__, __LINE__); \
  } while (false)

#define MST_UNREACHABLE() ::mst::detail::throw_invariant("unreachable", __FILE__, __LINE__)
