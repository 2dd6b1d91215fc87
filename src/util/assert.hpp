#pragma once

#include <stdexcept>
#include <string>

/// \file assert.hpp
/// Error-handling primitives shared by every goc library.
///
/// Convention (C++ Core Guidelines I.5/E.x):
///  * `GOC_CHECK_ARG`   — validates a *caller-supplied precondition* of a
///    public API; failure throws `std::invalid_argument` whose `what()` is
///    the message alone.
///  * `GOC_ASSERT`      — validates an *internal invariant*; failure throws
///    `goc::InvariantError`. Enabled in all build types: the library's
///    correctness claims mirror paper proofs, so silent corruption is worse
///    than the branch cost.
///  * `GOC_DASSERT`     — hot-path invariant, compiled out in NDEBUG builds.

namespace goc {

/// Thrown when an internal invariant is violated (a library bug, not a
/// caller error).
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when exact arithmetic would exceed 128-bit intermediate range.
class OverflowError : public std::overflow_error {
 public:
  explicit OverflowError(const std::string& what)
      : std::overflow_error(what) {}
};

namespace detail {
[[noreturn]] inline void invariant_failure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  throw InvariantError(std::string("invariant violated: ") + expr + " at " +
                       file + ":" + std::to_string(line) +
                       (msg.empty() ? "" : (": " + msg)));
}
/// A caller error reaches the caller's user (a CLI's stderr, a serve
/// client), so it carries only its message, or the condition when there is
/// none, and never the library's source location.
[[noreturn]] inline void argument_failure(const char* expr,
                                          const std::string& msg) {
  throw std::invalid_argument(msg.empty() ? std::string(expr) : msg);
}
}  // namespace detail

}  // namespace goc

#define GOC_ASSERT(cond, msg)                                          \
  do {                                                                 \
    if (!(cond))                                                       \
      ::goc::detail::invariant_failure(#cond, __FILE__, __LINE__, msg); \
  } while (false)

#define GOC_CHECK_ARG(cond, msg)                              \
  do {                                                        \
    if (!(cond)) ::goc::detail::argument_failure(#cond, msg); \
  } while (false)

#ifdef NDEBUG
#define GOC_DASSERT(cond, msg) \
  do {                         \
  } while (false)
#else
#define GOC_DASSERT(cond, msg) GOC_ASSERT(cond, msg)
#endif
