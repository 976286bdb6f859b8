#pragma once
// Lightweight precondition / invariant checking in the spirit of the
// C++ Core Guidelines' Expects()/Ensures().  Violations throw
// `gridfed::sim::ContractViolation` so both production code and the test
// suite can observe them deterministically (no abort, no UB).

#include <stdexcept>
#include <string>

namespace gridfed::sim {

/// Thrown when a GF_EXPECTS/GF_ENSURES contract is violated.
class ContractViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace gridfed::sim

/// Precondition check: argument/state requirements at function entry.
#define GF_EXPECTS(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::gridfed::sim::detail::contract_fail("precondition", #cond, __FILE__, \
                                            __LINE__);                       \
  } while (false)

/// Postcondition / invariant check.
#define GF_ENSURES(cond)                                                      \
  do {                                                                        \
    if (!(cond))                                                              \
      ::gridfed::sim::detail::contract_fail("postcondition", #cond, __FILE__, \
                                            __LINE__);                        \
  } while (false)

/// Debug-build kernel-consistency check.  The event kernel's cached
/// state (EventQueue's `next_key_`, its lane bookkeeping and its choice
/// of active backing structure) is re-derived from the structures after
/// every mutating op when this is on.  Follows NDEBUG so the
/// sanitizer CI jobs (Debug builds) run fully checked while Release hot
/// loops compile the re-derivation out; structures additionally expose
/// an always-compiled `debug_validate()` so Release test binaries can
/// opt in explicitly (tests/test_ladder_queue.cpp).
#ifndef GRIDFED_SIM_CHECK
#ifdef NDEBUG
#define GRIDFED_SIM_CHECK 0
#else
#define GRIDFED_SIM_CHECK 1
#endif
#endif

#if GRIDFED_SIM_CHECK
#define GF_SIM_CHECK(cond) GF_ENSURES(cond)
#else
#define GF_SIM_CHECK(cond) \
  do {                     \
  } while (false)
#endif
