// Lightweight contract checking (Core Guidelines I.6/I.8 style).
//
// PADLOCK_REQUIRE is used for preconditions on public API boundaries and for
// internal invariants; it is active in all build types because the library is
// a research artifact where silent corruption is worse than a crash.
//
// A violated contract always throws ContractViolation so batched sweeps
// can attribute the failure to the offending row instead of taking the
// whole process down.
#pragma once

#include <stdexcept>
#include <string>

namespace padlock {

/// Thrown by PADLOCK_REQUIRE / PADLOCK_ASSERT on a violated contract. A
/// logic_error: the caller handed the library state it promised it never
/// would, so catching it is only meaningful at fault-isolation boundaries
/// (run_batch rows, scenario bodies), never as control flow.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* file,
                    int line);
};

[[noreturn]] void contract_failure(const char* kind, const char* expr,
                                   const char* file, int line);

/// "<demangled type>: <what()>" of the in-flight exception — call from a
/// catch block. The one failure-description format shared by the
/// fault-capturing layers (parallel_for_capture, run_batch, run_scenarios).
[[nodiscard]] std::string describe_current_exception();

}  // namespace padlock

#define PADLOCK_REQUIRE(expr)                                             \
  ((expr) ? (void)0                                                       \
          : ::padlock::contract_failure("requirement", #expr, __FILE__,   \
                                        __LINE__))

#define PADLOCK_ASSERT(expr)                                              \
  ((expr) ? (void)0                                                       \
          : ::padlock::contract_failure("invariant", #expr, __FILE__,     \
                                        __LINE__))
