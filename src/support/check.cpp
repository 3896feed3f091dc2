#include "support/check.hpp"

#include <cstdlib>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace padlock {

namespace {

std::string demangle(const char* name) {
#if defined(__GNUG__)
  int status = 0;
  char* d = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string out = (status == 0 && d != nullptr) ? d : name;
  std::free(d);
  return out;
#else
  return name;
#endif
}

}  // namespace

ContractViolation::ContractViolation(const char* kind, const char* expr,
                                     const char* file, int line)
    : std::logic_error(std::string(kind) + " failed: " + expr + " (" + file +
                       ":" + std::to_string(line) + ")") {}

void contract_failure(const char* kind, const char* expr, const char* file,
                      int line) {
  throw ContractViolation(kind, expr, file, line);
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return demangle(typeid(e).name()) + ": " + e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace padlock
