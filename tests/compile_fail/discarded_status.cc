// Compile-fail fixture: Status and Result<T> are [[nodiscard]], and the
// build runs with -Werror, so a call that drops one must not compile.
// As written, both callers below are well-formed and the normal build
// compiles this file (target fela_compile_fail_twins). Each
// compile_fail.* ctest (tests/CMakeLists.txt) recompiles it with one
// FELA_CF_* macro defined, which swaps in a bare call, and pins the
// diagnostic.

#include "common/status.h"

namespace fela::compile_fail {

common::Status DoWork();
common::Result<int> Compute();

bool StatusCaller() {
#if defined(FELA_CF_DISCARD_STATUS)
  DoWork();
  return true;
#else
  return DoWork().ok();
#endif
}

bool ResultCaller() {
#if defined(FELA_CF_DISCARD_RESULT)
  Compute();
  return true;
#else
  return Compute().ok();
#endif
}

}  // namespace fela::compile_fail
