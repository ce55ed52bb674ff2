// Compile-fail fixture: a trace or span detail is a FELA_TOK token or
// nothing, so a raw-string detail must not compile. As written, every
// site below is well-formed and the normal build compiles this file
// (target fela_compile_fail_twins), so a fixture that rots breaks the
// build instead of passing vacuously. Each compile_fail.* ctest
// (tests/CMakeLists.txt) recompiles it with one FELA_CF_* macro defined,
// which swaps one site for a misuse, and pins the diagnostic.

#include <string>

#include "common/string_util.h"
#include "common/tokenize.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::compile_fail {

void RecordDetail(sim::TraceRecorder* t) {
#if defined(FELA_CF_RECORD_STD_STRING)
  t->Record(0.0, 0, sim::TraceKind::kConflict, std::string("x"));
#elif defined(FELA_CF_RECORD_LITERAL)
  t->Record(0.0, 0, sim::TraceKind::kConflict, "x");
#else
  t->Record(0.0, 0, sim::TraceKind::kConflict,
            common::TokenizedDetail(FELA_TOK("x")));
#endif
}

void TraceDetail(sim::TraceRecorder* t) {
#if defined(FELA_CF_TRACE_LITERAL)
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict, "raw");
#else
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict, FELA_TOK("raw"));
#endif
}

void TraceArg(sim::TraceRecorder* t, int it) {
#if defined(FELA_CF_TRACE_STRFORMAT_ARG)
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict, FELA_TOK("it=%d"),
             common::StrFormat("%d", it));
#else
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict, FELA_TOK("it=%d"), it);
#endif
}

void HandBuiltFmt(sim::TraceRecorder* t) {
#if defined(FELA_CF_HAND_BUILT_FMT)
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict,
             common::TokenizedFmt{0xffu, "raw"});
#else
  FELA_TRACE(t, 0.0, 0, sim::TraceKind::kConflict, FELA_TOK("raw"));
#endif
}

void EmitDetail(obs::SpanSink* s) {
#if defined(FELA_CF_EMIT_LITERAL)
  s->Emit(obs::Span{0, obs::Phase::kCompute, 0.0, 1.0, 0, "w"});
#else
  s->Emit(obs::Span{0, obs::Phase::kCompute, 0.0, 1.0, 0,
                    common::TokenizedDetail(FELA_TOK("w"))});
#endif
}

}  // namespace fela::compile_fail
