#ifndef FELA_SIM_CHROME_TRACE_H_
#define FELA_SIM_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tokenize.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::obs {

/// Renders a run's spans + trace events as Chrome trace-event JSON,
/// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Layout:
/// pid 0 = the cluster; one tid ("thread") per worker plus one for the
/// token server / driver (any span track >= num_workers). Spans become
/// "X" complete events with microsecond ts/dur; TraceRecorder events
/// become "i" instant markers on their node's track, so token grants and
/// crashes line up against the compute/sync intervals they explain.
///
/// The text is streamed into one string, laid out byte for byte as
/// common::Json::Dump(1) would lay out the equivalent document (numbers
/// and strings go through the same AppendJsonNumber/AppendJsonString).
/// The spans and trace records are rendered in their stored, tokenized
/// form: each detail is detokenized into one reused scratch buffer
/// (common::AppendDetokenized) and escaped from there, so no event
/// allocates a string of its own.
std::string ChromeTraceString(const SpanSink& spans,
                              const sim::TraceRecorder* trace,
                              int num_workers);

/// The same rendering from already-extracted data — what both the live
/// path above and the offline binary-trace converter (tools/fela-detok)
/// call, so their outputs are byte-identical. `events` are the trace
/// ring's records oldest-first, as TraceRecorder::records() and
/// BinaryTraceData::events hold them. Details are detokenized through
/// `registry` (the process-global one when null); a trace event whose
/// detail renders to "" gets empty args, as if it had none. `has_trace`
/// mirrors "was a TraceRecorder attached" (it controls the
/// trace_events_dropped field even when no events were recorded).
std::string ChromeTraceStringData(const std::vector<Span>& spans,
                                  uint64_t spans_dropped, bool has_trace,
                                  const std::vector<sim::TraceRecord>& events,
                                  uint64_t events_dropped, int num_workers,
                                  const common::TokenRegistry* registry =
                                      nullptr);

}  // namespace fela::obs

#endif  // FELA_SIM_CHROME_TRACE_H_
