#ifndef FELA_TESTING_OBSERVABILITY_REFERENCE_H_
#define FELA_TESTING_OBSERVABILITY_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/tokenize.h"
#include "runtime/attribution.h"
#include "runtime/engine.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::testing {

/// Test-only differential oracles for the post-run renderers and the
/// detokenizer they share: the straightforward algorithms they replaced,
/// kept so tests can require the fast ones to match them exactly.

/// The Chrome trace as a common::Json document (one DOM node per value);
/// `.Dump(1)` of it is what obs::ChromeTraceStringData must produce,
/// byte for byte, from the same arguments.
common::Json ReferenceChromeTraceJson(
    const std::vector<obs::Span>& spans, uint64_t spans_dropped,
    bool has_trace, const std::vector<sim::TraceRecord>& events,
    uint64_t events_dropped, int num_workers,
    const common::TokenRegistry* registry = nullptr);

/// common::AppendDetokFormat with every conversion run through snprintf
/// from a spec assembled in std::strings, one byte of literal text at a
/// time: the detokenizer before the to_chars fast path.
std::string ReferenceDetokFormat(const std::string& fmt,
                                 const common::TokArgs& args);

/// obs::BuildAttribution with every (iteration, worker) pair scanning
/// all spans for the worker's track: O(I * W * S). Partition and the
/// critical-path walk are shared, so a difference can only come from
/// which spans reach them and in what order.
obs::AttributionReport ReferenceBuildAttribution(
    const std::string& engine, int num_workers,
    const std::vector<obs::Span>& spans,
    const std::vector<runtime::IterationStats>& iterations);

}  // namespace fela::testing

#endif  // FELA_TESTING_OBSERVABILITY_REFERENCE_H_
