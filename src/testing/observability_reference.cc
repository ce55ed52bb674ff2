#include "testing/observability_reference.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace fela::testing {

namespace {

using obs::Span;
using obs::internal_attribution::ClippedSpan;

constexpr double kSecToMicro = 1e6;

std::string TrackName(int track, int num_workers) {
  if (track >= num_workers) return "token-server";
  return common::StrFormat("worker %d", track);
}

common::Json ThreadNameMeta(int tid, const std::string& name) {
  common::Json e = common::Json::Object();
  e.Set("name", "thread_name");
  e.Set("ph", "M");
  e.Set("pid", 0);
  e.Set("tid", tid);
  common::Json args = common::Json::Object();
  args.Set("name", name);
  e.Set("args", std::move(args));
  return e;
}

/// Spans on `track` clipped to [lo, hi], empty intervals discarded.
std::vector<ClippedSpan> ClipTrack(const std::vector<Span>& spans,
                                   sim::NodeId track, double lo, double hi) {
  std::vector<ClippedSpan> out;
  for (const Span& s : spans) {
    if (s.track != track ||
        !obs::internal_attribution::Attributable(s.phase)) {
      continue;
    }
    const double b = std::max(s.begin, lo);
    const double e = std::min(s.end, hi);
    if (e > b) out.push_back(ClippedSpan{s.phase, b, e});
  }
  return out;
}

}  // namespace

common::Json ReferenceChromeTraceJson(
    const std::vector<Span>& spans, uint64_t spans_dropped, bool has_trace,
    const std::vector<sim::TraceEvent>& events, uint64_t events_dropped,
    int num_workers, const common::TokenRegistry* registry) {
  common::Json out_events = common::Json::Array();

  std::set<int> tracks;
  for (int w = 0; w < num_workers; ++w) tracks.insert(w);
  for (const Span& s : spans) tracks.insert(s.track);
  for (const int t : tracks) {
    out_events.Append(ThreadNameMeta(t, TrackName(t, num_workers)));
  }

  for (const Span& s : spans) {
    common::Json e = common::Json::Object();
    e.Set("name", obs::PhaseName(s.phase));
    e.Set("cat", "span");
    e.Set("ph", "X");
    e.Set("ts", s.begin * kSecToMicro);
    e.Set("dur", std::max(0.0, s.duration()) * kSecToMicro);
    e.Set("pid", 0);
    e.Set("tid", s.track);
    common::Json args = common::Json::Object();
    if (s.iteration >= 0) args.Set("iteration", s.iteration);
    if (!s.detail.empty()) {
      args.Set("detail", common::Detokenize(s.detail, registry));
    }
    e.Set("args", std::move(args));
    out_events.Append(std::move(e));
  }

  if (has_trace) {
    for (const sim::TraceEvent& t : events) {
      common::Json e = common::Json::Object();
      e.Set("name", sim::TraceKindName(t.kind));
      e.Set("cat", "event");
      e.Set("ph", "i");
      e.Set("ts", t.time * kSecToMicro);
      e.Set("pid", 0);
      e.Set("tid", t.node);
      e.Set("s", "t");  // thread-scoped instant marker
      common::Json args = common::Json::Object();
      if (!t.detail.empty()) args.Set("detail", t.detail);
      e.Set("args", std::move(args));
      out_events.Append(std::move(e));
    }
  }

  common::Json doc = common::Json::Object();
  doc.Set("displayTimeUnit", "ms");
  doc.Set("traceEvents", std::move(out_events));
  common::Json meta = common::Json::Object();
  meta.Set("num_workers", num_workers);
  meta.Set("spans_dropped", static_cast<double>(spans_dropped));
  if (has_trace) {
    meta.Set("trace_events_dropped", static_cast<double>(events_dropped));
  }
  doc.Set("otherData", std::move(meta));
  return doc;
}

obs::AttributionReport ReferenceBuildAttribution(
    const std::string& engine, int num_workers, const std::vector<Span>& spans,
    const std::vector<runtime::IterationStats>& iterations) {
  obs::AttributionReport report;
  report.engine = engine;
  report.num_workers = num_workers;
  report.workers.resize(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    report.workers[static_cast<size_t>(w)].worker = w;
  }
  for (size_t it = 0; it < iterations.size(); ++it) {
    const double lo = iterations[it].start;
    const double hi = iterations[it].end;
    std::vector<ClippedSpan> all;
    std::vector<sim::NodeId> all_tracks;
    for (int w = 0; w < num_workers; ++w) {
      obs::WorkerAttribution& wa = report.workers[static_cast<size_t>(w)];
      const std::vector<ClippedSpan> mine = ClipTrack(spans, w, lo, hi);
      obs::PhaseBreakdown breakdown =
          obs::internal_attribution::Partition(mine, lo, hi);
      wa.run.Add(breakdown);
      wa.iterations.push_back(std::move(breakdown));
      for (const ClippedSpan& s : mine) {
        all.push_back(s);
        all_tracks.push_back(w);
      }
    }
    report.critical.push_back(obs::internal_attribution::WalkCriticalPath(
        all, all_tracks, lo, hi, static_cast<int>(it)));
  }
  return report;
}

}  // namespace fela::testing
