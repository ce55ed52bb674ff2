#include "testing/observability_reference.h"

#include <algorithm>
#include <bit>
#include <cstdio>
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

/// Runs one complete printf spec against one value.
template <typename T>
void AppendOne(std::string* out, const std::string& spec, T value) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), spec.c_str(), value);
  if (n < 0) return;
  if (n < static_cast<int>(sizeof(buf))) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), spec.c_str(), value);
  big.resize(static_cast<size_t>(n));
  out->append(big);
}

}  // namespace

std::string ReferenceDetokFormat(const std::string& fmt,
                                 const common::TokArgs& args) {
  using common::TokArgType;
  using common::internal_tokenize::IsDigit;
  using common::internal_tokenize::IsFlag;
  using common::internal_tokenize::IsFloatConv;
  using common::internal_tokenize::IsIntegerConv;
  using common::internal_tokenize::IsLengthMod;
  std::string out;
  int next_arg = 0;
  size_t i = 0;
  while (i < fmt.size()) {
    const char c = fmt[i];
    if (c != '%') {
      out += c;
      ++i;
      continue;
    }
    if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
      out += '%';
      i += 2;
      continue;
    }
    size_t j = i + 1;
    std::string flags_width;
    while (j < fmt.size() && IsFlag(fmt[j])) flags_width += fmt[j++];
    while (j < fmt.size() && IsDigit(fmt[j])) flags_width += fmt[j++];
    if (j < fmt.size() && fmt[j] == '.') {
      flags_width += fmt[j++];
      while (j < fmt.size() && IsDigit(fmt[j])) flags_width += fmt[j++];
    }
    while (j < fmt.size() && IsLengthMod(fmt[j])) ++j;
    if (j >= fmt.size()) {
      out.append(fmt, i, fmt.size() - i);
      break;
    }
    const char conv = fmt[j];
    if ((!IsIntegerConv(conv) && !IsFloatConv(conv)) ||
        next_arg >= args.count) {
      out.append(fmt, i, j - i + 1);
      i = j + 1;
      continue;
    }
    const uint64_t bits = args.values[next_arg];
    const TokArgType type = args.type(next_arg);
    ++next_arg;
    if (conv == 'c') {
      AppendOne(&out, "%" + flags_width + "c",
                static_cast<int>(static_cast<int64_t>(bits)));
    } else if (IsIntegerConv(conv)) {
      const std::string spec = "%" + flags_width + "ll" + conv;
      if (type == TokArgType::kDouble) {
        AppendOne(&out, spec,
                  static_cast<long long>(std::bit_cast<double>(bits)));
      } else if (conv == 'd' || conv == 'i') {
        AppendOne(&out, spec, static_cast<long long>(bits));
      } else {
        AppendOne(&out, spec, static_cast<unsigned long long>(bits));
      }
    } else {
      const std::string spec = "%" + flags_width + conv;
      double value = 0.0;
      switch (type) {
        case TokArgType::kDouble:
          value = std::bit_cast<double>(bits);
          break;
        case TokArgType::kInt:
          value = static_cast<double>(static_cast<int64_t>(bits));
          break;
        default:
          value = static_cast<double>(bits);
          break;
      }
      AppendOne(&out, spec, value);
    }
    i = j + 1;
  }
  return out;
}

common::Json ReferenceChromeTraceJson(
    const std::vector<Span>& spans, uint64_t spans_dropped, bool has_trace,
    const std::vector<sim::TraceRecord>& events, uint64_t events_dropped,
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
    for (const sim::TraceRecord& t : events) {
      common::Json e = common::Json::Object();
      e.Set("name", sim::TraceKindName(static_cast<sim::TraceKind>(t.kind)));
      e.Set("cat", "event");
      e.Set("ph", "i");
      e.Set("ts", t.time * kSecToMicro);
      e.Set("pid", 0);
      e.Set("tid", t.node);
      e.Set("s", "t");  // thread-scoped instant marker
      common::Json args = common::Json::Object();
      const std::string detail = sim::RenderTraceDetail(t, registry);
      if (!detail.empty()) args.Set("detail", detail);
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
