#include "sim/chrome_trace.h"

#include <algorithm>
#include <string_view>

#include "common/json.h"
#include "common/string_util.h"

namespace fela::obs {

namespace {

constexpr double kSecToMicro = 1e6;
// Reserve estimate: a span event with a detail renders to ~190 bytes.
constexpr size_t kBytesPerEvent = 192;

std::string TrackName(int track, int num_workers) {
  if (track >= num_workers) return "token-server";
  return common::StrFormat("worker %d", track);
}

}  // namespace

// The document is written in the exact layout of common::Json::Dump(1):
// one space of indent per level, `"key": value`, one member per line,
// "{}" for empty args. Each traceEvents element is an object at depth 2,
// its members at depth 3 and its args' members at depth 4, so the
// literals below carry the separators and indents along with the keys.
std::string ChromeTraceStringData(const std::vector<Span>& spans,
                                  uint64_t spans_dropped, bool has_trace,
                                  const std::vector<sim::TraceRecord>& events,
                                  uint64_t events_dropped, int num_workers,
                                  const common::TokenRegistry* registry) {
  std::string out;
  out.reserve(kBytesPerEvent * (spans.size() + events.size() +
                                static_cast<size_t>(std::max(0, num_workers))) +
              256);
  const auto put_number = [&out](double n) {
    common::AppendJsonNumber(&out, n);
  };
  const auto put_string = [&out](std::string_view s) {
    common::AppendJsonString(&out, s);
  };
  std::string detail;  // scratch: one rendered detail at a time
  bool first_event = true;
  // Opens the next traceEvents element, up to its "name" value.
  const auto begin_event = [&] {
    out += first_event ? "\n  {\n   \"name\": " : ",\n  {\n   \"name\": ";
    first_event = false;
  };

  out += "{\n \"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";

  // One metadata row per track that actually appears, so empty clusters
  // don't fabricate threads but every used tid is named.
  std::vector<int> tracks;
  for (int w = 0; w < num_workers; ++w) tracks.push_back(w);
  for (const Span& s : spans) {
    if (s.track < 0 || s.track >= num_workers) tracks.push_back(s.track);
  }
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  for (const int t : tracks) {
    begin_event();
    out += "\"thread_name\",\n   \"ph\": \"M\",\n   \"pid\": 0,\n   \"tid\": ";
    put_number(t);
    out += ",\n   \"args\": {\n    \"name\": ";
    put_string(TrackName(t, num_workers));
    out += "\n   }\n  }";
  }

  for (const Span& s : spans) {
    begin_event();
    put_string(PhaseName(s.phase));
    out += ",\n   \"cat\": \"span\",\n   \"ph\": \"X\",\n   \"ts\": ";
    put_number(s.begin * kSecToMicro);
    out += ",\n   \"dur\": ";
    put_number(std::max(0.0, s.duration()) * kSecToMicro);
    out += ",\n   \"pid\": 0,\n   \"tid\": ";
    put_number(s.track);
    out += ",\n   \"args\": ";
    if (s.iteration < 0 && s.detail.empty()) {
      out += "{}";
    } else {
      out += "{\n    ";
      if (s.iteration >= 0) {
        out += "\"iteration\": ";
        put_number(s.iteration);
        if (!s.detail.empty()) out += ",\n    ";
      }
      if (!s.detail.empty()) {
        out += "\"detail\": ";
        detail.clear();
        common::AppendDetokenized(&detail, s.detail, registry);
        put_string(detail);
      }
      out += "\n   }";
    }
    out += "\n  }";
  }

  if (has_trace) {
    for (const sim::TraceRecord& t : events) {
      begin_event();
      put_string(sim::TraceKindName(static_cast<sim::TraceKind>(t.kind)));
      out += ",\n   \"cat\": \"event\",\n   \"ph\": \"i\",\n   \"ts\": ";
      put_number(t.time * kSecToMicro);
      out += ",\n   \"pid\": 0,\n   \"tid\": ";
      put_number(t.node);
      // "s": "t" makes it a thread-scoped instant marker.
      out += ",\n   \"s\": \"t\",\n   \"args\": ";
      detail.clear();
      common::AppendDetokenized(&detail, t.detail(), registry);
      if (detail.empty()) {
        out += "{}";
      } else {
        out += "{\n    \"detail\": ";
        put_string(detail);
        out += "\n   }";
      }
      out += "\n  }";
    }
  }

  out += first_event ? "]" : "\n ]";
  out += ",\n \"otherData\": {\n  \"num_workers\": ";
  put_number(num_workers);
  out += ",\n  \"spans_dropped\": ";
  put_number(static_cast<double>(spans_dropped));
  if (has_trace) {
    out += ",\n  \"trace_events_dropped\": ";
    put_number(static_cast<double>(events_dropped));
  }
  out += "\n }\n}";
  return out;
}

std::string ChromeTraceString(const SpanSink& spans,
                              const sim::TraceRecorder* trace,
                              int num_workers) {
  return ChromeTraceStringData(
      spans.spans(), spans.dropped(), trace != nullptr,
      trace != nullptr ? trace->records() : std::vector<sim::TraceRecord>{},
      trace != nullptr ? trace->dropped() : 0, num_workers);
}

}  // namespace fela::obs
