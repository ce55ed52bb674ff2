#include "sim/trace_io.h"

#include <algorithm>
#include <utility>

#include "common/binio.h"
#include "common/string_util.h"
#include "sim/chrome_trace.h"

namespace fela::obs {

namespace binio = ::fela::common;

namespace {

// Encoded sizes of the FELATRB1 pieces (see the layout in trace_io.h).
constexpr size_t kHeaderBytes = kBinaryTraceMagic.size() + 4 + 1;
constexpr size_t kSectionHeaderBytes = 3 * 8;
constexpr size_t kSpanRecordBytes = 64;
constexpr size_t kTraceRecordBytes = 52;

}  // namespace

std::string SerializeBinaryTrace(const SpanSink& spans,
                                 const sim::TraceRecorder* trace,
                                 int num_workers) {
  const std::vector<Span> ordered_spans = spans.spans();
  const std::vector<sim::TraceRecord> records =
      trace != nullptr ? trace->records() : std::vector<sim::TraceRecord>{};
  std::string out;
  out.reserve(kHeaderBytes + kSectionHeaderBytes +
              kSpanRecordBytes * ordered_spans.size() +
              (trace != nullptr ? kSectionHeaderBytes +
                                      kTraceRecordBytes * records.size()
                                : 0) +
              kBinaryTraceTrailer.size());
  out += kBinaryTraceMagic;
  binio::AppendU32(&out, static_cast<uint32_t>(num_workers));
  binio::AppendU8(&out, trace != nullptr ? 1 : 0);

  binio::AppendU64(&out, ordered_spans.size());
  binio::AppendU64(&out, spans.dropped());
  binio::AppendU64(&out, spans.capacity());
  for (const Span& s : ordered_spans) {
    char record[kSpanRecordBytes];
    char* p = record;
    p = binio::StoreF64(p, s.begin);
    p = binio::StoreF64(p, s.end);
    for (int i = 0; i < 4; ++i) p = binio::StoreU64(p, s.detail.args.values[i]);
    p = binio::StoreI32(p, s.track);
    p = binio::StoreI32(p, s.iteration);
    p = binio::StoreU32(p, s.detail.token);
    p = binio::StoreU8(p, static_cast<uint8_t>(s.phase));
    p = binio::StoreU8(p, s.detail.args.count);
    p = binio::StoreU8(p, s.detail.args.types);
    binio::StoreU8(p, 0);  // pad to 64 bytes
    out.append(record, sizeof(record));
  }

  if (trace != nullptr) {
    binio::AppendU64(&out, records.size());
    binio::AppendU64(&out, trace->dropped());
    binio::AppendU64(&out, trace->capacity());
    for (const sim::TraceRecord& r : records) {
      char record[kTraceRecordBytes];
      char* p = record;
      p = binio::StoreF64(p, r.time);
      for (int a = 0; a < 4; ++a) p = binio::StoreU64(p, r.args[a]);
      p = binio::StoreI32(p, r.node);
      p = binio::StoreU32(p, r.token);
      p = binio::StoreU8(p, r.kind);
      p = binio::StoreU8(p, r.arg_count);
      p = binio::StoreU8(p, r.arg_types);
      binio::StoreU8(p, 0);  // flags (reserved)
      out.append(record, sizeof(record));
    }
  }

  out += kBinaryTraceTrailer;
  return out;
}

namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Reads the body after the header, trailer included, and sets `*end`
// just past the trailer. A stream cut anywhere keeps what parsed and
// sets `out->truncated`. Returns false only on a record
// SerializeBinaryTrace never writes: a nonzero span pad byte or trace
// record flags byte.
bool ParseBody(std::string_view bytes, size_t pos, BinaryTraceData* out,
               size_t* end, std::string* error) {
  const auto cut = [out] {
    out->truncated = true;
    return true;
  };
  uint64_t span_count = 0;
  if (!binio::ReadU64(bytes, &pos, &span_count) ||
      !binio::ReadU64(bytes, &pos, &out->spans_dropped) ||
      !binio::ReadU64(bytes, &pos, &out->span_capacity)) {
    return cut();
  }
  for (uint64_t i = 0; i < span_count; ++i) {
    Span s;
    uint8_t phase = 0;
    uint8_t pad = 0;
    if (!binio::ReadF64(bytes, &pos, &s.begin) ||
        !binio::ReadF64(bytes, &pos, &s.end) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[0]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[1]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[2]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[3]) ||
        !binio::ReadI32(bytes, &pos, &s.track) ||
        !binio::ReadI32(bytes, &pos, &s.iteration) ||
        !binio::ReadU32(bytes, &pos, &s.detail.token) ||
        !binio::ReadU8(bytes, &pos, &phase) ||
        !binio::ReadU8(bytes, &pos, &s.detail.args.count) ||
        !binio::ReadU8(bytes, &pos, &s.detail.args.types) ||
        !binio::ReadU8(bytes, &pos, &pad)) {
      return cut();
    }
    if (pad != 0) {
      return Fail(error, common::StrFormat(
                             "span %llu: pad byte is %u, not 0",
                             static_cast<unsigned long long>(i),
                             static_cast<unsigned>(pad)));
    }
    s.phase = static_cast<Phase>(phase);
    out->spans.push_back(s);
  }

  if (out->has_trace) {
    uint64_t trace_count = 0;
    if (!binio::ReadU64(bytes, &pos, &trace_count) ||
        !binio::ReadU64(bytes, &pos, &out->trace_dropped) ||
        !binio::ReadU64(bytes, &pos, &out->trace_capacity)) {
      return cut();
    }
    for (uint64_t i = 0; i < trace_count; ++i) {
      sim::TraceRecord r;
      uint8_t flags = 0;
      if (!binio::ReadF64(bytes, &pos, &r.time) ||
          !binio::ReadU64(bytes, &pos, &r.args[0]) ||
          !binio::ReadU64(bytes, &pos, &r.args[1]) ||
          !binio::ReadU64(bytes, &pos, &r.args[2]) ||
          !binio::ReadU64(bytes, &pos, &r.args[3]) ||
          !binio::ReadI32(bytes, &pos, &r.node) ||
          !binio::ReadU32(bytes, &pos, &r.token) ||
          !binio::ReadU8(bytes, &pos, &r.kind) ||
          !binio::ReadU8(bytes, &pos, &r.arg_count) ||
          !binio::ReadU8(bytes, &pos, &r.arg_types) ||
          !binio::ReadU8(bytes, &pos, &flags)) {
        return cut();
      }
      if (flags != 0) {
        return Fail(error, common::StrFormat(
                               "trace record %llu: reserved flags byte is "
                               "%u, not 0",
                               static_cast<unsigned long long>(i),
                               static_cast<unsigned>(flags)));
      }
      out->events.push_back(r);
    }
  }

  if (bytes.substr(pos, kBinaryTraceTrailer.size()) != kBinaryTraceTrailer) {
    return cut();
  }
  *end = pos + kBinaryTraceTrailer.size();
  return true;
}

// Reads the optional FELATOK1 table from `pos` (just past the trailer)
// to the end of `bytes`. The table is input from outside the program:
// every length is bound-checked, and a cut anywhere inside it only sets
// `out->truncated`. Returns false on bytes AppendTokenTable never
// writes: an unknown section, out-of-order tokens, a format that does
// not hash to its token, or bytes after the last entry.
bool ParseTokenTable(std::string_view bytes, size_t pos, BinaryTraceData* out,
                     std::string* error) {
  if (pos == bytes.size()) return true;  // a bare body
  const std::string_view magic = bytes.substr(pos, kTokenTableMagic.size());
  if (magic != kTokenTableMagic.substr(0, magic.size())) {
    return Fail(error, "bytes after the FELAEND trailer are not a FELATOK1 "
                       "token table");
  }
  pos += magic.size();
  uint32_t count = 0;
  if (magic.size() < kTokenTableMagic.size() ||
      !binio::ReadU32(bytes, &pos, &count)) {
    out->truncated = true;
    return true;
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t token = 0;
    uint32_t len = 0;
    if (!binio::ReadU32(bytes, &pos, &token) ||
        !binio::ReadU32(bytes, &pos, &len) || bytes.size() - pos < len) {
      out->truncated = true;
      return true;
    }
    const std::string_view fmt = bytes.substr(pos, len);
    pos += len;
    const uint32_t prev = out->tokens.empty() ? 0 : out->tokens.back().first;
    if (token <= prev) {
      return Fail(error, common::StrFormat("token table entry %u: token %08x "
                                           "does not follow %08x",
                                           i, token, prev));
    }
    if (common::TokenHash32(fmt) != token) {
      return Fail(error, common::StrFormat("token table entry %u: format "
                                           "does not hash to token %08x",
                                           i, token));
    }
    out->tokens.emplace_back(token, std::string(fmt));
  }
  if (pos != bytes.size()) {
    return Fail(error, "bytes after the FELATOK1 token table");
  }
  return true;
}

}  // namespace

bool AppendTokenTable(std::string* trace_bytes, std::string* error,
                      const common::TokenRegistry* registry) {
  BinaryTraceData data;
  if (!ParseBinaryTrace(*trace_bytes, &data, error)) return false;
  if (data.truncated || !trace_bytes->ends_with(kBinaryTraceTrailer)) {
    return Fail(error, "a token table needs a complete FELATRB1 body "
                       "without one");
  }
  std::vector<uint32_t> used;
  for (const Span& s : data.spans) used.push_back(s.detail.token);
  for (const sim::TraceRecord& r : data.events) used.push_back(r.token);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  if (!used.empty() && used.front() == 0) used.erase(used.begin());

  const common::TokenRegistry& reg =
      registry != nullptr ? *registry : common::TokenRegistry::Global();
  std::string table(kTokenTableMagic);
  binio::AppendU32(&table, static_cast<uint32_t>(used.size()));
  for (const uint32_t token : used) {
    const std::string* fmt = reg.Find(token);
    if (fmt == nullptr) {
      return Fail(error, common::StrFormat("token %08x is used but not "
                                           "registered",
                                           token));
    }
    binio::AppendU32(&table, token);
    binio::AppendU32(&table, static_cast<uint32_t>(fmt->size()));
    table += *fmt;
  }
  *trace_bytes += table;
  return true;
}

bool ParseBinaryTrace(std::string_view bytes, BinaryTraceData* out,
                      std::string* error) {
  *out = BinaryTraceData();
  if (bytes.size() < kBinaryTraceMagic.size() ||
      bytes.substr(0, kBinaryTraceMagic.size()) != kBinaryTraceMagic) {
    return Fail(error, "not a FELATRB1 binary trace (bad magic)");
  }
  size_t pos = kBinaryTraceMagic.size();
  uint32_t num_workers = 0;
  uint8_t has_trace = 0;
  if (!binio::ReadU32(bytes, &pos, &num_workers) ||
      !binio::ReadU8(bytes, &pos, &has_trace)) {
    return Fail(error, "binary trace header truncated");
  }
  out->num_workers = static_cast<int>(num_workers);
  out->has_trace = has_trace != 0;
  size_t body_end = 0;
  if (!ParseBody(bytes, pos, out, &body_end, error)) return false;
  if (out->truncated) return true;
  return ParseTokenTable(bytes, body_end, out, error);
}

std::string RenderTraceText(const BinaryTraceData& data,
                            const common::TokenRegistry* registry) {
  std::string out;
  if (data.trace_dropped > 0) {
    sim::AppendTraceDroppedHeader(&out, data.trace_dropped,
                                  data.trace_capacity);
  }
  for (const sim::TraceRecord& r : data.events) {
    sim::AppendTraceLine(&out, r.time, r.node,
                         static_cast<sim::TraceKind>(r.kind),
                         sim::RenderTraceDetail(r, registry));
  }
  if (data.truncated) out += "<truncated binary trace: end of stream>\n";
  return out;
}

std::string RenderChromeTrace(const BinaryTraceData& data,
                              const common::TokenRegistry* registry) {
  return ChromeTraceStringData(data.spans, data.spans_dropped,
                               data.has_trace, data.events, data.trace_dropped,
                               data.num_workers, registry);
}

}  // namespace fela::obs
