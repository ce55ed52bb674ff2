#include "runtime/determinism.h"

#include <algorithm>
#include <vector>

#include "common/binio.h"
#include "common/string_util.h"
#include "runtime/attribution.h"
#include "runtime/sweep.h"

namespace fela::runtime {
namespace {

void AppendLine(std::string* out, const char* key, const std::string& value) {
  *out += key;
  *out += '=';
  *out += value;
  *out += '\n';
}

std::string Num(double v) { return common::StrFormat("%.17g", v); }
std::string Count(uint64_t v) {
  return common::StrFormat("%llu", static_cast<unsigned long long>(v));
}

}  // namespace

std::string DeterminismTranscript(const ExperimentResult& result) {
  std::string out;
  AppendLine(&out, "engine", result.engine_name);
  AppendLine(&out, "stalled", result.stats.stalled ? "true" : "false");
  AppendLine(&out, "total_time", Num(result.stats.total_time));
  AppendLine(&out, "total_data_bytes", Num(result.stats.total_data_bytes));
  AppendLine(&out, "total_gpu_busy", Num(result.stats.total_gpu_busy));
  AppendLine(&out, "control_messages", Count(result.stats.control_messages));
  AppendLine(&out, "average_throughput", Num(result.average_throughput));
  AppendLine(&out, "gpu_utilization", Num(result.gpu_utilization));
  const FaultStats& f = result.stats.faults;
  AppendLine(&out, "faults.crashes", Count(f.crashes));
  AppendLine(&out, "faults.recoveries", Count(f.recoveries));
  AppendLine(&out, "faults.control_dropped", Count(f.control_dropped));
  AppendLine(&out, "faults.control_duplicated", Count(f.control_duplicated));
  AppendLine(&out, "faults.tokens_reclaimed", Count(f.tokens_reclaimed));
  AppendLine(&out, "faults.regrants", Count(f.regrants));
  AppendLine(&out, "faults.request_retries", Count(f.request_retries));
  AppendLine(&out, "faults.duplicate_reports", Count(f.duplicate_reports));
  AppendLine(&out, "faults.readmissions", Count(f.readmissions));
  AppendLine(&out, "faults.recovery_latency_total",
             Num(f.recovery_latency_total));
  // ts_checkpoints is deliberately absent: boundary checkpoints fire on
  // *attached* (even inert) schedules, so including the counter would
  // break inert-schedule == faultless byte identity.
  AppendLine(&out, "faults.ts_failovers", Count(f.ts_failovers));
  AppendLine(&out, "faults.partition_cuts", Count(f.partition_cuts));
  AppendLine(&out, "faults.partition_heals", Count(f.partition_heals));
  AppendLine(&out, "faults.leases_restored", Count(f.leases_restored));
  for (size_t i = 0; i < result.stats.iterations.size(); ++i) {
    const IterationStats& it = result.stats.iterations[i];
    out += common::StrFormat("iteration[%zu]=%s..%s\n", i,
                             Num(it.start).c_str(), Num(it.end).c_str());
  }
  if (result.observed) {
    out += "--- metrics ---\n";
    out += result.metrics.ToCsv();
    out += "--- attribution ---\n";
    out += obs::AttributionToJson(result.attribution).Dump(1);
    out += '\n';
    out += "--- chrome_trace ---\n";
    out += result.chrome_trace;
    out += '\n';
  }
  return out;
}

std::string BinaryTranscript(const ExperimentResult& result) {
  namespace binio = ::fela::common;
  const std::string csv =
      result.observed ? result.metrics.ToCsv() : std::string();
  // Exact size: magic, name length and name, two flags, 6 run scalars,
  // 14 fault fields, the iteration count and (start, end) per iteration,
  // then the observed sections with their u64 length prefixes.
  std::string out;
  out.reserve(8 + 4 + result.engine_name.size() + 2 + 8 * (6 + 14 + 1) +
              16 * result.stats.iterations.size() +
              (result.observed ? 16 + csv.size() + result.binary_trace.size()
                               : 0));
  out += "FELADET1";
  binio::AppendU32(&out, static_cast<uint32_t>(result.engine_name.size()));
  out += result.engine_name;
  binio::AppendU8(&out, result.stats.stalled ? 1 : 0);
  binio::AppendU8(&out, result.observed ? 1 : 0);
  binio::AppendF64(&out, result.stats.total_time);
  binio::AppendF64(&out, result.stats.total_data_bytes);
  binio::AppendF64(&out, result.stats.total_gpu_busy);
  binio::AppendU64(&out, result.stats.control_messages);
  binio::AppendF64(&out, result.average_throughput);
  binio::AppendF64(&out, result.gpu_utilization);
  const FaultStats& f = result.stats.faults;
  // Same counter set as the text transcript — ts_checkpoints stays out
  // for the same inert-schedule reason documented there.
  binio::AppendU64(&out, f.crashes);
  binio::AppendU64(&out, f.recoveries);
  binio::AppendU64(&out, f.control_dropped);
  binio::AppendU64(&out, f.control_duplicated);
  binio::AppendU64(&out, f.tokens_reclaimed);
  binio::AppendU64(&out, f.regrants);
  binio::AppendU64(&out, f.request_retries);
  binio::AppendU64(&out, f.duplicate_reports);
  binio::AppendU64(&out, f.readmissions);
  binio::AppendF64(&out, f.recovery_latency_total);
  binio::AppendU64(&out, f.ts_failovers);
  binio::AppendU64(&out, f.partition_cuts);
  binio::AppendU64(&out, f.partition_heals);
  binio::AppendU64(&out, f.leases_restored);
  binio::AppendU64(&out, result.stats.iterations.size());
  for (const IterationStats& it : result.stats.iterations) {
    binio::AppendF64(&out, it.start);
    binio::AppendF64(&out, it.end);
  }
  if (result.observed) {
    binio::AppendU64(&out, csv.size());
    out += csv;
    binio::AppendU64(&out, result.binary_trace.size());
    out += result.binary_trace;
  }
  return out;
}

uint64_t Fnv1a64(const std::string& data) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char c : data) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string DeterminismReport::ToString() const {
  if (deterministic) {
    return common::StrFormat("deterministic hash=%016llx",
                             static_cast<unsigned long long>(hash_first));
  }
  return common::StrFormat(
      "DIVERGED at transcript line %d: first run %s | second run %s",
      divergence_line, line_first.c_str(), line_second.c_str());
}

DeterminismReport DiffTranscripts(const std::string& first,
                                  const std::string& second) {
  DeterminismReport report;
  report.hash_first = Fnv1a64(first);
  report.hash_second = Fnv1a64(second);
  report.deterministic = first == second;
  if (report.deterministic) return report;

  const std::vector<std::string> a = common::Split(first, '\n');
  const std::vector<std::string> b = common::Split(second, '\n');
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string* la = i < a.size() ? &a[i] : nullptr;
    const std::string* lb = i < b.size() ? &b[i] : nullptr;
    if (la != nullptr && lb != nullptr && *la == *lb) continue;
    report.divergence_line = static_cast<int>(i) + 1;
    report.line_first = la != nullptr ? *la : "<end of transcript>";
    report.line_second = lb != nullptr ? *lb : "<end of transcript>";
    break;
  }
  return report;
}

DeterminismReport VerifyDeterminism(const ExperimentSpec& spec,
                                    const EngineFactory& engine_factory,
                                    const StragglerFactory& straggler_factory,
                                    const FaultFactory& fault_factory,
                                    int jobs) {
  ExperimentSpec observed = spec;
  observed.observe = true;
  const std::vector<SweepItem> items(
      2, SweepItem{observed, engine_factory, straggler_factory,
                   fault_factory});
  const std::vector<ExperimentResult> runs = RunSweep(items, jobs);
  // Binary-first: compare the compact transcripts (cheap, no text
  // formatting), and only render the text form to report the hash — or,
  // on divergence, to pinpoint the first differing line for humans.
  if (BinaryTranscript(runs[0]) == BinaryTranscript(runs[1])) {
    DeterminismReport report;
    report.deterministic = true;
    report.hash_first = report.hash_second =
        Fnv1a64(DeterminismTranscript(runs[0]));
    return report;
  }
  DeterminismReport report = DiffTranscripts(DeterminismTranscript(runs[0]),
                                             DeterminismTranscript(runs[1]));
  if (report.deterministic) {
    // The binary forms differ but their text renderings collide (e.g. a
    // detail whose token changed while detokenizing to the same bytes).
    // Binary is the source of truth — surface the divergence.
    report.deterministic = false;
    report.divergence_line = 0;
    report.line_first = "<binary transcript divergence>";
    report.line_second = "<binary transcript divergence>";
  }
  return report;
}

}  // namespace fela::runtime
