#ifndef FELA_RUNTIME_ATTRIBUTION_H_
#define FELA_RUNTIME_ATTRIBUTION_H_

#include <array>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "runtime/engine.h"
#include "sim/span.h"

namespace fela::obs {

/// Seconds charged to each Phase over some window. Built by the
/// priority partition below, so seconds sum to exactly the window
/// length: every instant is charged to exactly one phase (kIdle is the
/// remainder no span covers) — that is what makes Fractions() sum to 1.
struct PhaseBreakdown {
  std::array<double, kNumPhases> seconds{};
  double total = 0.0;  // wall-clock seconds of the window

  double fraction(Phase phase) const {
    return total <= 0.0 ? 0.0
                        : seconds[static_cast<size_t>(phase)] / total;
  }
  /// Phase with the most charged time (kIdle when nothing is charged).
  Phase Dominant() const;
  void Add(const PhaseBreakdown& other);
};

/// Where one worker's time went, per iteration and over the whole run.
struct WorkerAttribution {
  sim::NodeId worker = 0;
  PhaseBreakdown run;
  std::vector<PhaseBreakdown> iterations;  // parallel to RunStats.iterations
};

/// Result of the critical-path walk for one iteration: starting from the
/// iteration's end, repeatedly jump to the latest-reaching span that was
/// still running (on any worker), charging uncovered gaps to idle. The
/// dominant phase of that path names the bottleneck *resource* for the
/// iteration — the thing you would speed up to shorten it.
struct IterationCriticalPath {
  int iteration = 0;
  PhaseBreakdown path;
  Phase bottleneck = Phase::kIdle;
  sim::NodeId last_finisher = -1;  // worker active at the iteration's end
};

/// The full per-run attribution artifact.
struct AttributionReport {
  std::string engine;
  int num_workers = 0;
  std::vector<WorkerAttribution> workers;       // one per worker
  std::vector<IterationCriticalPath> critical;  // one per iteration

  /// All workers' run breakdowns merged (fractions still sum to 1).
  PhaseBreakdown Cluster() const;
  /// Bottleneck phase over the whole run: dominant phase of the summed
  /// critical paths.
  Phase RunBottleneck() const;
};

/// Builds the report from a run's spans and iteration boundaries.
///
/// Attribution rule (the priority partition): within each iteration
/// window, each instant of a worker's timeline is charged to the
/// highest-priority phase whose span covers it, priorities descending in
/// Phase declaration order (crashed > compute > sync > transfer >
/// token-wait > straggler); uncovered time is idle. Consequences worth
/// knowing: compute overlapping a sync window counts as compute (the
/// paper's overlap design), and a collective's internal transfers fold
/// into its sync span.
///
/// Cost: one pass buckets the attributable spans of tracks
/// [0, num_workers) by track, in emission order; each iteration then
/// clips only each worker's own bucket — O(S + I * sum of per-track
/// spans) rather than a scan of every span per (iteration, worker).
AttributionReport BuildAttribution(
    const std::string& engine, int num_workers,
    const std::vector<Span>& spans,
    const std::vector<runtime::IterationStats>& iterations);

/// The building blocks BuildAttribution shares with the test-only
/// reference (testing::ReferenceBuildAttribution). Not for other callers.
namespace internal_attribution {

/// Only phases before kIteration are attributable activity; kIteration
/// is framing and kIdle is derived, never recorded.
bool Attributable(Phase phase);

/// A span clipped to an iteration window.
struct ClippedSpan {
  Phase phase;
  double begin;
  double end;
};

/// The priority partition of [lo, hi] over one worker's clipped spans.
PhaseBreakdown Partition(const std::vector<ClippedSpan>& spans, double lo,
                         double hi);

/// Backward "last-finisher" walk over all workers' clipped spans in
/// [lo, hi]; `tracks` is parallel to `spans`. Exact ties keep the first
/// span in `spans` order, so callers must pass them worker-major, each
/// worker's spans in emission order.
IterationCriticalPath WalkCriticalPath(const std::vector<ClippedSpan>& spans,
                                       const std::vector<sim::NodeId>& tracks,
                                       double lo, double hi, int iteration);

}  // namespace internal_attribution

/// Machine-readable form: engine, per-worker run fractions, per-worker
/// per-iteration fractions, per-iteration critical path + bottleneck.
common::Json AttributionToJson(const AttributionReport& report);

/// Fills `metrics` with the run's headline series: iteration counter +
/// iteration_seconds histogram, fault/control counters, and one
/// frac_<phase> gauge per worker — all labeled engine=<name>.
void FillRunMetrics(const std::string& engine, const runtime::RunStats& stats,
                    const AttributionReport& report,
                    MetricsRegistry* metrics);

}  // namespace fela::obs

#endif  // FELA_RUNTIME_ATTRIBUTION_H_
