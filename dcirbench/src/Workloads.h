//===- Workloads.h - the three workloads and their shared metric table --------===//

#ifndef DCIRBENCH_WORKLOADS_H
#define DCIRBENCH_WORKLOADS_H

#include "Common.h"
#include "Replay.h"

#include <string>
#include <vector>

namespace bench {

/// Result of one run: the metrics to print and whether every output was
/// correct (and the program was the one meant to be measured).
struct RunResult {
  Report Metrics;
  Ledger Ops;
  bool Correct = true;
  /// Host facts as a JSON object (embedded into the trace file).
  std::string HostFacts;
};

/// polybench_compile (Scaled=false) and polybench_scaled (Scaled=true).
int runPolybench(const Options &O, bool Scaled, RunResult &R);
/// serving_mixed.
int runServing(const Options &O, RunResult &R);

/// Names of the 29 Polybench kernels, in registry order.
std::vector<std::string> polybenchNames();

/// Sets every per-layer metric to 0 (a workload then overwrites the ones
/// it measures), so every traced run reports the same metric set.
void initLayerMetrics(Report &M);
/// Sums the replays that matched their Program into the layer metrics;
/// \p Matched[I] says whether sample I matched.
void addReplayMetrics(Report &M, const std::vector<LayerSample> &Samples,
                      const std::vector<bool> &Matched);

/// The host facts every run records (also printed), and a flag when the
/// JIT's compile-flag tier fell back to serial: such a run measures a
/// different program, so it is reported as not correct.
std::string hostFacts(const Options &O, int Threads, bool &SerialTier);

/// The median of this run's set-up time and the ones measured by the
/// other set-up processes of the run.
double setupMedian(const Options &O, double Own);

} // namespace bench

#endif // DCIRBENCH_WORKLOADS_H
