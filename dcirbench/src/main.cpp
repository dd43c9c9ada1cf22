//===- main.cpp - the DCIR benchmark driver -----------------------------------===//
//
//   dcirbench --workload <polybench_compile|polybench_scaled|serving_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --run-dir <dir>
//             [--trace-out <file>] [--kernels a,b] [--requests <n>]
//             [--dump-inputs <file>] [--setup-only]
//             [--extra-setup <seconds:attempted:failed,...>]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. run.py builds this
// driver and gives every run its own empty JIT cache; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Trace.h"
#include "Workloads.h"

#include "exec/JitCache.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <unistd.h>

using namespace dcir;

namespace bench {

std::string hostFacts(const Options &O, int Threads, bool &SerialTier) {
  exec::JitCache &C = exec::JitCache::shared();
  SerialTier = !C.openmp();
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  Report::note("host: workload=%s seed=%llu seconds=%g nproc=%ld threads=%d "
               "cxx=%s jit_tier=%s cc=%s",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Seconds, NProc, Threads, C.compiler().c_str(),
               SerialTier ? "serial" : "openmp", hostCc().c_str());
  if (SerialTier)
    Report::note("FLAGGED: the JIT flag tier fell back to serial (%s); this "
                 "run measures a different program",
                 C.flags().c_str());
  auto Quote = [](const std::string &S) {
    std::string Q = "\"";
    for (char Ch : S) {
      if (Ch == '"' || Ch == '\\')
        Q += '\\';
      Q += Ch;
    }
    return Q + "\"";
  };
  std::ostringstream OS;
  OS << "{\"workload\": " << Quote(O.Workload) << ", \"seed\": " << O.Seed
     << ", \"seconds\": " << O.Seconds << ", \"nproc\": " << NProc
     << ", \"threads\": " << Threads << ", \"cxx\": " << Quote(C.compiler())
     << ", \"cxx_flags\": " << Quote(C.flags()) << ", \"jit_tier\": "
     << Quote(SerialTier ? "serial" : "openmp")
     << ", \"cc\": " << Quote(hostCc()) << "}";
  return OS.str();
}

double setupMedian(const Options &O, double Own) {
  std::vector<double> All = {Own};
  for (const Options::SetupRun &SR : O.ExtraSetup)
    All.push_back(SR.Seconds);
  for (double S : All)
    Report::note("setup: %.4f s", S);
  return median(All);
}

namespace {

struct LayerMetric {
  const char *Name, *Unit;
};

/// Every per-layer metric but the per-kernel exec.kernel_ms.<kernel>.
const LayerMetric LayerMetrics[] = {
    {"frontend.parse_ms", "ms"},
    {"frontend.ops", "count"},
    {"passes.mlir_ms", "ms"},
    {"passes.ops_after", "count"},
    {"conversion.dialect_ms", "ms"},
    {"conversion.translate_ms", "ms"},
    {"conversion.sdfg_nodes", "count"},
    {"sdfgopt.optimize_ms", "ms"},
    {"sdfgopt.rewrites", "count"},
    {"sdfgopt.maps", "count"},
    {"sdfgopt.containers_eliminated", "count"},
    {"analysis.analyze_ms", "ms"},
    {"analysis.unproven_maps", "count"},
    {"analysis.guards", "count"},
    {"codegen.emit_ms", "ms"},
    {"codegen.source_kb", "KB"},
    {"codegen.parallel_maps", "count"},
    {"codegen.atomics", "count"},
    {"exec.cxx_ms", "ms"},
    {"exec.dlopen_ms", "ms"},
    {"exec.so_kb", "KB"},
    {"exec.openmp_tier", "bool"},
    {"api.invoke_overhead_us", "us"},
    {"api.bind_us", "us"},
    {"api.specialize_ms", "ms"},
    {"api.variant_hit_ratio", "ratio"},
    {"api.variant_hit_base", "count"},
    {"api.guard_pass_ratio", "ratio"},
    {"api.guard_base", "count"},
    {"reference.gcc_kernel_ms_geomean", "ms"},
    {"trace.replay_mismatch", "count"},
    {"trace.kernels_replayed", "count"},
    {"trace.overhead_pct", "%"},
};

} // namespace

void initLayerMetrics(Report &M) {
  for (const LayerMetric &L : LayerMetrics)
    M.set(L.Name, 0.0, L.Unit);
  for (const std::string &K : polybenchNames())
    M.set("exec.kernel_ms." + K, 0.0, "ms");
  M.set("exec.openmp_tier", exec::JitCache::shared().openmp() ? 1.0 : 0.0,
        "bool");
}

void addReplayMetrics(Report &M, const std::vector<LayerSample> &Samples,
                      const std::vector<bool> &Matched) {
  std::map<std::string, double> Ms, Counts;
  double Mismatch = 0, Replayed = 0;
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    if (!Matched[I]) {
      ++Mismatch;
      Report::note("replay mismatch #%zu: %s", I + 1,
                   Samples[I].Ok ? "emitted source differs from the Program's"
                                 : Samples[I].Error.c_str());
      continue;
    }
    ++Replayed;
    for (const auto &[K, V] : Samples[I].Ms)
      Ms[K] += V;
    for (const auto &[K, V] : Samples[I].Counts)
      Counts[K] += V;
  }
  for (const auto &[K, V] : Ms)
    M.set(K + "_ms", V, "ms");
  for (const LayerMetric &L : LayerMetrics)
    if (Counts.count(L.Name))
      M.set(L.Name, Counts[L.Name], L.Unit);
  M.set("trace.replay_mismatch", Mismatch, "count");
  M.set("trace.kernels_replayed", Replayed, "count");
}

} // namespace bench

using namespace bench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "dcirbench: %s\nusage: dcirbench --workload "
               "<polybench_compile|polybench_scaled|serving_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> --run-dir <dir> [--trace-out "
               "<file>] [--kernels a,b] [--requests <n>] [--dump-inputs "
               "<file>] [--setup-only] [--extra-setup "
               "<seconds:attempted:failed,...>]\n",
               Why);
  std::exit(2);
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  for (std::string Item; std::getline(SS, Item, ',');)
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--run-dir")
      O.RunDir = Value();
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else if (A == "--kernels")
      O.Kernels = splitList(Value());
    else if (A == "--requests")
      O.Requests = std::atol(Value().c_str());
    else if (A == "--dump-inputs")
      O.DumpInputs = Value();
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else if (A == "--extra-setup")
      for (const std::string &S : splitList(Value())) {
        Options::SetupRun SR;
        unsigned long long Att = 0, Fl = 0;
        if (std::sscanf(S.c_str(), "%lf:%llu:%llu", &SR.Seconds, &Att, &Fl) !=
            3)
          usage("--extra-setup takes seconds:attempted:failed entries");
        SR.Attempted = Att;
        SR.Failed = Fl;
        O.ExtraSetup.push_back(SR);
      }
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.RunDir.empty())
    usage("--run-dir is required");
  std::filesystem::create_directories(O.RunDir);
  // Every run owns its JIT cache; run.py points this at an empty directory.
  if (!std::getenv("DCIR_CACHE_DIR"))
    setenv("DCIR_CACHE_DIR", (O.RunDir + "/cache").c_str(), 1);

  RunResult R;
  for (const Options::SetupRun &SR : O.ExtraSetup)
    R.Ops.add(SR.Attempted, SR.Failed);
  int Rc;
  if (O.Workload == "polybench_compile")
    Rc = runPolybench(O, /*Scaled=*/false, R);
  else if (O.Workload == "polybench_scaled")
    Rc = runPolybench(O, /*Scaled=*/true, R);
  else if (O.Workload == "serving_mixed")
    Rc = runServing(O, R);
  else
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (Rc != 0 || O.SetupOnly || !O.DumpInputs.empty())
    return Rc;

  if (O.Trace) {
    for (const auto &[Name, T] : trace::totals())
      Report::note("span %-22s n=%-8llu total %10.3f ms  self %10.3f ms",
                   Name.c_str(), static_cast<unsigned long long>(T.Count),
                   T.TotalMs, T.SelfMs);
    if (!O.TraceOut.empty())
      trace::writeChrome(O.TraceOut, R.HostFacts.empty() ? "{}" : R.HostFacts);
  }
  const Ledger &L = R.Ops;
  Report::note("operations: attempted=%llu failed=%llu mismatches=%llu "
               "failed_share=%.6g",
               static_cast<unsigned long long>(L.attempted()),
               static_cast<unsigned long long>(L.failed()),
               static_cast<unsigned long long>(L.mismatches()),
               L.attempted() ? static_cast<double>(L.failed()) / L.attempted()
                             : 0.0);
  R.Metrics.printJson(R.Correct && L.mismatches() == 0, L);
  return 0;
}
