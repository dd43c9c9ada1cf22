//===- Polybench.cpp - polybench_compile and polybench_scaled -----------------===//
//
// Both workloads compile the 29 Polybench kernels cold through
// api::Compiler (pipeline DCIR, native engine, parallelism auto, 2 OpenMP
// threads) and then time Program::invoke per kernel over a fixed window,
// one client in a closed loop. polybench_compile runs at MINI size under
// --static-verify=error and also times warm re-compiles; polybench_scaled
// runs at 8x MINI with the analyzer off.
//
// The seed sets the kernel order and the shapes: every integer #define
// becomes value * scale + d, with d drawn from [0, scale] per kernel and
// define.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Trace.h"
#include "Workloads.h"

#include "api/Api.h"
#include "exec/JitCache.h"
#include "pipeline/PolybenchRegistry.h"
#include "pipeline/WorkloadDefines.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

using namespace dcir;

namespace bench {
namespace {

/// OpenMP threads per kernel call. Two, not nproc: on the shared 4-vCPU
/// host, 4 threads made every fork/join wait on whichever core the host
/// was slowing, and run-to-run spread of tail latency reached 0.30.
constexpr int Threads = 2;
constexpr int WarmCompileReps = 12;
constexpr int WarmupCalls = 3;
constexpr std::size_t MinSamples = 21;

struct PbKernel {
  std::string Name, Entry, Source;
};

std::vector<PbKernel> makeCorpus(const Options &O, int Scale) {
  std::vector<PbKernel> Ks;
  for (const pipeline::PolybenchKernel &K : pipeline::polybenchKernels()) {
    if (!O.Kernels.empty() &&
        std::find(O.Kernels.begin(), O.Kernels.end(), K.Name) ==
            O.Kernels.end())
      continue;
    std::string Src =
        readFile(std::string(DCIR_WORKLOADS_DIR) + "/" + K.File);
    Rng R(O.Seed, std::string("shape/") + K.Name);
    Src = pipeline::detail::mapIntDefines(
        Src, [&](const std::string &, long long V) {
          return V * Scale + R.range(0, Scale);
        });
    Ks.push_back({K.Name, K.Entry, std::move(Src)});
  }
  Rng(O.Seed, "order").shuffle(Ks);
  return Ks;
}

pipeline::CompileOptions compileOptions(bool Scaled) {
  pipeline::CompileOptions C;
  C.Engine = exec::EngineKind::Native;
  C.Parallelism = pipeline::ParallelismMode::Auto;
  C.NumThreads = Threads;
  C.StaticVerify = Scaled ? pipeline::StaticVerifyMode::Off
                          : pipeline::StaticVerifyMode::Error;
  return C;
}

/// One compile through the public API, checked: a null Program, a native
/// preparation failure (the program would serve from the interpreter) or
/// a gate demotion (the emitted code would differ from the default build)
/// counts as a failed operation.
std::shared_ptr<const api::Program>
compileChecked(const PbKernel &K, const pipeline::CompileOptions &CO,
               Ledger &L) {
  api::Compiler C;
  C.options(CO);
  std::shared_ptr<const api::Program> P = C.compile(K.Source, K.Entry);
  if (!P)
    L.fail("compile " + K.Name + ": " + C.diagnostics());
  else if (!P->nativePrepareError().empty())
    L.fail("native preparation of " + K.Name + ": " +
           P->nativePrepareError());
  else if (P->stats().VerifyDemotions)
    L.fail("static-verify demoted maps of " + K.Name);
  else
    L.ok();
  return P;
}

std::vector<std::shared_ptr<const api::Program>>
buildCorpus(const std::vector<PbKernel> &Ks, const pipeline::CompileOptions &CO,
            Ledger &L, double &Seconds) {
  std::vector<std::shared_ptr<const api::Program>> Progs(Ks.size());
  std::int64_t T0 = nowNs();
  parallelFor(Ks.size(), setupJobs(),
              [&](std::size_t I) { Progs[I] = compileChecked(Ks[I], CO, L); });
  Seconds = (nowNs() - T0) * 1e-9;
  return Progs;
}

struct Samples {
  std::vector<double> BindNs, InvokeNs, LatencyNs, ExecMs, OverheadNs;
  std::vector<double> UntracedLatencyNs, TracedLatencyNs;
};

} // namespace

int runPolybench(const Options &O, bool Scaled, RunResult &Res) {
  const int Scale = Scaled ? 8 : 1;
  const std::vector<PbKernel> Ks = makeCorpus(O, Scale);
  const pipeline::CompileOptions CO = compileOptions(Scaled);
  Ledger &L = Res.Ops;
  Report &M = Res.Metrics;

  if (!O.DumpInputs.empty()) {
    std::string Bytes;
    for (const PbKernel &K : Ks)
      Bytes += K.Name + "\n" + K.Source + "\n";
    writeFile(O.DumpInputs, Bytes);
    return 0;
  }
  if (O.SetupOnly) {
    double Setup = 0;
    buildCorpus(Ks, CO, L, Setup);
    std::printf("SETUP %.9f %llu %llu\n", Setup,
                static_cast<unsigned long long>(L.attempted()),
                static_cast<unsigned long long>(L.failed()));
    return 0;
  }

  // The oracle first: expected checksums from the host C compiler.
  std::string RefDir = O.RunDir + "/ref";
  std::filesystem::create_directories(RefDir);
  std::vector<RefUnit> Units;
  for (const PbKernel &K : Ks)
    Units.push_back({K.Name, K.Source, K.Entry});
  std::vector<std::string> RefErrors;
  std::vector<void *> RefFns =
      buildReferences(Units, RefDir, setupJobs(), RefErrors);
  std::vector<double> Expected(Ks.size(), 0.0), RefMs(Ks.size(), 0.0);
  onLargeStack([&] {
    for (std::size_t I = 0; I < Ks.size(); ++I) {
      if (!RefFns[I])
        continue;
      auto *Fn = reinterpret_cast<double (*)()>(RefFns[I]);
      Expected[I] = Fn();
      if (!O.Trace)
        continue;
      std::vector<double> Ts;
      for (int Rep = 0; Rep < 5; ++Rep) {
        std::int64_t T0 = nowNs();
        Fn();
        Ts.push_back((nowNs() - T0) * 1e-6);
      }
      RefMs[I] = median(Ts);
    }
  });
  for (std::size_t I = 0; I < Ks.size(); ++I)
    if (!RefFns[I]) {
      std::fprintf(stderr, "dcirbench: reference for %s: %s\n",
                   Ks[I].Name.c_str(), RefErrors[I].c_str());
      Res.Correct = false;
    }

  // Traced run: replay every compile layer by layer first. The replay's
  // cold cache is the Programs' cache root, so set-up below is warm.
  std::vector<LayerSample> Replays;
  if (O.Trace) {
    trace::enable(true);
    const char *Root = std::getenv("DCIR_CACHE_DIR");
    exec::JitCache Cold(Root ? Root : O.RunDir + "/cache");
    for (std::size_t I = 0; I < Ks.size(); ++I)
      Replays.push_back(
          replayCompile(Ks[I].Source, Ks[I].Entry, CO, Cold, I + 1));
    copyCacheRoot(Cold.root(), O.RunDir + "/replay-load");
    exec::JitCache Warm(O.RunDir + "/replay-load");
    for (std::size_t I = 0; I < Ks.size(); ++I)
      if (Replays[I].Ok)
        replayLoad(Replays[I], Warm, I + 1);
    trace::enable(false);
  }

  double SetupS = 0;
  std::vector<std::shared_ptr<const api::Program>> Progs =
      buildCorpus(Ks, CO, L, SetupS);

  bool SerialTier = false;
  Res.HostFacts = hostFacts(O, Threads, SerialTier);
  if (SerialTier)
    Res.Correct = false;

  // Warm re-compiles: the compiler's own layers once artifacts are cached.
  // The passes over the corpus are spread between the invocation windows
  // below and rotate over the usable CPUs, so they sample the same stretch
  // of host time as the invocations (the shared host's cores drift apart
  // in speed for seconds at a time). The metric sums each kernel's median.
  std::vector<std::vector<double>> WarmMs(Ks.size());
  const std::size_t WarmTotal = O.Trace ? 0 : WarmCompileReps * Ks.size();
  std::size_t WarmDone = 0;
  auto WarmCompilesUpTo = [&](std::size_t Goal) {
    for (; WarmDone < Goal; ++WarmDone) {
      CpuRotation Pin(static_cast<int>(WarmDone / Ks.size()));
      std::size_t K = WarmDone % Ks.size();
      std::int64_t T0 = nowNs();
      compileChecked(Ks[K], CO, L);
      WarmMs[K].push_back((nowNs() - T0) * 1e-6);
    }
  };

  // Steady-state invocations, one fixed window per kernel.
  const double WindowNs = O.Seconds * 1e9 / std::max<std::size_t>(Ks.size(), 1);
  std::vector<Samples> S(Ks.size());
  std::uint64_t CallId = 1;
  double TimedNs = 0;
  std::size_t Calls = 0;
  // One checked call of kernel I; samples go to Into unless null.
  auto Call = [&](std::size_t I, Samples *Into) {
    const api::Program &P = *Progs[I];
    std::int64_t T0 = nowNs(), T1, T2;
    api::InvocationResult R;
    {
      trace::Span C("call", CallId++);
      api::Invocation Inv;
      {
        trace::Span B("api.bind");
        Inv = P.newInvocation();
      }
      T1 = nowNs();
      {
        trace::Span V("api.invoke");
        R = P.invoke(Inv);
      }
      T2 = nowNs();
    }
    if (!R.Ok)
      L.fail(Ks[I].Name + " invocation: " + R.Error);
    else if (R.EngineUsed != exec::EngineKind::Native)
      L.fail(Ks[I].Name + " fell back to the interpreter");
    else if (!closeScalar(R.ReturnValue, Expected[I]))
      L.mismatch(Ks[I].Name);
    else
      L.ok();
    if (!Into)
      return;
    Into->BindNs.push_back(T1 - T0);
    Into->InvokeNs.push_back(T2 - T1);
    Into->LatencyNs.push_back(T2 - T0);
    Into->ExecMs.push_back(R.Seconds * 1e3);
    Into->OverheadNs.push_back((T2 - T1) - R.Seconds * 1e9);
  };
  // Peak memory is read once every Program has run, before the
  // benchmark's own sample buffers grow.
  for (std::size_t I = 0; I < Ks.size(); ++I)
    if (Progs[I])
      Call(I, nullptr);
  const double RssMb = peakRssMb();
  for (std::size_t I = 0; I < Ks.size(); ++I) {
    if (!Progs[I])
      continue;
    for (int W = 0; W < WarmupCalls; ++W)
      Call(I, nullptr);
    // A traced run spends half of each window untraced and half traced;
    // the difference is the tracing overhead.
    for (int Phase = O.Trace ? 0 : 1; Phase < 2; ++Phase) {
      bool Traced = O.Trace && Phase == 1;
      double Budget = O.Trace ? WindowNs / 2 : WindowNs;
      trace::enable(Traced);
      std::size_t Before = S[I].LatencyNs.size();
      std::int64_t Start = nowNs();
      while (nowNs() - Start < Budget ||
             S[I].LatencyNs.size() - Before < MinSamples)
        Call(I, &S[I]);
      trace::enable(false);
      TimedNs += nowNs() - Start;
      std::vector<double> Lat(S[I].LatencyNs.begin() + Before,
                              S[I].LatencyNs.end());
      Calls += Lat.size();
      (Traced ? S[I].TracedLatencyNs : S[I].UntracedLatencyNs) = Lat;
    }
    WarmCompilesUpTo(WarmTotal * (I + 1) / Ks.size());
  }
  WarmCompilesUpTo(WarmTotal);

  // Per-kernel lines, then the metrics.
  std::vector<double> MedMs, TailMs, TracedRatio, P50Us, P99Us;
  std::vector<double> BindUs, OverheadUs; // Per-kernel medians.
  for (std::size_t I = 0; I < Ks.size(); ++I) {
    if (S[I].InvokeNs.empty())
      continue;
    double Pct = 0;
    double Med = median(S[I].InvokeNs) * 1e-6;
    double Tail = tail(S[I].InvokeNs, &Pct) * 1e-6;
    MedMs.push_back(Med);
    TailMs.push_back(Tail);
    P50Us.push_back(quantile(S[I].LatencyNs, 0.50) * 1e-3);
    P99Us.push_back(quantile(S[I].LatencyNs, 0.99) * 1e-3);
    BindUs.push_back(median(S[I].BindNs) * 1e-3);
    OverheadUs.push_back(median(S[I].OverheadNs) * 1e-3);
    if (O.Trace)
      TracedRatio.push_back(median(S[I].TracedLatencyNs) /
                            median(S[I].UntracedLatencyNs));
    Report::note("kernel %-16s median %10.4f ms  p%.2f %10.4f ms  n=%zu  "
                 "reference %.4f ms",
                 Ks[I].Name.c_str(), Med, Pct, Tail, S[I].InvokeNs.size(),
                 RefMs[I]);
  }
  std::size_t MinN = SIZE_MAX;
  for (const Samples &X : S)
    MinN = std::min(MinN, X.InvokeNs.size());
  Report::note("tail: per kernel the 11th-largest of n samples (at least "
               "%zu per kernel)",
               MinN == SIZE_MAX ? 0 : MinN);

  if (!O.Trace) {
    double Own = SetupS;
    M.set("setup_s", setupMedian(O, Own), "s");
    double WarmCorpusMs = 0;
    for (const std::vector<double> &W : WarmMs)
      WarmCorpusMs += median(W);
    M.set("compile_warm_ms", WarmCorpusMs, "ms");
    M.set("kernel_ms_geomean", geomean(MedMs), "ms");
    M.set("kernel_ms_tail_geomean", geomean(TailMs), "ms");
    M.set("invoke_us_p50", geomean(P50Us), "us");
    M.set("invoke_us_p99", geomean(P99Us), "us");
    M.set("calls_per_s", Calls / (TimedNs * 1e-9), "1/s");
    M.set("peak_rss_mb", RssMb, "MB");
    return 0;
  }

  initLayerMetrics(M);
  std::vector<bool> Matched(Ks.size(), false);
  for (std::size_t I = 0; I < Ks.size(); ++I)
    Matched[I] = Replays[I].Ok && Progs[I] && replayMatches(Replays[I], *Progs[I]);
  addReplayMetrics(M, Replays, Matched);
  for (std::size_t I = 0; I < Ks.size(); ++I)
    if (!S[I].ExecMs.empty())
      M.set("exec.kernel_ms." + Ks[I].Name, median(S[I].ExecMs), "ms");
  M.set("api.invoke_overhead_us", median(OverheadUs), "us");
  M.set("api.bind_us", median(BindUs), "us");
  std::vector<double> Ref;
  for (double X : RefMs)
    if (X > 0)
      Ref.push_back(X);
  M.set("reference.gcc_kernel_ms_geomean", geomean(Ref), "ms");
  M.set("trace.overhead_pct", (geomean(TracedRatio) - 1.0) * 100.0, "%");
  return 0;
}

std::vector<std::string> polybenchNames() {
  std::vector<std::string> Names;
  for (const pipeline::PolybenchKernel &K : pipeline::polybenchKernels())
    Names.push_back(K.Name);
  return Names;
}

} // namespace bench
