//===- Serving.cpp - serving_mixed --------------------------------------------===//
//
// Two client threads in one process, each in a closed loop, share two
// Programs (every call at setNumThreads(1)):
//
//   scatter   workloads/irregular/scatter.c under --static-verify=guard with
//             speculation. Inputs are seeded index permutations; exactly 1
//             in 8 scatter calls carries a duplicate index, so its guard
//             fails and the serial fallback runs.
//   gemm_sym  the symbolic-size gemm under eager specialization, with 4
//             seeded shapes (32..128 per dimension) prebuilt in set-up.
//
// Traffic: 3 of 4 requests are scatters, 1 of 4 a gemm (each shape equally
// often), in a seeded order per client. Clients run whole passes over
// their request list, so guard and variant counters have a fixed
// composition. All inputs and expected outputs exist before timing.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "Trace.h"
#include "Workloads.h"

#include "api/Api.h"
#include "exec/JitCache.h"
#include "pipeline/WorkloadDefines.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace dcir;

namespace bench {
namespace {

constexpr int Clients = 2;
constexpr int NumShapes = 4;
constexpr std::size_t PoolSize = 64; // Scatter inputs; 8 carry a duplicate.
constexpr std::size_t Requests = 4096; // Per client and pass.
constexpr int WarmCompileReps = 50;

struct Shape {
  std::int64_t Ni, Nj, Nk;
};

/// What a request runs: scatter input Index, or gemm shape Index.
struct Request {
  bool Gemm;
  std::uint32_t Index;
};

struct Inputs {
  std::int64_t N = 0;
  std::string ScatterSrc, GemmSrc;
  Shape Shapes[NumShapes];
  std::vector<std::vector<std::int64_t>> Idx;
  std::vector<std::vector<double>> Val;
  std::vector<bool> Dup;
  std::vector<std::vector<double>> A, B, C0; // Per shape.
  std::vector<std::vector<Request>> Reqs;    // Per client.
};

Inputs makeInputs(std::uint64_t Seed) {
  Inputs In;
  Rng R(Seed, "serving");
  In.N = 1024 + R.range(0, 16);
  In.ScatterSrc = pipeline::detail::mapIntDefines(
      readFile(std::string(DCIR_WORKLOADS_DIR) + "/irregular/scatter.c"),
      [&](const std::string &, long long) { return In.N; });
  In.GemmSrc = readFile(std::string(DCIRBENCH_KERNELS_DIR) + "/gemm_sym.c");
  // One shape per size class, each dimension jittered by up to 2.
  static const Shape Base[NumShapes] = {
      {40, 56, 48}, {64, 96, 80}, {96, 48, 120}, {124, 112, 100}};
  for (int S = 0; S < NumShapes; ++S)
    In.Shapes[S] = {Base[S].Ni + R.range(-2, 2), Base[S].Nj + R.range(-2, 2),
                    Base[S].Nk + R.range(-2, 2)};
  std::vector<std::size_t> DupSlots(PoolSize);
  for (std::size_t I = 0; I < PoolSize; ++I)
    DupSlots[I] = I;
  R.shuffle(DupSlots);
  In.Dup.assign(PoolSize, false);
  for (std::size_t I = 0; I < PoolSize / 8; ++I)
    In.Dup[DupSlots[I]] = true;
  for (std::size_t P = 0; P < PoolSize; ++P) {
    std::vector<std::int64_t> Idx(In.N);
    std::vector<double> Val(In.N);
    for (std::int64_t I = 0; I < In.N; ++I) {
      Idx[I] = I;
      Val[I] = R.unit() * 2.0 - 1.0;
    }
    R.shuffle(Idx);
    if (In.Dup[P]) {
      std::int64_t A = R.range(0, In.N - 1), B = R.range(0, In.N - 2);
      Idx[B >= A ? B + 1 : B] = Idx[A];
    }
    In.Idx.push_back(std::move(Idx));
    In.Val.push_back(std::move(Val));
  }
  for (const Shape &S : In.Shapes) {
    auto Fill = [&](std::int64_t Len) {
      std::vector<double> V(Len);
      for (double &X : V)
        X = R.unit();
      return V;
    };
    In.A.push_back(Fill(S.Ni * S.Nk));
    In.B.push_back(Fill(S.Nk * S.Nj));
    In.C0.push_back(Fill(S.Ni * S.Nj));
  }
  for (int C = 0; C < Clients; ++C) {
    std::vector<Request> Rs;
    for (std::size_t I = 0; I < Requests * 3 / 4; ++I)
      Rs.push_back({false, static_cast<std::uint32_t>(I % PoolSize)});
    for (std::size_t I = 0; I < Requests / 4; ++I)
      Rs.push_back({true, static_cast<std::uint32_t>(I % NumShapes)});
    Rng(Seed, "client/" + std::to_string(C)).shuffle(Rs);
    In.Reqs.push_back(std::move(Rs));
  }
  return In;
}

std::string inputBytes(const Inputs &In) {
  std::string B = In.ScatterSrc + In.GemmSrc;
  auto Raw = [&](const void *P, std::size_t N) {
    B.append(static_cast<const char *>(P), N);
  };
  Raw(In.Shapes, sizeof(In.Shapes));
  for (std::size_t P = 0; P < PoolSize; ++P) {
    Raw(In.Idx[P].data(), In.Idx[P].size() * sizeof(std::int64_t));
    Raw(In.Val[P].data(), In.Val[P].size() * sizeof(double));
  }
  for (int S = 0; S < NumShapes; ++S) {
    Raw(In.A[S].data(), In.A[S].size() * sizeof(double));
    Raw(In.B[S].data(), In.B[S].size() * sizeof(double));
    Raw(In.C0[S].data(), In.C0[S].size() * sizeof(double));
  }
  for (const auto &Rs : In.Reqs)
    for (const Request &Q : Rs) {
      B += Q.Gemm ? 'g' : 's';
      Raw(&Q.Index, sizeof(Q.Index));
    }
  return B;
}

pipeline::CompileOptions scatterOptions() {
  pipeline::CompileOptions C;
  C.Engine = exec::EngineKind::Native;
  C.Parallelism = pipeline::ParallelismMode::Auto;
  C.StaticVerify = pipeline::StaticVerifyMode::Guard;
  C.Speculate = true;
  return C;
}

pipeline::CompileOptions gemmOptions() {
  pipeline::CompileOptions C;
  C.Engine = exec::EngineKind::Native;
  C.Parallelism = pipeline::ParallelismMode::Auto;
  C.Specialize = pipeline::SpecializeMode::Eager;
  return C;
}

std::map<std::string, std::int64_t> shapeValues(const Shape &S) {
  return {{"ni", S.Ni},           {"nj", S.Nj},           {"nk", S.Nk},
          {"s_0", S.Ni * S.Nk}, {"s_1", S.Nk * S.Nj}, {"s_2", S.Ni * S.Nj}};
}

std::shared_ptr<const api::Program>
compileChecked(const std::string &Name, const std::string &Src,
               const std::string &Entry, const pipeline::CompileOptions &CO,
               Ledger &L) {
  api::Compiler C;
  C.options(CO);
  std::shared_ptr<const api::Program> P = C.compile(Src, Entry);
  if (!P)
    L.fail("compile " + Name + ": " + C.diagnostics());
  else if (!P->nativePrepareError().empty())
    L.fail("native preparation of " + Name + ": " + P->nativePrepareError());
  else
    L.ok();
  return P;
}

struct Programs {
  std::shared_ptr<const api::Program> Scatter, Gemm;
  std::vector<double> SpecializeMs;
};

/// Set-up: both Programs (in parallel), then every shape's variant.
Programs buildPrograms(const Inputs &In, Ledger &L, double &Seconds) {
  Programs Ps;
  std::int64_t T0 = nowNs();
  parallelFor(2, setupJobs(), [&](std::size_t I) {
    if (I == 0)
      Ps.Scatter = compileChecked("scatter", In.ScatterSrc, "scatter_update",
                                  scatterOptions(), L);
    else
      Ps.Gemm = compileChecked("gemm_sym", In.GemmSrc, "kernel_gemm_sym",
                               gemmOptions(), L);
  });
  if (Ps.Gemm)
    for (const Shape &S : In.Shapes) {
      std::int64_t T1 = nowNs();
      if (Ps.Gemm->specialize(shapeValues(S)))
        L.ok();
      else
        L.fail("specialize gemm_sym " + std::to_string(S.Ni) + "x" +
               std::to_string(S.Nj) + "x" + std::to_string(S.Nk));
      Ps.SpecializeMs.push_back((nowNs() - T1) * 1e-6);
    }
  Seconds = (nowNs() - T0) * 1e-9;
  return Ps;
}

/// Per request class (scatter, then one per gemm shape).
constexpr int Classes = 1 + NumShapes;

struct ClientSamples {
  std::vector<double> LatencyNs, BindNs, OverheadNs;
  std::vector<double> InvokeNs[Classes];
};

} // namespace

int runServing(const Options &O, RunResult &Res) {
  const Inputs In = makeInputs(O.Seed);
  Ledger &L = Res.Ops;
  Report &M = Res.Metrics;
  if (!O.DumpInputs.empty()) {
    writeFile(O.DumpInputs, inputBytes(In));
    return 0;
  }
  if (O.SetupOnly) {
    double Setup = 0;
    buildPrograms(In, L, Setup);
    std::printf("SETUP %.9f %llu %llu\n", Setup,
                static_cast<unsigned long long>(L.attempted()),
                static_cast<unsigned long long>(L.failed()));
    return 0;
  }

  // Expected outputs from the host-compiled sources.
  std::string RefDir = O.RunDir + "/ref";
  std::filesystem::create_directories(RefDir);
  std::vector<std::string> RefErrors;
  std::vector<void *> RefFns = buildReferences(
      {{"scatter", In.ScatterSrc, "scatter_update"},
       {"gemm_sym", In.GemmSrc, "kernel_gemm_sym"}},
      RefDir, setupJobs(), RefErrors);
  for (std::size_t I = 0; I < RefFns.size(); ++I)
    if (!RefFns[I]) {
      std::fprintf(stderr, "dcirbench: reference: %s\n",
                   RefErrors[I].c_str());
      Res.Correct = false;
      return 1;
    }
  using ScatterFn = void (*)(long long *, double *, double *);
  using GemmFn = void (*)(int, int, int, double *, double *, double *);
  auto *RefScatter = reinterpret_cast<ScatterFn>(RefFns[0]);
  auto *RefGemm = reinterpret_cast<GemmFn>(RefFns[1]);
  std::vector<std::vector<double>> WantOut(PoolSize), WantC(NumShapes);
  std::vector<double> RefMs(Classes, 0.0);
  onLargeStack([&] {
    for (std::size_t P = 0; P < PoolSize; ++P) {
      std::vector<long long> Idx(In.Idx[P].begin(), In.Idx[P].end());
      std::vector<double> Val = In.Val[P];
      WantOut[P].assign(In.N, -1.0);
      RefScatter(Idx.data(), Val.data(), WantOut[P].data());
    }
    for (int S = 0; S < NumShapes; ++S) {
      std::vector<double> A = In.A[S], B = In.B[S];
      WantC[S] = In.C0[S];
      const Shape &Sh = In.Shapes[S];
      RefGemm(static_cast<int>(Sh.Ni), static_cast<int>(Sh.Nj),
              static_cast<int>(Sh.Nk), A.data(), B.data(), WantC[S].data());
    }
    if (!O.Trace)
      return;
    // Reference run times per request class (median of repeats).
    for (int Cls = 0; Cls < Classes; ++Cls) {
      std::vector<double> Ts;
      std::vector<long long> Idx(In.Idx[0].begin(), In.Idx[0].end());
      std::vector<double> Val = In.Val[0], Out(In.N);
      for (int Rep = 0; Rep < 21; ++Rep) {
        std::vector<double> A, B, C;
        if (Cls) {
          A = In.A[Cls - 1], B = In.B[Cls - 1], C = In.C0[Cls - 1];
        }
        std::int64_t T0 = nowNs();
        if (Cls) {
          const Shape &Sh = In.Shapes[Cls - 1];
          RefGemm(static_cast<int>(Sh.Ni), static_cast<int>(Sh.Nj),
                  static_cast<int>(Sh.Nk), A.data(), B.data(), C.data());
        } else {
          RefScatter(Idx.data(), Val.data(), Out.data());
        }
        Ts.push_back((nowNs() - T0) * 1e-6);
      }
      RefMs[Cls] = median(Ts);
    }
  });

  // Traced run: replay both generic compiles layer by layer first.
  std::vector<LayerSample> Replays;
  if (O.Trace) {
    trace::enable(true);
    const char *Root = std::getenv("DCIR_CACHE_DIR");
    exec::JitCache Cold(Root ? Root : O.RunDir + "/cache");
    Replays.push_back(replayCompile(In.ScatterSrc, "scatter_update",
                                    scatterOptions(), Cold, 1));
    Replays.push_back(
        replayCompile(In.GemmSrc, "kernel_gemm_sym", gemmOptions(), Cold, 2));
    copyCacheRoot(Cold.root(), O.RunDir + "/replay-load");
    exec::JitCache Warm(O.RunDir + "/replay-load");
    for (std::size_t I = 0; I < Replays.size(); ++I)
      if (Replays[I].Ok)
        replayLoad(Replays[I], Warm, I + 1);
    trace::enable(false);
  }

  double SetupS = 0;
  Programs Ps = buildPrograms(In, L, SetupS);
  bool SerialTier = false;
  Res.HostFacts = hostFacts(O, 1, SerialTier);
  if (SerialTier)
    Res.Correct = false;
  if (!Ps.Scatter || !Ps.Gemm) {
    Res.Correct = false;
    return 1;
  }

  // Warm re-compiles of both programs, run between the slices of the
  // timed region below (the shared host's speed drifts for seconds at a
  // time); the metric sums each program's median.
  std::vector<double> WarmMs[2];
  auto WarmCompiles = [&](int Reps) {
    for (int Rep = 0; Rep < Reps && !O.Trace; ++Rep) {
      CpuRotation Pin(Rep);
      std::int64_t T0 = nowNs();
      compileChecked("scatter", In.ScatterSrc, "scatter_update",
                     scatterOptions(), L);
      std::int64_t T1 = nowNs();
      compileChecked("gemm_sym", In.GemmSrc, "kernel_gemm_sym", gemmOptions(),
                     L);
      WarmMs[0].push_back((T1 - T0) * 1e-6);
      WarmMs[1].push_back((nowNs() - T1) * 1e-6);
    }
  };

  // One client: serve requests [0, Count) of its list (cycling), or whole
  // passes until the deadline when Count is 0.
  std::atomic<std::uint64_t> CallId{1};
  auto Client = [&](int C, std::int64_t Deadline, std::size_t Count,
                    ClientSamples &Out) {
    const std::vector<Request> &Rs = In.Reqs[C];
    std::size_t MaxC = 0;
    for (const auto &C0 : In.C0)
      MaxC = std::max(MaxC, C0.size());
    std::vector<double> OutBuf(In.N), CBuf(MaxC);
    std::int64_t Ni[NumShapes], Nj[NumShapes], Nk[NumShapes];
    for (int S = 0; S < NumShapes; ++S)
      Ni[S] = In.Shapes[S].Ni, Nj[S] = In.Shapes[S].Nj,
      Nk[S] = In.Shapes[S].Nk;
    auto Serve = [&](const Request &Q) {
      std::fill(OutBuf.begin(), OutBuf.end(), -1.0);
      if (Q.Gemm)
        std::copy(In.C0[Q.Index].begin(), In.C0[Q.Index].end(), CBuf.begin());
      std::int64_t T0 = nowNs(), T1, T2;
      api::InvocationResult R;
      bool Bound;
      {
        trace::Span Call("call", CallId++);
        api::Invocation Inv;
        {
          trace::Span B("api.bind");
          if (!Q.Gemm) {
            Inv = Ps.Scatter->newInvocation();
            auto *Idx = const_cast<std::int64_t *>(In.Idx[Q.Index].data());
            auto *Val = const_cast<double *>(In.Val[Q.Index].data());
            Inv.bind("idx", Idx, In.N);
            Inv.bind("val", Val, In.N);
            Inv.bind("out", OutBuf.data(), In.N);
          } else {
            const Shape &S = In.Shapes[Q.Index];
            Inv = Ps.Gemm->newInvocation();
            Inv.bind("A", const_cast<double *>(In.A[Q.Index].data()),
                     S.Ni * S.Nk);
            Inv.bind("B", const_cast<double *>(In.B[Q.Index].data()),
                     S.Nk * S.Nj);
            Inv.bind("C", CBuf.data(), S.Ni * S.Nj);
            Inv.bind("ni", &Ni[Q.Index], 1);
            Inv.bind("nj", &Nj[Q.Index], 1);
            Inv.bind("nk", &Nk[Q.Index], 1);
            Inv.setSymbol("s_0", S.Ni * S.Nk)
                .setSymbol("s_1", S.Nk * S.Nj)
                .setSymbol("s_2", S.Ni * S.Nj);
          }
          Inv.setNumThreads(1);
          Bound = Inv.error().empty();
        }
        T1 = nowNs();
        {
          trace::Span V("api.invoke");
          if (Bound)
            R = Inv.run();
        }
        T2 = nowNs();
      }
      const char *Name = Q.Gemm ? "gemm_sym" : "scatter";
      if (!Bound)
        L.fail(std::string(Name) + " bind");
      else if (!R.Ok)
        L.fail(std::string(Name) + " invocation: " + R.Error);
      else if (R.EngineUsed != exec::EngineKind::Native)
        L.fail(std::string(Name) + " fell back to the interpreter");
      else if (Q.Gemm ? !closeArray(CBuf.data(), WantC[Q.Index].data(),
                                    WantC[Q.Index].size())
                      : !closeArray(OutBuf.data(), WantOut[Q.Index].data(),
                                    In.N))
        L.mismatch(Name);
      else
        L.ok();
      Out.LatencyNs.push_back(T2 - T0);
      Out.BindNs.push_back(T1 - T0);
      Out.OverheadNs.push_back((T2 - T1) - R.Seconds * 1e9);
      Out.InvokeNs[Q.Gemm ? 1 + Q.Index : 0].push_back(T2 - T1);
    };
    if (Count) {
      for (std::size_t I = 0; I < Count; ++I)
        Serve(Rs[I % Rs.size()]);
      return;
    }
    do
      for (const Request &Q : Rs)
        Serve(Q);
    while (nowNs() < Deadline);
  };

  // Warm-up: the first requests of each client, untimed.
  {
    ClientSamples Discard;
    for (int C = 0; C < Clients; ++C)
      Client(C, 0, 32, Discard);
  }

  // Peak memory once both Programs have served, before the benchmark's own
  // sample buffers grow.
  const double RssMb = peakRssMb();
  const api::ProgramStats SBefore = Ps.Scatter->stats();
  const api::ProgramStats GBefore = Ps.Gemm->stats();
  std::vector<ClientSamples> All(Clients * 2);
  double ElapsedS = 0;
  std::vector<double> PhaseMedian;
  // The timed region runs in slices with the warm re-compiles between
  // them; a fixed request count (self-tests) runs as one slice.
  const int Slices = O.Requests > 0 ? 1 : 10;
  for (int Phase = O.Trace ? 0 : 1; Phase < 2; ++Phase) {
    bool Traced = O.Trace && Phase == 1;
    double Budget = (O.Trace ? O.Seconds / 2 : O.Seconds) / Slices;
    for (int Slice = 0; Slice < Slices; ++Slice) {
      trace::enable(Traced);
      std::int64_t Start = nowNs();
      std::int64_t Deadline = Start + static_cast<std::int64_t>(Budget * 1e9);
      std::vector<std::thread> Ts;
      for (int C = 0; C < Clients; ++C)
        Ts.emplace_back(Client, C, Deadline,
                        O.Requests > 0 ? static_cast<std::size_t>(O.Requests)
                                       : 0,
                        std::ref(All[Phase * Clients + C]));
      for (std::thread &T : Ts)
        T.join();
      ElapsedS += (nowNs() - Start) * 1e-9;
      trace::enable(false);
      WarmCompiles(WarmCompileReps / Slices);
    }
    std::vector<double> Lat;
    for (int C = 0; C < Clients; ++C) {
      const auto &V = All[Phase * Clients + C].LatencyNs;
      Lat.insert(Lat.end(), V.begin(), V.end());
    }
    PhaseMedian.push_back(median(Lat));
  }
  const api::ProgramStats SAfter = Ps.Scatter->stats();
  const api::ProgramStats GAfter = Ps.Gemm->stats();
  std::uint64_t GuardPass = SAfter.SpeculationPass - SBefore.SpeculationPass;
  std::uint64_t GuardFail = SAfter.SpeculationFail - SBefore.SpeculationFail;
  std::uint64_t Hits = GAfter.SpecializeHits - GBefore.SpecializeHits;
  std::uint64_t Fallbacks = (SAfter.EngineFallbacks - SBefore.EngineFallbacks) +
                            (GAfter.EngineFallbacks - GBefore.EngineFallbacks);

  std::vector<double> Latency, Bind, Overhead;
  std::vector<double> Invoke[Classes];
  for (const ClientSamples &CS : All) {
    Latency.insert(Latency.end(), CS.LatencyNs.begin(), CS.LatencyNs.end());
    Bind.insert(Bind.end(), CS.BindNs.begin(), CS.BindNs.end());
    Overhead.insert(Overhead.end(), CS.OverheadNs.begin(),
                    CS.OverheadNs.end());
    for (int Cls = 0; Cls < Classes; ++Cls)
      Invoke[Cls].insert(Invoke[Cls].end(), CS.InvokeNs[Cls].begin(),
                         CS.InvokeNs[Cls].end());
  }
  std::uint64_t GemmCalls = 0;
  for (int Cls = 1; Cls < Classes; ++Cls)
    GemmCalls += Invoke[Cls].size();
  Report::note("counters: calls=%zu gemm_calls=%llu guard_pass=%llu "
               "guard_fail=%llu specialize_hits=%llu engine_fallbacks=%llu",
               Latency.size(), static_cast<unsigned long long>(GemmCalls),
               static_cast<unsigned long long>(GuardPass),
               static_cast<unsigned long long>(GuardFail),
               static_cast<unsigned long long>(Hits),
               static_cast<unsigned long long>(Fallbacks));

  std::vector<double> MedMs, TailMs;
  for (int Cls = 0; Cls < Classes; ++Cls) {
    if (Invoke[Cls].empty())
      continue;
    double Pct = 0;
    MedMs.push_back(median(Invoke[Cls]) * 1e-6);
    TailMs.push_back(tail(Invoke[Cls], &Pct) * 1e-6);
    std::string Label =
        Cls ? "gemm " + std::to_string(In.Shapes[Cls - 1].Ni) + "x" +
                  std::to_string(In.Shapes[Cls - 1].Nj) + "x" +
                  std::to_string(In.Shapes[Cls - 1].Nk)
            : "scatter n=" + std::to_string(In.N);
    Report::note("class %-20s median %9.4f ms  p%.2f %9.4f ms  n=%zu  "
                 "reference %.4f ms",
                 Label.c_str(), MedMs.back(), Pct, TailMs.back(),
                 Invoke[Cls].size(), RefMs[Cls]);
  }

  if (!O.Trace) {
    std::vector<double> Sorted = Latency;
    std::sort(Sorted.begin(), Sorted.end());
    auto Quantile = [&](double Q) {
      if (Sorted.empty())
        return 0.0;
      std::size_t Rank = static_cast<std::size_t>(Q * Sorted.size());
      return Sorted[std::min(Rank, Sorted.size() - 1)];
    };
    Report::note("latency: n=%zu calls over %d clients, p99 has %zu beyond",
                 Sorted.size(), Clients, Sorted.size() / 100);
    M.set("setup_s", setupMedian(O, SetupS), "s");
    M.set("compile_warm_ms", median(WarmMs[0]) + median(WarmMs[1]), "ms");
    M.set("kernel_ms_geomean", geomean(MedMs), "ms");
    M.set("kernel_ms_tail_geomean", geomean(TailMs), "ms");
    M.set("invoke_us_p50", Quantile(0.50) * 1e-3, "us");
    M.set("invoke_us_p99", Quantile(0.99) * 1e-3, "us");
    M.set("calls_per_s", Latency.size() / ElapsedS, "1/s");
    M.set("peak_rss_mb", RssMb, "MB");
    return 0;
  }

  initLayerMetrics(M);
  std::vector<bool> Matched = {
      Replays[0].Ok && replayMatches(Replays[0], *Ps.Scatter),
      Replays[1].Ok && replayMatches(Replays[1], *Ps.Gemm)};
  addReplayMetrics(M, Replays, Matched);
  M.set("api.invoke_overhead_us", median(Overhead) * 1e-3, "us");
  M.set("api.bind_us", median(Bind) * 1e-3, "us");
  M.set("api.specialize_ms", median(Ps.SpecializeMs), "ms");
  M.set("api.variant_hit_ratio",
        GemmCalls ? static_cast<double>(Hits) / GemmCalls : 0.0, "ratio");
  M.set("api.variant_hit_base", static_cast<double>(GemmCalls), "count");
  M.set("api.guard_pass_ratio",
        GuardPass + GuardFail
            ? static_cast<double>(GuardPass) / (GuardPass + GuardFail)
            : 0.0,
        "ratio");
  M.set("api.guard_base", static_cast<double>(GuardPass + GuardFail), "count");
  M.set("reference.gcc_kernel_ms_geomean", geomean(RefMs), "ms");
  M.set("trace.overhead_pct", (PhaseMedian[1] / PhaseMedian[0] - 1.0) * 100.0,
        "%");
  return 0;
}

} // namespace bench
