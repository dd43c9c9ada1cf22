//===- Replay.cpp - the traced run's layer-by-layer compile -------------------===//

#include "Replay.h"

#include "Common.h"
#include "Trace.h"

#include "analysis/Analysis.h"
#include "api/Api.h"
#include "conversion/ConvertToSdfg.h"
#include "conversion/TranslateToSDFG.h"
#include "dialects/Dialects.h"
#include "frontend/CCodegen.h"
#include "ir/IRContext.h"
#include "ir/Verifier.h"
#include "passes/Pass.h"

#include <filesystem>

using namespace dcir;
namespace fs = std::filesystem;

namespace bench {
namespace {

/// The DCIR MLIR-side pass list, rebuilt from the public pass factories;
/// it mirrors addDcirMlirPasses in src/api/Compiler.cpp. A drift shows up
/// as a replay mismatch, never as a wrong measurement.
void addDcirMlirPasses(passes::PassManager &PM) {
  using namespace passes;
  PM.addPass(createInlinerPass());
  for (int I = 0; I < 2; ++I) {
    PM.addPass(createCanonicalizePass());
    PM.addPass(createCSEPass());
    PM.addPass(createLICMPass());
    PM.addPass(createScalarReplacementPass());
    PM.addPass(createCSEPass());
    PM.addPass(createDCEPass());
  }
}

double countOps(ir::Operation *Module) {
  double N = 0;
  Module->walk([&](ir::Operation *) { ++N; });
  return N;
}

/// Runs \p Fn under span \p Name and records its wall time in \p S.
template <typename FnT>
auto timed(LayerSample &S, const char *Name, FnT Fn) {
  trace::Span Sp(Name);
  std::int64_t T0 = nowNs();
  auto R = Fn();
  S.Ms[Name] = (nowNs() - T0) * 1e-6;
  return R;
}

} // namespace

LayerSample replayCompile(const std::string &Source, const std::string &Entry,
                          const pipeline::CompileOptions &Opts,
                          exec::JitCache &Cold, std::uint64_t Id) {
  LayerSample S;
  DiagnosticEngine Diags;
  trace::Span Kernel("kernel.compile", Id);
  auto Fail = [&](const char *Layer) {
    S.Error = std::string(Layer) + " failed: " + Diags.str();
    return S;
  };

  auto Ctx = std::make_shared<ir::IRContext>();
  registerAllDialects(*Ctx);
  ir::Operation *Module = timed(S, "frontend.parse", [&] {
    return frontend::compileCToModule(Source, *Ctx, Diags);
  });
  if (!Module)
    return Fail("frontend");
  S.Counts["frontend.ops"] = countOps(Module);

  bool PassesOk = timed(S, "passes.mlir", [&] {
    passes::PassManager PM(/*VerifyEach=*/false);
    addDcirMlirPasses(PM);
    return PM.run(Module, Diags) && ir::verify(Module, Diags);
  });
  if (!PassesOk) {
    ir::Operation::eraseDetached(Module);
    return Fail("passes");
  }
  S.Counts["passes.ops_after"] = countOps(Module);

  ir::Operation *SdfgModule = timed(S, "conversion.dialect", [&] {
    return conversion::convertToSdfgDialect(Module, Diags);
  });
  ir::Operation::eraseDetached(Module);
  if (!SdfgModule || !ir::verify(SdfgModule, Diags)) {
    if (SdfgModule)
      ir::Operation::eraseDetached(SdfgModule);
    return Fail("conversion");
  }
  std::unique_ptr<sdfg::SDFG> G = timed(S, "conversion.translate", [&] {
    return conversion::translateToSDFG(SdfgModule, Entry, Diags);
  });
  ir::Operation::eraseDetached(SdfgModule);
  if (!G)
    return Fail("translate");
  double Nodes = 0;
  for (const auto &St : G->states())
    Nodes += static_cast<double>(St->nodes().size());
  S.Counts["conversion.sdfg_nodes"] = Nodes;

  sdfgopt::OptReport OptRep;
  bool OptOk = timed(S, "sdfgopt.optimize", [&] {
    return api::detail::optimizeGraph(*G, Opts, OptRep, Diags) &&
           G->validate(Diags);
  });
  if (!OptOk)
    return Fail("sdfgopt");
  double Maps = 0;
  for (const auto &St : G->states())
    for (const auto &N : St->nodes())
      Maps += N->getKind() == sdfg::NodeKind::MapEntry;
  S.Counts["sdfgopt.rewrites"] = OptRep.Passes.totalRewrites();
  S.Counts["sdfgopt.maps"] = Maps;
  S.Counts["sdfgopt.containers_eliminated"] = OptRep.containersEliminated();

  analysis::AnalysisResult AR = timed(
      S, "analysis.analyze", [&] { return analysis::analyze(*G); });
  S.Counts["analysis.unproven_maps"] =
      static_cast<double>(AR.UnprovenMaps.size());
  S.Counts["analysis.guards"] = static_cast<double>(AR.Guards.size());

  // The gate's schedule decisions (demotions, guards) feed codegen exactly
  // as Program::create registers them with the engine.
  analysis::AnalysisResult Gate;
  codegen::MapSchedules Demotions;
  codegen::SpeculativeMaps Speculation;
  if (!api::detail::applyStaticVerify(
          *G, Entry, api::detail::effectiveStaticVerify(Opts), Diags, Gate,
          Demotions, Speculation))
    return Fail("static-verify gate");

  // NativeJitEngine::buildArtifact's options for this program.
  codegen::CodegenOptions &CO = S.CodegenOpts;
  CO.ParallelMaps =
      Opts.Parallelism != pipeline::ParallelismMode::Off && Cold.openmp();
  if (Opts.MinParallelWork)
    CO.MinParallelWork = Opts.MinParallelWork;
  if (Opts.MinInLoopParallelWork)
    CO.MinInLoopParallelWork = Opts.MinInLoopParallelWork;
  CO.Schedules = Demotions;
  CO.Speculative = Speculation;
  codegen::CodegenInfo Info;
  S.Source = timed(S, "codegen.emit",
                   [&] { return codegen::emitCpp(*G, Diags, CO, &Info); });
  if (S.Source.empty())
    return Fail("codegen");
  S.Counts["codegen.source_kb"] = S.Source.size() / 1024.0;
  S.Counts["codegen.parallel_maps"] = Info.ParallelMapsEmitted;
  S.Counts["codegen.atomics"] = Info.AtomicUpdates;

  void *H = timed(S, "exec.cxx",
                  [&] { return Cold.getOrCompile(S.Source, Diags); });
  if (!H)
    return Fail("exec");
  std::error_code EC;
  auto SoBytes =
      fs::file_size(fs::path(Cold.root()) / (Cold.keyFor(S.Source) + ".so"),
                    EC);
  S.Counts["exec.so_kb"] = EC ? 0.0 : SoBytes / 1024.0;
  S.Ok = true;
  return S;
}

void replayLoad(LayerSample &S, exec::JitCache &Warm, std::uint64_t Id) {
  DiagnosticEngine Diags;
  trace::Span Kernel("kernel.load", Id);
  void *H = timed(S, "exec.dlopen",
                  [&] { return Warm.getOrCompile(S.Source, Diags); });
  if (!H) {
    S.Ok = false;
    S.Error = "load failed: " + Diags.str();
  }
}

bool replayMatches(const LayerSample &S, const api::Program &P) {
  if (!P.graph())
    return false;
  DiagnosticEngine Diags;
  return codegen::emitCpp(*P.graph(), Diags, S.CodegenOpts) == S.Source;
}

void copyCacheRoot(const std::string &From, const std::string &To) {
  fs::create_directories(To);
  for (const auto &E : fs::directory_iterator(From)) {
    std::string Ext = E.path().extension().string();
    if (Ext == ".so" || E.path().filename() == "flag_tier")
      fs::copy_file(E.path(), fs::path(To) / E.path().filename(),
                    fs::copy_options::overwrite_existing);
  }
}

} // namespace bench
