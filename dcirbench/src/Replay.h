//===- Replay.h - the traced run's layer-by-layer compile ---------------------===//
//
// Replays what api::Compiler + Program::create do for one kernel by calling
// each layer's public function itself, under a benchmark span per call:
//
//   frontend::compileCToModule          frontend.parse
//   passes::PassManager::run            passes.mlir (DCIR's MLIR pass list)
//   conversion::convertToSdfgDialect    conversion.dialect
//   conversion::translateToSDFG         conversion.translate
//   api::detail::optimizeGraph          sdfgopt.optimize
//   analysis::analyze                   analysis.analyze
//   codegen::emitCpp                    codegen.emit
//   exec::JitCache::getOrCompile        exec.cxx (empty root), exec.dlopen
//                                       (second cache on a copied root)
//
// The replayed source is then compared byte for byte with what codegen
// emits for the Program's own graph under the same options, so a replay
// that drifted from the real pipeline is reported, not measured.
//
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_REPLAY_H
#define DCIRBENCH_REPLAY_H

#include "codegen/CppCodegen.h"
#include "exec/JitCache.h"
#include "pipeline/PipelineTypes.h"

#include <cstdint>
#include <map>
#include <string>

namespace dcir {
namespace api {
class Program;
}
} // namespace dcir

namespace bench {

/// One kernel's replay: milliseconds per layer call and the layer counts.
struct LayerSample {
  bool Ok = false;
  std::string Error;
  std::map<std::string, double> Ms;          // Span name -> milliseconds.
  std::map<std::string, double> Counts;      // Metric name -> count.
  std::string Source;                        // What codegen emitted.
  dcir::codegen::CodegenOptions CodegenOpts; // ... under these options.
};

/// Replays the compile of \p Entry in \p Source under \p Opts up to and
/// including the host compile into \p Cold. \p Id tags the spans.
LayerSample replayCompile(const std::string &Source, const std::string &Entry,
                          const dcir::pipeline::CompileOptions &Opts,
                          dcir::exec::JitCache &Cold, std::uint64_t Id);

/// Times the load of \p S's artifact through \p Warm, a second cache over a
/// copy of the cold root (a disk hit: read, dlopen, no compiler).
void replayLoad(LayerSample &S, dcir::exec::JitCache &Warm, std::uint64_t Id);

/// True when codegen emits, for the Program's own graph under the replay's
/// options, exactly the replayed source.
bool replayMatches(const LayerSample &S, const dcir::api::Program &P);

/// Copies the artifacts and flag memo of root \p From into \p To.
void copyCacheRoot(const std::string &From, const std::string &To);

} // namespace bench

#endif // DCIRBENCH_REPLAY_H
