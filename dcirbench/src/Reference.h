//===- Reference.h - the independent correctness oracle -----------------------===//
//
// Every workload source is also compiled unchanged by the host C compiler
// in ISO C mode (`-std=c11 -O2`: no FP contraction, so results agree with
// the JIT's -ffp-contract=off code to rounding) and called through dlopen.
// Calls run on a thread with a large stack: at 8x MINI the Polybench
// kernels' stack arrays overflow the default 8 MB.
//
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_REFERENCE_H
#define DCIRBENCH_REFERENCE_H

#include <functional>
#include <string>
#include <vector>

namespace bench {

struct RefUnit {
  std::string Name;   // File stem under the reference directory.
  std::string Source; // C source, compiled as is.
  std::string Entry;  // Symbol to resolve.
};

/// The host C compiler: $CC, else `cc`.
std::string hostCc();

/// Compiles each unit to `<Dir>/<Name>.so` (at most \p Jobs compilers at
/// once), loads it and resolves its entry. Entry I is null when unit I
/// failed; \p Errors[I] then says why.
std::vector<void *> buildReferences(const std::vector<RefUnit> &Units,
                                    const std::string &Dir, unsigned Jobs,
                                    std::vector<std::string> &Errors);

/// Runs \p Fn on a fresh thread with a 1 GiB stack and waits for it.
void onLargeStack(const std::function<void()> &Fn);

} // namespace bench

#endif // DCIRBENCH_REFERENCE_H
