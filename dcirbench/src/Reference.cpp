//===- Reference.cpp - the independent correctness oracle ---------------------===//

#include "Reference.h"

#include "Common.h"

#include <cstdlib>
#include <stdexcept>

#include <dlfcn.h>
#include <pthread.h>
#include <spawn.h>
#include <sys/wait.h>

extern char **environ;

namespace bench {

std::string hostCc() {
  const char *Cc = std::getenv("CC");
  return Cc && *Cc ? Cc : "cc";
}

std::vector<void *> buildReferences(const std::vector<RefUnit> &Units,
                                    const std::string &Dir, unsigned Jobs,
                                    std::vector<std::string> &Errors) {
  std::vector<void *> Entries(Units.size(), nullptr);
  Errors.assign(Units.size(), "");
  const std::string Cc = hostCc();
  parallelFor(Units.size(), Jobs, [&](std::size_t I) {
    const RefUnit &U = Units[I];
    std::string Src = Dir + "/" + U.Name + ".c";
    std::string So = Dir + "/" + U.Name + ".so";
    writeFile(Src, U.Source);
    // math.h is force-included: the workloads call libm functions without
    // declaring them, which C11 does not allow.
    std::vector<std::string> Args = {Cc,       "-std=c11", "-O2", "-fPIC",
                                     "-shared", "-include", "math.h",
                                     "-w",      "-o", So,   Src,  "-lm"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    pid_t Pid;
    int Status = 0;
    if (posix_spawnp(&Pid, Cc.c_str(), nullptr, nullptr, Argv.data(),
                     environ) != 0 ||
        waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0) {
      Errors[I] = "host C compiler failed on " + Src;
      return;
    }
    void *H = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!H) {
      const char *E = dlerror();
      Errors[I] = std::string("dlopen failed: ") + (E ? E : "?");
      return;
    }
    Entries[I] = dlsym(H, U.Entry.c_str());
    if (!Entries[I])
      Errors[I] = "entry " + U.Entry + " not found in " + So;
  });
  return Entries;
}

void onLargeStack(const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, std::size_t(1) << 30);
  pthread_t T;
  auto *Arg = const_cast<std::function<void()> *>(&Fn);
  auto Trampoline = [](void *P) -> void * {
    (*static_cast<std::function<void()> *>(P))();
    return nullptr;
  };
  if (pthread_create(&T, &Attr, Trampoline, Arg) != 0) {
    pthread_attr_destroy(&Attr);
    throw std::runtime_error("cannot start the large-stack thread");
  }
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
}

} // namespace bench
