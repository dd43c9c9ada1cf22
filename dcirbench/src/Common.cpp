//===- Common.cpp - shared plumbing of the benchmark driver -------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace bench {

std::uint64_t fnv64(const void *Data, std::size_t Len, std::uint64_t H) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return H;
}

std::uint64_t Rng::next() {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::int64_t Rng::range(std::int64_t Lo, std::int64_t Hi) {
  return Lo + static_cast<std::int64_t>(
                  next() % static_cast<std::uint64_t>(Hi - Lo + 1));
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::size_t Rank = std::min(V.size() - 1,
                              static_cast<std::size_t>(Q * V.size()));
  std::nth_element(V.begin(), V.begin() + Rank, V.end());
  return V[Rank];
}

double tail(std::vector<double> V, double *Pct) {
  if (V.empty()) {
    if (Pct)
      *Pct = 0.0;
    return 0.0;
  }
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  // Rank of the sample with ten beyond it, but never past p90.
  std::size_t Idx = N > 10 ? std::min(N - 11, N * 9 / 10) : N - 1;
  if (Pct)
    *Pct = 100.0 * static_cast<double>(Idx + 1) / N;
  return V[Idx];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0.0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void Ledger::fail(const std::string &What) {
  ++Attempted;
  if (Failed++ < 10)
    std::fprintf(stderr, "dcirbench: FAILED %s\n", What.c_str());
}

void Ledger::mismatch(const std::string &What) {
  ++Mismatches;
  fail("result mismatch: " + What);
}

bool closeScalar(double Got, double Want) {
  return std::fabs(Got - Want) <= 1e-9 * std::max(std::fabs(Want), 1e-300);
}

bool closeArray(const double *Got, const double *Want, std::size_t N) {
  double MaxErr = 0.0, MaxRef = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    double Err = std::fabs(Got[I] - Want[I]);
    if (!(Err <= MaxErr)) // A NaN error fails the comparison.
      MaxErr = std::isnan(Err) ? INFINITY : Err;
    MaxRef = std::max(MaxRef, std::fabs(Want[I]));
  }
  return MaxErr <= 1e-9 * std::max(MaxRef, 1e-300);
}

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (auto &E : M)
    if (E.first == Name) {
      E.second = {Value, Unit};
      return;
    }
  M.push_back({Name, {Value, Unit}});
}

void Report::note(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  std::vprintf(Fmt, Ap);
  va_end(Ap);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::printJson(bool Correct, const Ledger &L) const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(L.attempted(), 1)
     << ", \"failed\": " << L.failed() << ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, VU] : M) {
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Buf
       << ", \"unit\": \"" << VU.second << "\"}";
    First = false;
  }
  OS << "}}";
  std::printf("%s\n", OS.str().c_str());
  std::fflush(stdout);
}

CpuRotation::CpuRotation(int Turn) : Saved(sizeof(cpu_set_t)) {
  auto *Old = reinterpret_cast<cpu_set_t *>(Saved.data());
  if (pthread_getaffinity_np(pthread_self(), sizeof(cpu_set_t), Old) != 0) {
    Saved.clear();
    return;
  }
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, Old))
      Cpus.push_back(C);
  if (Cpus.empty())
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[static_cast<std::size_t>(Turn) % Cpus.size()], &One);
  pthread_setaffinity_np(pthread_self(), sizeof(One), &One);
}

CpuRotation::~CpuRotation() {
  if (!Saved.empty())
    pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                           reinterpret_cast<cpu_set_t *>(Saved.data()));
}

void parallelFor(std::size_t N, unsigned Jobs,
                 const std::function<void(std::size_t)> &Fn) {
  std::atomic<std::size_t> Next{0};
  auto Worker = [&] {
    for (std::size_t I; (I = Next++) < N;)
      Fn(I);
  };
  std::vector<std::thread> Ts;
  for (unsigned J = 1; J < std::max(1u, Jobs) && J < N; ++J)
    Ts.emplace_back(Worker);
  Worker();
  for (std::thread &T : Ts)
    T.join();
}

unsigned setupJobs() {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<unsigned>(std::clamp<long>(N, 1, 4));
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Data;
}

} // namespace bench
