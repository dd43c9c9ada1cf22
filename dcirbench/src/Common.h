//===- Common.h - shared plumbing of the benchmark driver ---------------------===//
//
// Options, seeded randomness, clocks, order statistics, the operation
// ledger (attempted / failed), and the result document the driver prints.
//
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_COMMON_H
#define DCIRBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

/// Command line of one run (see README.md for the flags).
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory of this run (reference objects, replay caches).
  std::string RunDir;
  /// Chrome trace output of a traced run (empty: not written).
  std::string TraceOut;
  /// Restricts the Polybench corpus to these names (self-tests).
  std::vector<std::string> Kernels;
  /// serving_mixed: exact requests per client instead of a time budget.
  long Requests = 0;
  /// Writes the generated inputs to this file and exits (self-tests).
  std::string DumpInputs;
  /// Only build the Programs once and print the set-up time.
  bool SetupOnly = false;
  /// Set-ups measured by other processes of this run: seconds, and the
  /// operations they attempted and failed.
  struct SetupRun {
    double Seconds = 0;
    std::uint64_t Attempted = 0, Failed = 0;
  };
  std::vector<SetupRun> ExtraSetup;
};

//===----------------------------------------------------------------------===//
// Seeded randomness
//===----------------------------------------------------------------------===//

std::uint64_t fnv64(const void *Data, std::size_t Len,
                    std::uint64_t H = 1469598103934665603ULL);
inline std::uint64_t fnv64(const std::string &S,
                           std::uint64_t H = 1469598103934665603ULL) {
  return fnv64(S.data(), S.size(), H);
}

/// splitmix64: the one generator every seeded decision draws from.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  /// An independent stream for (seed, tag): the same tag always yields the
  /// same stream, whatever else the run draws.
  Rng(std::uint64_t Seed, const std::string &Tag)
      : State(Seed ^ fnv64(Tag)) {}
  std::uint64_t next();
  /// Uniform in [Lo, Hi] (inclusive).
  std::int64_t range(std::int64_t Lo, std::int64_t Hi);
  double unit(); // [0, 1)
  template <typename T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  std::uint64_t State;
};

//===----------------------------------------------------------------------===//
// Time and order statistics
//===----------------------------------------------------------------------===//

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V);
/// Nearest-rank quantile \p Q of \p V.
double quantile(std::vector<double> V, double Q);
/// The tail the benchmark reports: the highest percentile with at least
/// ten samples beyond it (the 11th-largest sample), capped at p90: on the
/// shared host, higher percentiles of microsecond calls follow scheduler
/// outliers, not the program. \p Pct receives that percentile. Falls back
/// to the maximum below 11 samples.
double tail(std::vector<double> V, double *Pct = nullptr);
double geomean(const std::vector<double> &V);
/// Peak resident set size of this process in MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Operation ledger and result document
//===----------------------------------------------------------------------===//

/// Counts operations (one compile or one invocation each) and failures.
/// Thread-safe. The first few failure messages go to stderr.
class Ledger {
public:
  void ok() { ++Attempted; }
  /// Folds in operations counted by another process of the run.
  void add(std::uint64_t A, std::uint64_t F) {
    Attempted += A;
    Failed += F;
  }
  void fail(const std::string &What);
  /// A DCIR result outside 1e-9 relative of the reference (also a failure).
  void mismatch(const std::string &What);
  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }
  std::uint64_t mismatches() const { return Mismatches; }

private:
  std::atomic<std::uint64_t> Attempted{0}, Failed{0}, Mismatches{0};
};

/// True when \p Got is within 1e-9 relative of \p Want (normwise for
/// arrays: max |got - want| <= 1e-9 * max |want|).
bool closeScalar(double Got, double Want);
bool closeArray(const double *Got, const double *Want, std::size_t N);

/// The metrics one run reports, in insertion order.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// A human-readable line on stdout (everything before the final JSON).
  static void note(const char *Fmt, ...)
      __attribute__((format(printf, 1, 2)));
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  void printJson(bool Correct, const Ledger &L) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> M;
};

/// Pins the calling thread, while alive, to the (\p Turn mod N)-th of the N
/// CPUs it may run on, and restores its CPU set afterwards. Repeated
/// single-threaded measurements rotate over the CPUs with it.
class CpuRotation {
public:
  explicit CpuRotation(int Turn);
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

private:
  std::vector<unsigned char> Saved; // The thread's cpu_set_t.
};

/// Runs Fn(0..N-1) on up to \p Jobs threads and waits for all of them.
void parallelFor(std::size_t N, unsigned Jobs,
                 const std::function<void(std::size_t)> &Fn);

/// Worker threads used to build Programs during set-up: min(4, nproc).
unsigned setupJobs();

std::string readFile(const std::string &Path);
void writeFile(const std::string &Path, const std::string &Data);

} // namespace bench

#endif // DCIRBENCH_COMMON_H
