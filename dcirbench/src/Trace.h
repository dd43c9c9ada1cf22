//===- Trace.h - the benchmark's own span recorder ----------------------------===//
//
// Spans are recorded around each call the benchmark makes into a layer:
// name, start, end, parent span and an id (one per kernel compile or per
// call). They stay in memory and are written as Chrome trace JSON at the
// end of the run. Every finished span also folds into per-name totals of
// duration and self time (duration minus the time its child spans cover),
// so totals stay exact even when the stored spans hit their cap.
//
// Disabled (the untraced run), a span costs a clock read and a relaxed
// atomic load.
//
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_TRACE_H
#define DCIRBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>

namespace bench {

struct SpanTotals {
  std::uint64_t Count = 0;
  double TotalMs = 0.0;
  double SelfMs = 0.0;
};

namespace trace {

void enable(bool On);
bool enabled();

/// RAII span on the calling thread; nests under the thread's open span.
/// \p Name must outlive the run (string literals).
class Span {
public:
  explicit Span(const char *Name, std::uint64_t Id = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  /// Wall time of this span so far, in nanoseconds.
  std::int64_t elapsedNs() const;

private:
  bool Active;
  std::int64_t Start;
};

/// Per-name totals over every thread (call after worker threads joined).
std::map<std::string, SpanTotals> totals();
/// Writes the stored spans as Chrome trace JSON; \p OtherData is a JSON
/// object embedded as "otherData" (host facts).
void writeChrome(const std::string &Path, const std::string &OtherData);

} // namespace trace
} // namespace bench

#endif // DCIRBENCH_TRACE_H
