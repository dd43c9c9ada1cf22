//===- Trace.cpp - the benchmark's own span recorder --------------------------===//

#include "Trace.h"

#include "Common.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

namespace bench {
namespace trace {
namespace {

/// Spans kept per thread for the trace file; totals keep counting beyond.
constexpr std::size_t MaxStoredSpans = 20000;

struct Stored {
  const char *Name;
  std::int64_t Start, End;
  std::uint64_t Seq, Parent, Id;
};

struct Open {
  const char *Name;
  std::int64_t Start;
  std::uint64_t Seq, Id;
  std::int64_t ChildNs = 0;
};

struct ThreadBuf {
  int Tid = 0;
  std::uint64_t NextSeq = 1;
  std::vector<Open> Stack;
  std::vector<Stored> Done;
  std::map<std::string, SpanTotals> Totals;
};

std::atomic<bool> Enabled{false};
std::mutex RegistryMu;
std::vector<std::shared_ptr<ThreadBuf>> Registry;

ThreadBuf &local() {
  thread_local std::shared_ptr<ThreadBuf> TB;
  if (!TB) {
    TB = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> Lock(RegistryMu);
    TB->Tid = static_cast<int>(Registry.size()) + 1;
    Registry.push_back(TB);
  }
  return *TB;
}

void appendEscaped(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
}

} // namespace

void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
bool enabled() { return Enabled.load(std::memory_order_relaxed); }

Span::Span(const char *Name, std::uint64_t Id)
    : Active(enabled()), Start(nowNs()) {
  if (!Active)
    return;
  ThreadBuf &TB = local();
  // Spans of one request share its id: children inherit it.
  if (!Id && !TB.Stack.empty())
    Id = TB.Stack.back().Id;
  TB.Stack.push_back(Open{Name, Start, TB.NextSeq++, Id});
}

Span::~Span() {
  if (!Active)
    return;
  std::int64_t End = nowNs();
  ThreadBuf &TB = local();
  Open O = TB.Stack.back();
  TB.Stack.pop_back();
  std::int64_t Dur = End - O.Start;
  std::uint64_t Parent = 0;
  if (!TB.Stack.empty()) {
    TB.Stack.back().ChildNs += Dur;
    Parent = TB.Stack.back().Seq;
  }
  SpanTotals &T = TB.Totals[O.Name];
  ++T.Count;
  T.TotalMs += Dur * 1e-6;
  T.SelfMs += (Dur - O.ChildNs) * 1e-6;
  if (TB.Done.size() < MaxStoredSpans)
    TB.Done.push_back(Stored{O.Name, O.Start, End, O.Seq, Parent, O.Id});
}

std::int64_t Span::elapsedNs() const { return nowNs() - Start; }

std::map<std::string, SpanTotals> totals() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::map<std::string, SpanTotals> Out;
  for (const auto &TB : Registry)
    for (const auto &[Name, T] : TB->Totals) {
      SpanTotals &O = Out[Name];
      O.Count += T.Count;
      O.TotalMs += T.TotalMs;
      O.SelfMs += T.SelfMs;
    }
  return Out;
}

void writeChrome(const std::string &Path, const std::string &OtherData) {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::int64_t Origin = INT64_MAX;
  for (const auto &TB : Registry)
    for (const Stored &S : TB->Done)
      Origin = std::min(Origin, S.Start);
  std::string Out = "{\"otherData\": " + OtherData +
                    ",\n\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool First = true;
  char Buf[256];
  for (const auto &TB : Registry)
    for (const Stored &S : TB->Done) {
      Out += First ? "" : ",\n";
      First = false;
      Out += "{\"name\": \"";
      appendEscaped(Out, S.Name);
      std::snprintf(Buf, sizeof(Buf),
                    "\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, "
                    "\"parent\": %llu, \"id\": %llu}}",
                    static_cast<int>(getpid()), TB->Tid,
                    (S.Start - Origin) * 1e-3, (S.End - S.Start) * 1e-3,
                    static_cast<unsigned long long>(S.Seq),
                    static_cast<unsigned long long>(S.Parent),
                    static_cast<unsigned long long>(S.Id));
      Out += Buf;
    }
  Out += "\n]}\n";
  writeFile(Path, Out);
}

} // namespace trace
} // namespace bench
