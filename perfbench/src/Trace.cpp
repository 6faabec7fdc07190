//===- perfbench/src/Trace.cpp - Spans around calls into the stack --------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Bench:
    return "bench";
  case Layer::Ocl:
    return "ocl";
  case Layer::Jit:
    return "jit";
  case Layer::Accelos:
    return "accelos";
  case Layer::Sim:
    return "sim";
  case Layer::Ek:
    return "ek";
  case Layer::Cluster:
    return "cluster";
  case Layer::Harness:
    return "harness";
  case Layer::Metrics:
    return "metrics";
  case Layer::Workloads:
    return "workloads";
  }
  return "?";
}

size_t SpanLog::open(Layer L, const char *Name, int64_t Request) {
  Span S;
  S.L = L;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
  S.Request = Request;
  Spans.push_back(S);
  Open.push_back(Spans.size() - 1);
  // Stamp last so the push itself is not charged to the span.
  Spans.back().StartNs = nowNs();
  return Spans.size() - 1;
}

void SpanLog::close(size_t Idx) {
  Spans[Idx].EndNs = nowNs();
  Open.pop_back();
}

SpanLog &Tracer::newLog() {
  std::lock_guard<std::mutex> Lock(Mu);
  Logs.emplace_back(static_cast<uint32_t>(Logs.size()));
  return Logs.back();
}

std::array<double, NumLayers> selfSeconds(const SpanLog &Log,
                                          const char *Root) {
  const std::vector<Span> &Spans = Log.spans();
  // Children always follow their parent, so one forward pass can both
  // resolve each span's root and charge its duration to the parent.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  std::vector<int32_t> RootOf(Spans.size(), -1);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    RootOf[I] = S.Parent < 0 ? static_cast<int32_t>(I) : RootOf[S.Parent];
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  }
  std::array<double, NumLayers> Out{};
  for (size_t I = 0; I != Spans.size(); ++I) {
    if (std::strcmp(Spans[RootOf[I]].Name, Root) != 0)
      continue;
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    uint64_t Self = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
    Out[static_cast<size_t>(Spans[I].L)] += static_cast<double>(Self) * 1e-9;
  }
  return Out;
}

std::array<double, NumLayers> Tracer::selfSeconds(const char *Root) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::array<double, NumLayers> Out{};
  for (const SpanLog &Log : Logs) {
    std::array<double, NumLayers> S = perfbench::selfSeconds(Log, Root);
    for (size_t L = 0; L != NumLayers; ++L)
      Out[L] += S[L];
  }
  return Out;
}

size_t Tracer::numSpans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const SpanLog &Log : Logs)
    N += Log.spans().size();
  return N;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const SpanLog &Log : Logs)
    for (const Span &S : Log.spans())
      Origin = std::min(Origin, S.StartNs);
  std::fputs("[\n", F);
  bool First = true;
  for (const SpanLog &Log : Logs)
    for (const Span &S : Log.spans()) {
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"request\":%lld,\"parent\":%d}}",
                   First ? "" : ",\n", S.Name, layerName(S.L),
                   static_cast<double>(S.StartNs - Origin) * 1e-3,
                   static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
                   Log.thread(), static_cast<long long>(S.Request),
                   S.Parent);
      First = false;
    }
  std::fputs("\n]\n", F);
  return std::fclose(F) == 0;
}

size_t TimedPlacement::place(const accel::cluster::PlacementRequest &Req) {
  SpanScope S(Log, Layer::Cluster, "place");
  uint64_t T0 = nowNs();
  size_t D = Inner.place(Req);
  PlaceNs += nowNs() - T0;
  ++PlaceCalls;
  return D;
}

std::optional<size_t> TimedPlacement::suggestMigration(
    const accel::cluster::PlacementRequest &Req, size_t Current) {
  SpanScope S(Log, Layer::Cluster, "suggestMigration");
  uint64_t T0 = nowNs();
  std::optional<size_t> D = Inner.suggestMigration(Req, Current);
  SuggestNs += nowNs() - T0;
  ++SuggestCalls;
  return D;
}

void TimedPlacement::onAttach() {
  std::vector<double> Rates;
  std::vector<bool> Alive;
  for (const accel::cluster::DeviceLoad &L : loads()) {
    Rates.push_back(L.ServiceRate);
    Alive.push_back(L.Alive);
  }
  Inner.attach(std::move(Rates), Alive);
  PlaceCalls = PlaceNs = SuggestCalls = SuggestNs = 0;
}

} // namespace perfbench
