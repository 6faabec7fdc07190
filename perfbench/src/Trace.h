//===- perfbench/src/Trace.h - Spans around calls into the stack -*- C++-*-===//
///
/// \file
/// The benchmark's tracing: a span (layer, name, start, end, parent,
/// request id) around each call the benchmark makes into a module of
/// the library. Spans are recorded only from the benchmark's own code,
/// never from inside src/. Each thread appends to its own SpanLog, so
/// recording takes no lock; logs stay in memory until the run ends.
/// A null SpanLog pointer disables recording at the cost of a branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "cluster/Fleet.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The library modules the benchmark calls into, plus the benchmark's
/// own code (output checks, digests). The kir interpreter has no entry
/// here: it runs inside Runtime::wait, so the benchmark attributes it
/// through ExecStats counts instead of spans.
enum class Layer : uint8_t {
  Bench,
  Ocl,
  Jit, ///< minicl front end + passes, reached through createProgram or
       ///< the ExperimentDriver/Fleet build.
  Accelos,
  Sim,
  Ek,
  Cluster,
  Harness,
  Metrics,
  Workloads,
};
constexpr size_t NumLayers = 10;

const char *layerName(Layer L);

/// Host time in nanoseconds on the monotonic clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  Layer L = Layer::Bench;
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;  ///< Index of the enclosing span in the same log.
  int64_t Request = -1; ///< Request id, or -1 when the call serves none.
};

/// One thread's spans. Not thread-safe: each thread owns its log.
class SpanLog {
public:
  explicit SpanLog(uint32_t Thread) : Thread(Thread) {}

  size_t open(Layer L, const char *Name, int64_t Request);
  void close(size_t Idx);

  uint32_t thread() const { return Thread; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  uint32_t Thread;
  std::vector<Span> Spans;
  std::vector<size_t> Open; ///< Stack of unclosed span indices.
};

/// RAII span; a no-op when \p Log is null.
class SpanScope {
public:
  SpanScope(SpanLog *Log, Layer L, const char *Name, int64_t Request = -1)
      : Log(Log), Idx(Log ? Log->open(L, Name, Request) : 0) {}
  ~SpanScope() {
    if (Log)
      Log->close(Idx);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
  size_t Idx;
};

/// Owns the per-thread logs of one run.
class Tracer {
public:
  /// A fresh log for a new thread. The reference stays valid for the
  /// tracer's lifetime. Thread-safe.
  SpanLog &newLog();

  /// Self time per layer in seconds: each span's duration minus the
  /// part its child spans cover, summed by layer over every log. Only
  /// spans inside a top-level span named \p Root count (the benchmark
  /// opens one per measured repetition or client loop), so set-up is
  /// left to its own metrics.
  std::array<double, NumLayers> selfSeconds(const char *Root) const;

  size_t numSpans() const;

  /// Writes every span as a Chrome trace-event JSON array ("X" events,
  /// one track per thread), readable by Perfetto or chrome://tracing.
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::deque<SpanLog> Logs; ///< Reference-stable.
};

/// Self time per layer of the spans in \p Log under top-level spans
/// named \p Root, in seconds.
std::array<double, NumLayers> selfSeconds(const SpanLog &Log,
                                          const char *Root);

/// A placement decorator: forwards every lifecycle notification and
/// decision to \p Inner, and times the two decisions (place and
/// suggestMigration). The inner policy sees exactly the event sequence
/// it would see undecorated, so its decisions — and the replay's
/// schedule — are unchanged.
class TimedPlacement final : public accel::cluster::PlacementPolicy {
public:
  TimedPlacement(accel::cluster::PlacementPolicy &Inner, SpanLog *Log)
      : Inner(Inner), Log(Log) {}

  size_t place(const accel::cluster::PlacementRequest &Req) override;
  std::optional<size_t>
  suggestMigration(const accel::cluster::PlacementRequest &Req,
                   size_t Current) override;
  const char *name() const override { return Inner.name(); }

  uint64_t PlaceCalls = 0;
  uint64_t PlaceNs = 0;
  uint64_t SuggestCalls = 0;
  uint64_t SuggestNs = 0;

protected:
  void onAttach() override;
  void onAdmit(size_t Device, double Cost) override {
    Inner.admitTo(Device, Cost);
  }
  void onComplete(size_t Device, double DrainedCost, bool Finished) override {
    Inner.completeOn(Device, DrainedCost, Finished);
  }
  void onWithdraw(size_t Device, double RemainingCost) override {
    Inner.withdrawFrom(Device, RemainingCost);
  }
  void onDeviceDown(size_t Device) override { Inner.deviceDown(Device); }
  void onDeviceUp(size_t Device) override { Inner.deviceUp(Device); }

private:
  accel::cluster::PlacementPolicy &Inner;
  SpanLog *Log;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
