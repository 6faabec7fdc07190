//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++-*-===//
///
/// \file
/// Each workload generates its inputs from the seed, sets up several
/// times (reporting the median set-up time), measures repetitions of a
/// fixed, seed-determined amount of work until the time budget is spent,
/// checks every output, and fills a Report. The simulated (sim_*)
/// metrics and the schedule digest depend only on the seed; host-time
/// metrics are medians over repetitions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"
#include "Trace.h"

#include "harness/Streaming.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: spans are recorded in alternate repetitions and the
  /// per-layer metrics are reported.
  bool Traced = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty
  /// writes nothing.
  std::string TracePath;
  /// Test hook for runtime-clients: corrupt the host copy of this many
  /// result buffers after reading them back, so the output check must
  /// count them as failed.
  unsigned CorruptBuffers = 0;
};

void runScaleOpen(const RunConfig &Cfg, Report &R);
void runFleetOutage(const RunConfig &Cfg, Report &R);
void runRuntimeClients(const RunConfig &Cfg, Report &R);
void runPaperMixes(const RunConfig &Cfg, Report &R);

/// Repetitions of the measured phase: at least \p MinReps, then until
/// \p Seconds of host time have passed since \p StartNs.
inline bool keepMeasuring(size_t Done, size_t MinReps, uint64_t StartNs,
                          double Seconds) {
  return Done < MinReps ||
         static_cast<double>(nowNs() - StartNs) * 1e-9 < Seconds;
}

/// Host time of the measured phase, kept per unit of work (one replay
/// or runWorkload call, a few milliseconds to a tenth of a second). A
/// shared host stalls the benchmark now and then for tens of
/// milliseconds, and only ever slows it down, so each unit's fastest run
/// over the repetitions is its undisturbed time. Host rates come from
/// the sum of those times.
class UnitTimes {
public:
  explicit UnitTimes(size_t Units);

  void add(size_t Unit, double Seconds, bool Traced);
  /// The unit's fastest untraced run.
  double fastest(size_t Unit) const { return Best[0][Unit]; }
  /// The sum of every unit's fastest untraced (or traced) run.
  double undisturbedSeconds(bool Traced = false) const;
  /// Sets requests_per_s from \p Requests per pass over the units, or in
  /// a traced run the traced/untraced rate ratio.
  void report(const RunConfig &Cfg, double Requests, Report &R) const;

private:
  std::vector<double> Best[2]; ///< Untraced, traced.
  size_t Runs = 0;
};

/// Feeds each request's start, end and placement (0 when \p Placement is
/// null) into \p D: the schedule digest of a replay.
void digestSchedule(const accel::harness::StreamOutcome &O,
                    const std::vector<size_t> *Placement, Digest &D);

/// Ends a traced run: records the per-layer self times of the measured
/// phase (spans under top-level "measure" spans) per traced request,
/// marks every per-layer metric the workload did not set as n/a, and
/// writes the spans to Cfg.TracePath.
void finishTraced(const RunConfig &Cfg, const Tracer &T,
                  double TracedRequests, Report &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
