//===- accelos/AdmissionLoop.h - Shared continuous-admission loop -*-C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission machinery shared by the serving-harness replays
/// (harness::runStream, runClosedLoop, runClusterReplay and the paper's
/// batch experiments) and the functional Runtime's continuous pump:
/// quantum-bounded slice sizing, the one builder that turns a grant
/// into a work-queue slice launch, and the grant -> slice-launch ->
/// shrink -> admitFrom pass over an AdmissionScheduler (continuous or
/// stride) and a persistent engine session. The API layer and the
/// replay harness admit work through literally the same code.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_ACCELOS_ADMISSIONLOOP_H
#define ACCEL_ACCELOS_ADMISSIONLOOP_H

#include "accelos/AdaptivePolicy.h"
#include "accelos/Scheduler.h"
#include "sim/Engine.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace accel {
namespace accelos {

/// Computes the end of the quantum-bounded slice [Cursor, End) of a
/// virtual work range. The thread-cycle budget is derived from the
/// physical work groups that will actually run — \p GrantWGs capped to
/// the remaining virtual groups — so tail slices (fewer groups left
/// than granted workers) do not overrun the quantum the way a budget
/// computed from the uncapped grant would. Always takes at least one
/// group; \p Quantum <= 0 disables slicing (returns the full range).
size_t quantumSliceEnd(const std::vector<double> &WGCosts, size_t Cursor,
                       uint64_t GrantWGs, uint64_t WGThreads,
                       double IssueEfficiency, double Quantum);

/// Builds the next accelOS work-queue slice launch of a kernel whose
/// virtual groups cost \p Costs, for a grant of \p GrantWGs physical
/// work groups, and advances \p Cursor past it. The slice decision is
/// the quantum-bounded slice end (quantumSliceEnd over \p Quantum), a
/// view window [Cursor, End) borrowing \p Costs (which must outlive the
/// launch), the physical WGs capped to the slice, and the \p Mode batch
/// re-capped against the slice, so every granted physical WG can still
/// dequeue at least one batch. The launch takes its per-WG footprint
/// from \p Shape (RequestedWGs and Weight unused) and \p
/// IssueEfficiency; the caller sets its Name, AppId and ArrivalTime.
sim::KernelLaunchDesc sliceLaunch(const KernelDemand &Shape,
                                  double IssueEfficiency, uint64_t InstCount,
                                  const std::vector<double> &Costs,
                                  size_t &Cursor, uint64_t GrantWGs,
                                  SchedulingMode Mode, double Quantum);

/// One continuous-admission pass over \p Sched at the current event:
/// every grant is turned into a slice launch by \p MakeSlice(Id, WGs)
/// and admitted into \p Session through the reused \p LaunchBuf.
/// MakeSlice returns std::nullopt when the grant carries no launch — a
/// request with no remaining work, which MakeSlice retires itself, or a
/// caller that failed the request. A slice that runs fewer physical
/// work groups than granted (a quantum tail) returns the unused
/// reservation via shrink(). \returns true when the pass itself freed
/// capacity and must re-run at this same instant; each re-pass needs a
/// fresh shrink, so the caller's loop terminates.
template <typename MakeSliceFn>
inline bool runAdmissionPass(AdmissionScheduler &Sched,
                             sim::EngineSession &Session,
                             std::vector<sim::KernelLaunchDesc> &LaunchBuf,
                             MakeSliceFn &&MakeSlice) {
  bool Repass = false;
  LaunchBuf.clear();
  for (const RoundGrant &G : Sched.admit()) {
    std::optional<sim::KernelLaunchDesc> L = MakeSlice(G.Id, G.WGs);
    if (!L)
      continue;
    // A tail slice runs fewer physical WGs than granted; return the
    // unused reservation and re-admit at this same instant so waiting
    // requests can take it.
    if (L->PhysicalWGs < G.WGs) {
      Sched.shrink(G.Id, L->PhysicalWGs);
      Repass = true;
    }
    LaunchBuf.push_back(std::move(*L));
  }
  if (!LaunchBuf.empty())
    Session.admitFrom(LaunchBuf);
  return Repass;
}

} // namespace accelos
} // namespace accel

#endif // ACCEL_ACCELOS_ADMISSIONLOOP_H
