//===- harness/ReplayDetail.h - Shared streaming replay machinery -*-C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-level machinery behind the serving loops, shared by the
/// single-device FIFO and round-barrier replays (harness::runStream /
/// runClosedLoop, and through runStream the paper's batch experiments)
/// and the continuous replay core (harness::runClusterReplay, which
/// also serves the single-device accelOS continuous and stride modes):
/// the arrival source every loop pops its workload from, per-request
/// slice progress, and the demand/slice-launch bookkeeping handed to
/// the schedulers. Slice launches themselves come from
/// accelos::sliceLaunch, the builder the functional Runtime uses too.
/// Internal to the library — everything lives in harness::detail and
/// the types leak no ABI promises.
///
/// Every materialized request carries its *own* ExperimentDriver (the
/// compiled view of the device it was placed on), so demands, slice
/// launches, and isolated baselines all come from the device that
/// actually serves the request.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_REPLAYDETAIL_H
#define ACCEL_HARNESS_REPLAYDETAIL_H

#include "accelos/AdmissionLoop.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Scheduler.h"
#include "cluster/ClusterHarness.h"
#include "harness/Streaming.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace accel {
namespace harness {
namespace detail {

/// Per-request progress while its work is still in flight. accelOS
/// requests may execute across several grants (work slicing), so the
/// first-dispatch and last-completion times accumulate here.
struct LiveRequest {
  size_t Cursor = 0; ///< Next unexecuted virtual group.
  bool Started = false;
  double Start = 0;
  double End = 0;
};

/// The request-level machinery shared by every replay loop: the
/// materialized request list, per-request slice progress, and the
/// demand/launch builders handed to the schedulers. Trace grows as the
/// ArrivalSource materializes requests; every accessor indexes it
/// afresh.
class ReplayState {
public:
  ReplayState(const StreamOptions &Opts, accelos::SchedulingMode Mode,
              StreamOutcome &Out)
      : Opts(Opts), Mode(Mode), Out(Out) {}

  std::vector<workloads::TimedRequest> Trace;
  std::vector<LiveRequest> Live;

  /// Scratch buffers for the steady-state serving loops: admissionPass
  /// refills LaunchBuf and hands it to EngineSession::admitFrom, and
  /// the replay loops read completions through advanceTo(T,
  /// CompletionBuf) — one allocation per high-water mark instead of
  /// one per event.
  std::vector<sim::KernelLaunchDesc> LaunchBuf;
  std::vector<sim::KernelExecResult> CompletionBuf;

  /// Routes tenant-weight lookups through the SLO controller for the
  /// rest of the run (adaptive closed loop); new and requeued
  /// submissions then pick up whatever the control law last decided.
  void adoptController(const accelos::SloWeightController *C) { Ctl = C; }

  double weightOf(int Tenant) const {
    if (Ctl)
      return Ctl->weight(Tenant);
    auto It = Opts.Weights.find(Tenant);
    return It == Opts.Weights.end() ? 1.0 : It->second;
  }

  /// Appends one materialized request placed on \p D's device: demand,
  /// slice launches, and the isolated baseline all come from \p D. The
  /// driver must outlive the replay. \returns its global index.
  size_t append(const workloads::TimedRequest &R, ExperimentDriver &D) {
    size_t Idx = Trace.size();
    Trace.push_back(R);
    Live.emplace_back();
    Drivers.push_back(&D);
    double Cost = 0;
    for (double C : D.kernel(R.KernelIdx).WGCosts)
      Cost += C;
    RemainingCostOf.push_back(Cost);
    StreamRequestResult Res;
    Res.RequestIdx = Idx;
    Res.Tenant = R.Tenant;
    Res.Kernel = D.kernel(R.KernelIdx).Spec->Id;
    Res.ArrivalTime = R.ArrivalTime;
    Res.AloneDuration =
        D.isolatedDuration(SchedulerKind::Baseline, R.KernelIdx);
    Out.Requests.push_back(std::move(Res));
    return Idx;
  }

  /// The driver (device view) serving request \p Idx.
  ExperimentDriver &driverOf(size_t Idx) const { return *Drivers[Idx]; }

  /// The Sec. 3 demand of request \p Idx, narrowed to what is left of
  /// its virtual range (a sliced request re-enters the queue asking
  /// only for the remainder) and weighted by its tenant.
  accelos::KernelDemand demandOf(size_t Idx) const {
    const workloads::TimedRequest &Req = Trace[Idx];
    ExperimentDriver &D = driverOf(Idx);
    accelos::KernelDemand Demand = D.demandFor(Req.KernelIdx);
    Demand.RequestedWGs =
        D.kernel(Req.KernelIdx).WGCosts.size() - Live[Idx].Cursor;
    Demand.Weight = weightOf(Req.Tenant);
    return Demand;
  }

  size_t remainingGroups(size_t Idx) const {
    return driverOf(Idx).kernel(Trace[Idx].KernelIdx).WGCosts.size() -
           Live[Idx].Cursor;
  }

  /// Cost, in thread-cycles, of request \p Idx's not-yet-executed
  /// virtual groups — the residual-work term of cluster placement.
  /// Maintained incrementally (full cost at append, each slice's cost
  /// subtracted when the slice launch is built), so reading it per
  /// completion event is O(1) instead of rescanning the range.
  double remainingCost(size_t Idx) const { return RemainingCostOf[Idx]; }

  /// Builds one quantum-bounded WorkQueue launch for the granted share
  /// \p GrantWGs of request \p Idx (accelos::sliceLaunch over the
  /// compiled kernel's costs, which the driver keeps alive for the
  /// replay), advancing its slice cursor and remaining cost.
  sim::KernelLaunchDesc makeSliceLaunch(size_t Idx, uint64_t GrantWGs,
                                        double Arrival) {
    ExperimentDriver &D = driverOf(Idx);
    const size_t KernelIdx = Trace[Idx].KernelIdx;
    const CompiledKernel &CK = D.kernel(KernelIdx);
    // Work slicing: run at most a quantum's worth of the virtual range
    // (paper Sec. 2.4: the virtual work queue is what makes
    // bounded-progress launches possible), requeueing the remainder.
    sim::KernelLaunchDesc L = accelos::sliceLaunch(
        D.demandFor(KernelIdx), CK.Spec->IssueEfficiency, CK.InstCount,
        CK.WGCosts, Live[Idx].Cursor, GrantWGs, Mode, Opts.RoundQuantum);
    for (uint64_t G = L.ViewBegin; G != L.ViewEnd; ++G)
      RemainingCostOf[Idx] -= CK.WGCosts[G];
    L.Name = CK.Spec->Id;
    L.AppId = static_cast<int>(Idx);
    L.ArrivalTime = Arrival;
    return L;
  }

  /// Fail-stop rollback of request \p Idx's in-flight slice, whose view
  /// began at virtual group \p Begin: the device died mid-slice, the
  /// partial execution is discarded, and the slice's groups re-enter
  /// the remaining range (and its cost) so a re-placement serves them
  /// again. The request has at most one slice in flight, so Begin is
  /// exactly where its cursor must return to.
  void rollbackSlice(size_t Idx, size_t Begin) {
    const CompiledKernel &CK =
        driverOf(Idx).kernel(Trace[Idx].KernelIdx);
    LiveRequest &LR = Live[Idx];
    assert(Begin <= LR.Cursor && "rollback past the slice start");
    for (size_t G = Begin; G != LR.Cursor; ++G)
      RemainingCostOf[Idx] += CK.WGCosts[G];
    LR.Cursor = Begin;
  }

  /// Re-binds request \p Idx to device view \p D (failover after a
  /// device loss, or a quantum-boundary migration) carrying the slice
  /// cursor over: a kernel's virtual-group decomposition is derived
  /// from its KernelSpec alone (workloads::generateWGCosts), so it is
  /// identical on every device and the remaining range keeps its
  /// meaning. The remaining cost and the isolated baseline — and with
  /// it the request's slowdown/queueing-excess normalization — are
  /// re-measured on the device that will serve the remainder.
  void rehome(size_t Idx, ExperimentDriver &D) {
    const workloads::TimedRequest &Req = Trace[Idx];
    const CompiledKernel &CK = D.kernel(Req.KernelIdx);
    assert(CK.WGCosts.size() ==
               driverOf(Idx).kernel(Req.KernelIdx).WGCosts.size() &&
           "virtual-range shape differs across devices");
    Drivers[Idx] = &D;
    double Cost = 0;
    for (size_t G = Live[Idx].Cursor; G != CK.WGCosts.size(); ++G)
      Cost += CK.WGCosts[G];
    RemainingCostOf[Idx] = Cost;
    Out.Requests[Idx].AloneDuration =
        D.isolatedDuration(SchedulerKind::Baseline, Req.KernelIdx);
  }

  /// Retires a request that has no (remaining) work at time \p T: it
  /// completes at the boundary without occupying the device.
  void completeZeroWork(size_t Idx, double T) {
    LiveRequest &LR = Live[Idx];
    if (!LR.Started) {
      LR.Started = true;
      LR.Start = T;
    }
    LR.End = std::max(LR.End, T);
    Out.Requests[Idx].StartTime = LR.Start;
    Out.Requests[Idx].EndTime = LR.End;
  }

  /// Computes the whole-outcome aggregates once every request retired.
  void finalize() {
    for (size_t I = 0; I != Trace.size(); ++I) {
      const StreamRequestResult &R = Out.Requests[I];
      Out.Makespan = std::max(Out.Makespan, R.EndTime);
      // streamSlowdown floors the zero-work corner: a request with no
      // work completes at its arrival boundary with zero turnaround,
      // which would trip the positivity asserts in the metrics.
      Out.Slowdowns.push_back(
          streamSlowdown(R.EndTime - R.ArrivalTime, R.AloneDuration));
    }
    if (!Out.Slowdowns.empty())
      Out.Unfairness = metrics::systemUnfairness(Out.Slowdowns);
    Out.FinalWeights = Opts.Weights;
    if (Ctl)
      for (const auto &[Tenant, W] : Ctl->weights())
        Out.FinalWeights[Tenant] = W;
  }

private:
  const StreamOptions &Opts;
  accelos::SchedulingMode Mode;
  StreamOutcome &Out;
  const accelos::SloWeightController *Ctl = nullptr;
  std::vector<ExperimentDriver *> Drivers; ///< Parallel to Trace.
  std::vector<double> RemainingCostOf;     ///< Parallel to Trace.
};

/// Queues request \p Idx — with its current remaining demand and
/// tenant weight — on \p Sched (an arrival or slice-requeue event).
template <accelos::AdmissionScheduler SchedulerT>
inline void submitRequest(SchedulerT &Sched, const ReplayState &RS,
                          size_t Idx) {
  accelos::RoundRequest R;
  R.Id = Idx;
  R.Tenant = RS.Trace[Idx].Tenant;
  R.Demand = RS.demandOf(Idx);
  Sched.submit(R);
}

/// One continuous-admission pass at time \p T on one device of the
/// cluster replay core: grant whatever fits the residual capacity,
/// turning each grant into a quantum-bounded slice launch. Requests
/// with no remaining work complete at the boundary without occupying
/// the device — \p RetireZeroWork is called to do the caller's
/// completion bookkeeping (ReplayState::completeZeroWork has already
/// recorded the timing). \returns true when the pass itself freed
/// capacity (a tail slice shrinking its reservation) and must re-run
/// at this same instant; each re-pass needs a fresh shrink, so the
/// caller's loop terminates.
///
/// The pass structure itself (grant -> slice -> shrink -> admitFrom)
/// lives in accelos::runAdmissionPass, shared with the functional
/// Runtime's continuous pump; this wrapper binds it to ReplayState's
/// request bookkeeping.
template <accelos::AdmissionScheduler SchedulerT, typename RetireFn>
inline bool admissionPass(SchedulerT &Sched, sim::EngineSession &Session,
                          ReplayState &RS, double T,
                          RetireFn &&RetireZeroWork) {
  return accelos::runAdmissionPass(
      Sched, Session, RS.LaunchBuf,
      [&](uint64_t Id,
          uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
        size_t Idx = static_cast<size_t>(Id);
        if (RS.remainingGroups(Idx) == 0) {
          RS.completeZeroWork(Idx, T);
          return std::nullopt;
        }
        return RS.makeSliceLaunch(Idx, WGs, T);
      },
      [&](uint64_t Id) { RetireZeroWork(static_cast<size_t>(Id)); });
}

inline accelos::SchedulingMode modeFor(SchedulerKind Kind) {
  return Kind == SchedulerKind::AccelOSNaive
             ? accelos::SchedulingMode::Naive
             : accelos::SchedulingMode::Optimized;
}

/// The arrival stream of one replay, built from its ClusterWorkload:
/// an open-loop trace popped in trace order, or a closed-loop script's
/// issue heap, where each completion issues its tenant's next scripted
/// request after a think time (backpressure). The workload shape is a
/// branch per arrival or completion, not a virtual call, so every
/// replay loop serves both shapes through this one source.
class ArrivalSource {
public:
  explicit ArrivalSource(const ClusterWorkload &W)
      : Trace(W.Trace), Script(W.Script) {
    assert((Trace != nullptr) != (Script != nullptr) &&
           "workload must be exactly one of open-loop or closed-loop");
    if (!Script)
      return;
    Cursor.assign(Script->Tenants.size(), 0);
    // Each tenant opens with its first Concurrency scripted requests,
    // issued from time 0 (their think times stagger the arrivals).
    for (size_t TP = 0; TP != Script->Tenants.size(); ++TP)
      for (size_t S = 0; S != Script->Tenants[TP].Concurrency; ++S)
        issue(TP, 0);
  }

  /// No request is waiting to arrive (a closed loop may still issue
  /// more on later completions).
  bool empty() const { return Trace ? Next == Trace->size() : Heap.empty(); }

  /// Arrival time of the earliest waiting request; requires !empty().
  double nextTime() const {
    return Trace ? (*Trace)[Next].ArrivalTime : Heap.top().Time;
  }

  /// Requests the whole replay materializes.
  size_t total() const {
    return Trace ? Trace->size() : Script->totalRequests();
  }

  /// The earliest waiting request, not yet materialized — what a
  /// placement decision reads before pop() commits it to a device.
  workloads::TimedRequest next() const {
    if (Trace)
      return (*Trace)[Next];
    const Issued &I = Heap.top();
    workloads::TimedRequest R;
    R.KernelIdx = I.KernelIdx;
    R.Tenant = Script->Tenants[I.TenantPos].Tenant;
    R.ArrivalTime = I.Time;
    return R;
  }

  /// Pops the earliest waiting request and materializes it in \p RS on
  /// \p D's device. \returns the new request's index.
  size_t pop(ReplayState &RS, ExperimentDriver &D) {
    if (Trace)
      return RS.append((*Trace)[Next++], D);
    workloads::TimedRequest R = next();
    TenantPosOf.push_back(Heap.top().TenantPos);
    Heap.pop();
    return RS.append(R, D);
  }

  /// Request \p Idx finished (or was lost) at \p T: a closed-loop
  /// tenant issues its next scripted request from that instant. A no-op
  /// for an open-loop trace.
  void complete(size_t Idx, double T) {
    if (Script)
      issue(TenantPosOf[Idx], T);
  }

private:
  /// A scripted request whose arrival instant has been decided (issue
  /// time + think time) but which has not been materialized yet. Seq
  /// breaks arrival-time ties deterministically in issue order.
  struct Issued {
    double Time = 0;
    uint64_t Seq = 0;
    size_t TenantPos = 0; ///< Index into the script's tenant list.
    size_t KernelIdx = 0;

    bool operator>(const Issued &O) const {
      return Time != O.Time ? Time > O.Time : Seq > O.Seq;
    }
  };

  /// Issues tenant \p TP's next scripted request \p From a completion
  /// instant, unless its script is exhausted (the population drains).
  void issue(size_t TP, double From) {
    size_t &C = Cursor[TP];
    if (C == Script->Sequences[TP].size())
      return;
    const workloads::ScriptedRequest &SR = Script->Sequences[TP][C++];
    Heap.push({From + SR.ThinkTime, NextSeq++, TP, SR.KernelIdx});
  }

  const std::vector<workloads::TimedRequest> *Trace;
  size_t Next = 0; ///< Open loop: next unarrived trace entry.
  const workloads::ClosedLoopScript *Script;
  std::vector<size_t> Cursor; ///< Next unissued script entry per tenant.
  std::priority_queue<Issued, std::vector<Issued>, std::greater<Issued>>
      Heap;
  uint64_t NextSeq = 0;
  std::vector<size_t> TenantPosOf; ///< Parallel to the materialized trace.
};

} // namespace detail
} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_REPLAYDETAIL_H
