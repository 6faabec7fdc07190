//===- cluster/ClusterHarness.cpp - Fleet-wide serving loop ------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "cluster/ClusterHarness.h"

#include "accelos/Scheduler.h"
#include "harness/ReplayDetail.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>

using namespace accel;
using namespace accel::harness;
using detail::ArrivalSource;
using detail::LiveRequest;
using detail::ReplayState;

namespace {

/// Sentinel for "request not attached to any fault".
constexpr size_t NoFault = static_cast<size_t>(-1);

/// In StaticPrior mode, how many observations the analysis prior
/// counts as when blending with measured service spans:
/// estimate = (Prior * Weight + sum(observed)) / (Weight + count).
constexpr double PriorObservationWeight = 1.0;

/// The admission scheduler each device runs under \p Opts: stride
/// scheduling when Admission is Stride, else the fair-share solve (the
/// cluster has no round-barrier loop, so RoundSync admits continuously
/// too). StrictShares turns greedy saturation off so admission targets
/// are pure weighted entitlements; FullSolveReference disables the
/// incremental fast paths, so every admission pass runs the allocating
/// reference solve (the measurement baseline).
std::unique_ptr<accelos::AdmissionScheduler>
makeScheduler(const StreamOptions &Opts, const accelos::ResourceCaps &Caps) {
  if (Opts.Admission == StreamOptions::AdmissionMode::Stride)
    return std::make_unique<accelos::StrideScheduler>(Caps);
  accelos::SolverOptions SOpts;
  SOpts.GreedySaturation = !Opts.StrictShares;
  accelos::SchedulerOptions SchedOpts;
  SchedOpts.Incremental = !Opts.FullSolveReference;
  return std::make_unique<accelos::ContinuousScheduler>(Caps, SOpts,
                                                        SchedOpts);
}

/// The merged-clock replay over N per-device admission schedulers —
/// the library's one accelOS continuous event loop. Each iteration (1)
/// applies scripted fleet-capacity events due at the current merged
/// time, (2) places and submits every arrival due, (3) runs the pending
/// admission passes device by device, (4) advances every session to
/// the earliest next event anywhere in the fleet, reacting to
/// completions (and, at those quantum-slice boundaries, deciding
/// migrations). With N == 1 and an empty fleet plan it is the
/// single-device continuous replay of runStream / runClosedLoop.
class ClusterReplay {
  /// One fleet member's live serving state. Outstanding work lives in
  /// the policy's load view (PlacementPolicy::loads()) — the lifecycle
  /// notifications keep it current, and the replay reads it back for
  /// migration decisions instead of keeping a second tally.
  struct DeviceState {
    sim::EngineSession Session;
    std::unique_ptr<accelos::AdmissionScheduler> Sched;
    /// An admission pass is pending (an arrival or completion changed
    /// this device's queue or residual capacity). Starts true: the
    /// first iteration always runs a pass.
    bool NeedAdmit = true;
    /// In the serving set: placements, admission, and migration
    /// targets all require Alive. Mirrors the policy view's
    /// DeviceLoad::Alive.
    bool Alive = true;
    double BusyTime = 0;
    size_t PlacedRequests = 0;
  };

  /// One request's binding and settlement state, parallel to RS.Trace.
  /// Its last binding is ClusterOutcome::Placement.
  struct RequestRecord {
    /// Serving device; the fleet size while unbound (parked or lost
    /// unplaced).
    size_t Device = 0;
    /// Remaining cost counted into the policy's load view for Device.
    double Accounted = 0;
    /// Slice cursor already counted into ClusterOutcome::ExecutedWGs —
    /// the work-conservation ledger.
    size_t CountedWGs = 0;
    /// Fault whose recovery waits on this request, or NoFault.
    size_t PendingFault = NoFault;
    uint32_t Migrations = 0; ///< Voluntary migrations so far.
    bool Settled = false;    ///< Finished or lost.
  };

public:
  ClusterReplay(std::span<const ReplayDevice> Members,
                cluster::PlacementPolicy &Policy, ArrivalSource &Source,
                const ClusterOptions &Opts, ClusterOutcome &Out)
      : RS(Opts.Stream, Opts.Mode, Out.Stream), Source(Source),
        Members(Members), Policy(Policy), Opts(Opts), Out(Out) {
    assert(!Members.empty() && "cluster replay over an empty fleet");
    Plan = Opts.FleetPlan;
    std::stable_sort(Plan.begin(), Plan.end(),
                     [](const FleetEvent &A, const FleetEvent &B) {
                       return A.Time < B.Time;
                     });
    // A device whose first scripted event is Up joins the fleet later
    // (elastic scale-up): it starts outside the serving set.
    std::vector<bool> Alive(Members.size(), true);
    std::vector<bool> Seen(Members.size(), false);
    for (const FleetEvent &E : Plan) {
      assert(E.Device < Members.size() &&
             "fleet plan names an unknown device");
      if (!Seen[E.Device]) {
        Seen[E.Device] = true;
        if (E.What == FleetEvent::Kind::Up)
          Alive[E.Device] = false;
      }
    }
    Devices.reserve(Members.size());
    std::vector<double> Rates(Members.size());
    for (size_t D = 0; D != Members.size(); ++D) {
      const sim::DeviceSpec &Spec = driver(D).device();
      Devices.push_back(
          {.Session = sim::EngineSession(Spec),
           .Sched = makeScheduler(Opts.Stream,
                                  accelos::ResourceCaps::fromDevice(Spec)),
           .Alive = Alive[D]});
      Rates[D] = Members[D].ServiceRate;
    }
    Policy.attach(std::move(Rates), Alive);
    if (Opts.Stream.AdaptiveSloWeights) {
      assert(Opts.Stream.SloControlInterval > 0 &&
             "adaptive SLO weights need a positive control interval");
      Ctl.emplace(Opts.Stream.SloTargets, Opts.Stream.Weights,
                  Opts.Stream.SloControlInterval, Opts.Stream.SloTuning);
      RS.adoptController(&*Ctl);
    }
  }

  /// Drives the merged clock until every request of the source has
  /// finished or been lost, then folds the outcome.
  void run() {
    const size_t Total = Source.total();
    double Now = 0;
    while (Completed != Total) {
      double T = Now;
      applyPlan(T);
      while (!Source.empty() && Source.nextTime() <= T)
        arrive(T);
      if (Completed == Total)
        break; // The last arrivals were all lost at this instant.

      admitAll(T);

      double NextEvent = nextFleetEvent();
      double NextInput = Source.empty() ? -1 : Source.nextTime();
      double NextPlan = nextPlanTime();
      double Target = NextEvent;
      if (Target < 0 || (NextInput >= 0 && NextInput < Target))
        Target = NextInput;
      if (Target < 0 || (NextPlan >= 0 && NextPlan < Target))
        Target = NextPlan;
      assert(Target >= 0 && "replay stalled with unfinished requests");
      advanceAll(T, Target);
      Now = std::max(Target, T);
    }
    assert(RS.Trace.size() == Total && "workload not fully replayed");
    finalize();
  }

private:
  ExperimentDriver &driver(size_t D) const { return *Members[D].Driver; }

  bool anyAlive() const {
    for (const DeviceState &DS : Devices)
      if (DS.Alive)
        return true;
    return false;
  }

  /// Will any device (re)join later? While true, requests that cannot
  /// be placed wait parked instead of being lost.
  bool pendingUp() const {
    for (size_t P = PlanCursor; P != Plan.size(); ++P)
      if (Plan[P].What == FleetEvent::Kind::Up)
        return true;
    return false;
  }

  double nextPlanTime() const {
    return PlanCursor != Plan.size() ? Plan[PlanCursor].Time : -1;
  }

  /// Applies every scripted fleet event due at merged time \p T, in
  /// plan order — before the arrivals of the same instant, so a
  /// request arriving the moment a device dies never lands on it.
  void applyPlan(double T) {
    while (PlanCursor != Plan.size() && Plan[PlanCursor].Time <= T) {
      const FleetEvent &E = Plan[PlanCursor++];
      if (E.What == FleetEvent::Kind::Down)
        applyDown(E.Device, T);
      else
        applyUp(E.Device, T);
    }
  }

  /// The source's next arrival: place it, or park/lose it when the
  /// whole fleet is out of service.
  void arrive(double T) {
    const workloads::TimedRequest R = Source.next();
    if (anyAlive()) {
      size_t D = decide(R.Tenant, R.KernelIdx, R.ArrivalTime);
      size_t Idx = Source.pop(RS, driver(D));
      registerRequest(Idx);
      commit(Idx, D);
      return;
    }
    // Materialized against device 0's view only so the request has a
    // shape; rehome() rebinds it before it ever executes.
    size_t Idx = Source.pop(RS, driver(0));
    registerRequest(Idx);
    if (pendingUp())
      Parked.push_back(Idx);
    else
      lose(Idx, std::max(T, R.ArrivalTime));
  }

  /// Runs the pending admission passes of every in-service device, in
  /// fleet order: each grant becomes a quantum-bounded slice launch,
  /// and a request with no remaining work retires at the boundary
  /// without occupying the device.
  void admitAll(double T) {
    for (DeviceState &DS : Devices) {
      if (!DS.Alive)
        continue;
      while (DS.NeedAdmit)
        DS.NeedAdmit = accelos::runAdmissionPass(
            *DS.Sched, DS.Session, RS.LaunchBuf,
            [&](uint64_t Id,
                uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
              size_t Idx = static_cast<size_t>(Id);
              if (RS.remainingGroups(Idx) != 0)
                return RS.makeSliceLaunch(Idx, WGs, T);
              retire(Idx, T);
              return std::nullopt;
            });
    }
  }

  /// The earliest pending event anywhere in the fleet, or negative
  /// when every session is idle. (A dead device's session is idle by
  /// construction: cancelAll emptied it.)
  double nextFleetEvent() {
    double Next = -1;
    for (DeviceState &DS : Devices) {
      double E = DS.Session.nextEventTime();
      if (E >= 0 && (Next < 0 || E < Next))
        Next = E;
    }
    return Next;
  }

  /// Advances every session from merged time \p T to \p Target,
  /// reacting to completions; accounts per-device busy time. Dead
  /// sessions advance too (empty, instantaneous) so their clocks stay
  /// on the merged time for a later rejoin.
  void advanceAll(double T, double Target) {
    double NewNow = std::max(Target, T);
    for (size_t D = 0; D != Devices.size(); ++D) {
      DeviceState &DS = Devices[D];
      if (DS.Session.inFlight() > 0)
        DS.BusyTime += NewNow - T;
      DS.Session.advanceTo(NewNow, RS.CompletionBuf);
      for (const sim::KernelExecResult &K : RS.CompletionBuf) {
        size_t Idx = static_cast<size_t>(K.AppId);
        LiveRequest &LR = RS.Live[Idx];
        if (!LR.Started) {
          LR.Started = true;
          LR.Start = K.StartTime;
        }
        LR.End = K.EndTime;
        DS.Sched->complete(Idx);
        DS.NeedAdmit = true;
        ++Out.Stream.EngineCompletions;
        // Settle the drained work into the policy's load view and the
        // conservation ledger.
        RequestRecord &Rec = Reqs[Idx];
        double Remaining = RS.remainingCost(Idx);
        bool Finished = RS.remainingGroups(Idx) == 0;
        Policy.completeOn(D, Rec.Accounted - Remaining, Finished);
        Rec.Accounted = Remaining;
        Out.ExecutedWGs += LR.Cursor - Rec.CountedWGs;
        Rec.CountedWGs = LR.Cursor;
        if (!Finished) {
          // Sliced: a quantum boundary. Either the policy steals the
          // remainder for an underloaded device, or it requeues on the
          // SAME device and re-enters its fair-share solve here.
          if (!maybeMigrate(Idx, D, K.EndTime))
            submit(Idx, D);
        } else {
          finish(Idx);
        }
      }
    }
    if (Ctl && Ctl->maybeUpdate(NewNow))
      ++Out.Stream.WeightUpdates;
  }

  /// Folds per-device scheduler stats and utilization into the outcome.
  void finalize() {
    RS.finalize();
    Out.Devices.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D) {
      ClusterDeviceOutcome &DO = Out.Devices[D];
      const accelos::SchedulerStats &St = Devices[D].Sched->stats();
      DO.Name = driver(D).device().Name;
      DO.Requests = Devices[D].PlacedRequests;
      DO.BusyTime = Devices[D].BusyTime;
      DO.Utilization = Out.Stream.Makespan > 0
                           ? Devices[D].BusyTime / Out.Stream.Makespan
                           : 0;
      DO.Rounds = St.RoundsPlanned;
      DO.Deferrals = St.Deferrals;
      Out.Stream.Rounds += DO.Rounds;
      Out.Stream.Deferrals += DO.Deferrals;
      Out.Stream.FullSolves += St.FullSolves;
      Out.Stream.FastPasses += St.FastPasses;
    }
  }

  void submit(size_t Idx, size_t D) {
    Devices[D].Sched->submit(RS.roundRequest(Idx));
  }

  /// Opens the records of newly materialized request \p Idx, unbound,
  /// and counts its work into the conservation ledger.
  void registerRequest(size_t Idx) {
    assert(Idx == Reqs.size() && "requests register in trace order");
    Out.Placement.push_back(Members.size());
    Out.Retries.push_back(0);
    Reqs.push_back({.Device = Members.size()});
    Out.RequestedWGs += RS.remainingGroups(Idx);
  }

  /// Decides the device for a request (sticky affinity first — while
  /// the tenant's home is in service — then the policy over its load
  /// view). \p KernelIdx sizes the per-device solo-duration estimates.
  size_t decide(int Tenant, size_t KernelIdx, double ArrivalTime) {
    if (Opts.StickyTenantAffinity) {
      auto It = Affinity.find(Tenant);
      if (It != Affinity.end() && Devices[It->second].Alive)
        return It->second;
    }
    size_t D = Policy.place(query(Tenant, KernelIdx, ArrivalTime));
    assert(D < Devices.size() && "policy placed outside the fleet");
    assert(Devices[D].Alive &&
           "policy placed on an out-of-service device");
    if (Opts.StickyTenantAffinity)
      Affinity[Tenant] = D;
    return D;
  }

  /// Binds unbound request \p Idx to device \p D: its remaining cost
  /// enters \p D's load view and its remaining range \p D's admission.
  void bind(size_t Idx, size_t D) {
    RequestRecord &Rec = Reqs[Idx];
    Out.Placement[Idx] = D;
    Rec.Device = D;
    Rec.Accounted = RS.remainingCost(Idx);
    Policy.admitTo(D, Rec.Accounted);
    submit(Idx, D);
    Devices[D].NeedAdmit = true;
  }

  /// Withdraws request \p Idx's remaining cost from its device's load
  /// view and leaves it unbound.
  void unbind(size_t Idx) {
    RequestRecord &Rec = Reqs[Idx];
    Policy.withdrawFrom(Rec.Device, Rec.Accounted);
    Rec.Accounted = 0;
    Rec.Device = Members.size();
  }

  /// First binding of materialized request \p Idx to device \p D.
  void commit(size_t Idx, size_t D) {
    ++Devices[D].PlacedRequests;
    bind(Idx, D);
  }

  /// Re-binds an unbound request (failover target, unparked, or
  /// migrating) to device \p To: its remaining virtual range rehomes
  /// onto \p To's compiled view and re-enters that device's admission.
  void rebind(size_t Idx, size_t From, size_t To, double T,
              bool Failover) {
    RS.rehome(Idx, driver(To));
    Out.Migrations.push_back({.RequestIdx = Idx,
                              .From = From,
                              .To = To,
                              .Time = T,
                              .RemainingWGs = RS.remainingGroups(Idx),
                              .Failover = Failover});
    bind(Idx, To);
  }

  /// Fail-stop loss of device \p D at merged time \p T: cancel its
  /// session (rolling every in-flight slice back into its request's
  /// remaining range), release the scheduler, and displace every bound
  /// request — re-placed under the retry budget, parked if the whole
  /// fleet is dark but capacity will return, lost otherwise.
  void applyDown(size_t D, double T) {
    DeviceState &DS = Devices[D];
    if (!DS.Alive)
      return; // Double-down in a plan: no effect.
    DS.Alive = false;
    Policy.deviceDown(D);
    size_t FaultIdx = Out.Faults.size();
    Out.Faults.push_back({.Device = D, .DownTime = T});
    FaultLive.push_back(0);
    // The partial slice work is discarded with the device (fail-stop);
    // each cancelled launch releases its scheduler flight and returns
    // its virtual window to the request's remaining range.
    for (sim::KernelLaunchDesc &L : DS.Session.cancelAll()) {
      size_t Idx = static_cast<size_t>(L.AppId);
      DS.Sched->complete(Idx);
      RS.rollbackSlice(Idx, L.ViewBegin);
    }
    DS.Sched->clear(); // Queued-but-unadmitted requests.
    DS.NeedAdmit = false;
    // Displace in request-index order: determinism over map order.
    for (size_t Idx = 0; Idx != Reqs.size(); ++Idx) {
      if (Reqs[Idx].Device != D || Reqs[Idx].Settled)
        continue;
      unbind(Idx);
      ++Out.Faults[FaultIdx].Displaced;
      attachFault(Idx, FaultIdx, T);
      if (++Out.Retries[Idx] > Opts.MaxRetries) {
        lose(Idx, T);
      } else if (anyAlive()) {
        size_t To = decide(RS.Trace[Idx].Tenant,
                           RS.Trace[Idx].KernelIdx, T);
        rebind(Idx, D, To, T, /*Failover=*/true);
      } else if (pendingUp()) {
        Parked.push_back(Idx);
      } else {
        lose(Idx, T);
      }
    }
  }

  /// Device \p D (re)joins the fleet empty at merged time \p T; parked
  /// requests re-enter placement in park order (no retry charge — a
  /// rejoin is recovery, not another failure).
  void applyUp(size_t D, double T) {
    DeviceState &DS = Devices[D];
    if (DS.Alive)
      return; // Double-up in a plan: no effect.
    DS.Alive = true;
    Policy.deviceUp(D);
    DS.NeedAdmit = true;
    if (Parked.empty())
      return;
    std::vector<size_t> Waiting;
    Waiting.swap(Parked);
    for (size_t Idx : Waiting) {
      const workloads::TimedRequest &R = RS.Trace[Idx];
      size_t To = decide(R.Tenant, R.KernelIdx, T);
      size_t From = Out.Placement[Idx];
      if (From == Members.size()) {
        // Arrived during a full outage and was never placed: this is
        // its first placement, not a migration.
        RS.rehome(Idx, driver(To));
        commit(Idx, To);
      } else {
        // Displaced while bound to From, its last placement.
        rebind(Idx, From, To, T, /*Failover=*/true);
      }
    }
  }

  /// Voluntary work-stealing at a quantum boundary: when \p D's
  /// normalized backlog has diverged from the mean of the other
  /// in-service devices, ask the policy where request \p Idx's
  /// remaining range should run. \returns true when the request moved
  /// (it was submitted to the target).
  bool maybeMigrate(size_t Idx, size_t D, double At) {
    const MigrationOptions &M = Opts.Migration;
    if (!M.Enabled || Reqs[Idx].Migrations >= M.MaxPerRequest)
      return false;
    const std::vector<cluster::DeviceLoad> &Loads = Policy.loads();
    double OthersSum = 0;
    size_t Others = 0;
    for (size_t I = 0; I != Loads.size(); ++I) {
      if (I == D || !Loads[I].Alive)
        continue;
      OthersSum += normBacklog(Loads[I]);
      ++Others;
    }
    if (Others == 0)
      return false;
    if (normBacklog(Loads[D]) <=
        M.DivergenceFactor * (OthersSum / static_cast<double>(Others)))
      return false;
    const workloads::TimedRequest &R = RS.Trace[Idx];
    // Price only what is left: the solo estimates scale by the
    // unexecuted fraction of the virtual range.
    size_t RemainingGroups = RS.remainingGroups(Idx);
    double Frac = static_cast<double>(RemainingGroups) /
                  static_cast<double>(RemainingGroups + RS.Live[Idx].Cursor);
    std::optional<size_t> To =
        Policy.suggestMigration(query(R.Tenant, R.KernelIdx, At, Frac), D);
    if (!To || *To == D)
      return false;
    assert(*To < Devices.size() && Devices[*To].Alive &&
           "policy suggested an out-of-service device");
    unbind(Idx);
    ++Reqs[Idx].Migrations;
    // The tenant's home moves with its migrated request.
    if (Opts.StickyTenantAffinity)
      Affinity[R.Tenant] = *To;
    rebind(Idx, D, *To, At, /*Failover=*/false);
    return true;
  }

  static double normBacklog(const cluster::DeviceLoad &L) {
    double Rate = L.ServiceRate > 0 ? L.ServiceRate : 1.0;
    return L.OutstandingCost / Rate;
  }

  /// The placement query for \p Tenant's kernel \p KernelIdx at \p At:
  /// its per-device solo estimates, scaled by the unexecuted fraction
  /// \p Frac of its range, land in the reused SoloBuf.
  cluster::PlacementRequest query(int Tenant, size_t KernelIdx, double At,
                                  double Frac = 1.0) {
    SoloBuf.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D)
      SoloBuf[D] = soloEstimate(D, KernelIdx) * Frac;
    return {Tenant, KernelIdx, At, &SoloBuf};
  }

  /// The solo-duration estimate the placement policy sees for kernel
  /// \p KernelIdx on device \p D, per ClusterOptions::SoloEstimate.
  double soloEstimate(size_t D, size_t KernelIdx) {
    switch (Opts.SoloEstimate) {
    case SoloEstimateKind::Oracle:
      return driver(D).isolatedDuration(SchedulerKind::Baseline, KernelIdx);
    case SoloEstimateKind::Blind:
      return Members[D].MeanSoloDuration;
    case SoloEstimateKind::StaticPrior: {
      double Prior = driver(D).priorSoloDuration(KernelIdx);
      auto It = Observed.find({D, KernelIdx});
      if (It == Observed.end())
        return Prior;
      const SoloObservation &O = It->second;
      return (Prior * PriorObservationWeight + O.Sum) /
             (PriorObservationWeight + static_cast<double>(O.Count));
    }
    }
    accel_unreachable("bad solo estimate kind");
  }

  /// Hands request \p Idx's settlement to fault \p F's recovery
  /// tracking (releasing any earlier fault still waiting on it).
  void attachFault(size_t Idx, size_t F, double At) {
    detachFault(Idx, At);
    Reqs[Idx].PendingFault = F;
    ++FaultLive[F];
  }

  /// Request \p Idx settled (finished, lost, or re-displaced): when it
  /// was the last one its fault displaced, that fault has recovered.
  void detachFault(size_t Idx, double At) {
    size_t F = Reqs[Idx].PendingFault;
    if (F == NoFault)
      return;
    Reqs[Idx].PendingFault = NoFault;
    assert(FaultLive[F] > 0 && "fault live-count underflow");
    if (--FaultLive[F] == 0)
      Out.Faults[F].RecoveryTime = At - Out.Faults[F].DownTime;
  }

  /// The one settle path of finished, retired and lost requests:
  /// request \p Idx leaves the replay at \p At, releases any fault
  /// waiting on it, and a closed-loop tenant's think clock starts.
  void settle(size_t Idx, double At) {
    Reqs[Idx].Settled = true;
    detachFault(Idx, At);
    ++Completed;
    Source.complete(Idx, At);
  }

  /// Declares request \p Idx lost at \p At: it completes empty at the
  /// loss instant and is recorded — never silently dropped. The SLO
  /// controller does not observe it (there is no service to grade),
  /// but a closed-loop tenant's think clock still advances, so the
  /// script drains.
  void lose(size_t Idx, double At) {
    Out.LostRequests.push_back(Idx);
    if (Reqs[Idx].PendingFault != NoFault)
      ++Out.Faults[Reqs[Idx].PendingFault].Lost;
    RS.completeZeroWork(Idx, At);
    settle(Idx, At);
  }

  /// Retires a zero-work request at the admission boundary. The SLO
  /// controller does NOT observe it (it never occupied the device).
  void retire(size_t Idx, double T) {
    RS.completeZeroWork(Idx, T);
    RequestRecord &Rec = Reqs[Idx];
    Policy.completeOn(Rec.Device, Rec.Accounted, true);
    Rec.Accounted = 0;
    settle(Idx, T);
  }

  /// Full completion at the end of the last slice: the SLO controller
  /// observes the aggregate queueing time.
  void finish(size_t Idx) {
    const LiveRequest &LR = RS.Live[Idx];
    StreamRequestResult &RR = Out.Stream.Requests[Idx];
    RR.StartTime = LR.Start;
    RR.EndTime = LR.End;
    if (Opts.SoloEstimate == SoloEstimateKind::StaticPrior) {
      // The measured service span (first slice start to last slice
      // end) is the online observation the analysis prior blends into.
      // It over-reads under contention, which is the safe direction: a
      // busy device looks slower, never faster.
      SoloObservation &O =
          Observed[{Reqs[Idx].Device, RS.Trace[Idx].KernelIdx}];
      O.Sum += RR.EndTime - RR.StartTime;
      ++O.Count;
    }
    if (Ctl)
      Ctl->observe(RS.Trace[Idx].Tenant, RR.queueingExcess());
    settle(Idx, LR.End);
  }

  ReplayState RS;
  ArrivalSource &Source;
  size_t Completed = 0;
  std::span<const ReplayDevice> Members;
  cluster::PlacementPolicy &Policy;
  const ClusterOptions &Opts;
  ClusterOutcome &Out;
  std::vector<DeviceState> Devices;
  std::optional<accelos::SloWeightController> Ctl;
  std::map<int, size_t> Affinity; ///< Tenant -> device (sticky mode).
  std::vector<RequestRecord> Reqs; ///< Parallel to RS.Trace.
  std::vector<size_t> Parked; ///< Unplaceable until a device comes up.
  std::vector<FleetEvent> Plan; ///< Time-sorted (stable) fault plan.
  size_t PlanCursor = 0;
  std::vector<size_t> FaultLive; ///< Unsettled displacements per fault.
  std::vector<double> SoloBuf;   ///< Reused per placement decision.
  /// Measured service spans per (device, kernel), for StaticPrior
  /// blending.
  struct SoloObservation {
    double Sum = 0;
    size_t Count = 0;
  };
  std::map<std::pair<size_t, size_t>, SoloObservation> Observed;
};

} // namespace

ClusterOutcome harness::runClusterReplay(std::span<const ReplayDevice> Devices,
                                         cluster::PlacementPolicy &Policy,
                                         const ClusterWorkload &Workload,
                                         const ClusterOptions &Opts) {
  ClusterOutcome Out;
  Out.Stream.FinalWeights = Opts.Stream.Weights;
  ArrivalSource Source(Workload);
  if (Source.total() == 0 || Devices.empty()) {
    // Every device still reports, just idle: consumers may index the
    // per-device results by fleet position unconditionally.
    Out.Devices.resize(Devices.size());
    for (size_t D = 0; D != Devices.size(); ++D)
      Out.Devices[D].Name = Devices[D].Driver->device().Name;
    return Out;
  }
  ClusterReplay(Devices, Policy, Source, Opts, Out).run();
  return Out;
}

ClusterOutcome harness::runClusterReplay(cluster::Fleet &Fleet,
                                         cluster::PlacementPolicy &Policy,
                                         const ClusterWorkload &Workload,
                                         const ClusterOptions &Opts) {
  std::vector<ReplayDevice> Devices(Fleet.size());
  for (size_t D = 0; D != Fleet.size(); ++D)
    Devices[D] = {&Fleet.driver(D), Fleet.serviceRate(D),
                  Fleet.meanSoloDuration(D)};
  return runClusterReplay(Devices, Policy, Workload, Opts);
}
