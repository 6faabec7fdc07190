//===- harness/Streaming.cpp - Streaming-arrival serving loop ----------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "harness/Streaming.h"

#include "accelos/Scheduler.h"
#include "cluster/ClusterHarness.h"
#include "cluster/Fleet.h"
#include "ek/ElasticKernels.h"
#include "harness/ReplayDetail.h"
#include "metrics/Metrics.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace accel;
using namespace accel::harness;
using detail::ArrivalSource;
using detail::LiveRequest;
using detail::ReplayState;
using detail::modeFor;

double harness::meanIsolatedBaselineDuration(ExperimentDriver &Driver) {
  double Sum = 0;
  for (size_t I = 0; I != Driver.numKernels(); ++I)
    Sum += Driver.isolatedDuration(SchedulerKind::Baseline, I);
  return Sum / static_cast<double>(Driver.numKernels());
}

std::map<int, std::vector<double>>
StreamOutcome::latenciesByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.latency());
  return Out;
}

std::vector<double> StreamOutcome::queueDelays() const {
  std::vector<double> Out;
  Out.reserve(Requests.size());
  for (const StreamRequestResult &R : Requests)
    Out.push_back(R.queueDelay());
  return Out;
}

std::map<int, std::vector<double>>
StreamOutcome::queueingExcessByTenant() const {
  std::map<int, std::vector<double>> Out;
  for (const StreamRequestResult &R : Requests)
    Out[R.Tenant].push_back(R.queueingExcess());
  return Out;
}

namespace {

/// accelOS continuous or stride admission on \p Driver's device: the
/// cluster replay core over a one-device view. Round-robin placement
/// over one device always picks it, and reads none of the throughput
/// probes a fleet would measure.
StreamOutcome replayOneDevice(ExperimentDriver &Driver, SchedulerKind Kind,
                              const ClusterWorkload &Workload,
                              const StreamOptions &Opts) {
  const ReplayDevice Device{&Driver};
  ClusterOptions COpts;
  COpts.Stream = Opts;
  COpts.Mode = modeFor(Kind);
  std::unique_ptr<cluster::PlacementPolicy> Policy =
      cluster::makePlacementPolicy(cluster::PlacementKind::RoundRobin);
  return runClusterReplay({&Device, 1}, *Policy, Workload, COpts).Stream;
}

/// The standard stack's FIFO hardware queue: every request enters one
/// persistent engine session the moment it is issued (the session holds
/// it invisible until its ArrivalTime), and each completion may issue a
/// closed-loop follow-up. An open-loop trace is issued whole before the
/// first advance, which is exactly Engine::run's admit-all-then-drain.
void replayFifo(ExperimentDriver &Driver, ArrivalSource &Source,
                ReplayState &RS, StreamOutcome &Out) {
  sim::EngineSession Session(Driver.device());
  const size_t Total = Source.total();
  size_t Completed = 0;
  while (Completed != Total) {
    while (!Source.empty()) {
      size_t Idx = Source.pop(RS, Driver);
      const workloads::TimedRequest &R = RS.Trace[Idx];
      sim::KernelLaunchDesc L =
          Driver.baselineDesc(R.KernelIdx, static_cast<int>(Idx));
      L.ArrivalTime = R.ArrivalTime;
      RS.LaunchBuf.push_back(std::move(L));
    }
    if (!RS.LaunchBuf.empty())
      Session.admitFrom(RS.LaunchBuf);
    double Next = Session.nextEventTime();
    assert(Next >= 0 && "FIFO replay stalled with requests pending");
    Session.advanceTo(Next, RS.CompletionBuf);
    for (const sim::KernelExecResult &K : RS.CompletionBuf) {
      size_t Idx = static_cast<size_t>(K.AppId);
      Out.Requests[Idx].StartTime = K.StartTime;
      Out.Requests[Idx].EndTime = K.EndTime;
      ++Completed;
      Source.complete(Idx, K.EndTime);
    }
  }
  Out.Rounds = 1;
}

/// The round-barrier loop: requests arriving while a round executes
/// wait for its completion boundary, where the next round is planned
/// over everything pending, and each round runs on a fresh engine.
/// Elastic Kernels statically merges the pending requests into one
/// co-dispatched launch; round-synchronous accelOS takes
/// accelos::RoundScheduler's next round, each grant a quantum-bounded
/// slice whose unfinished remainder requeues at the boundary.
void replayRounds(ExperimentDriver &Driver, SchedulerKind Kind,
                  ArrivalSource &Source, ReplayState &RS,
                  StreamOutcome &Out) {
  const sim::DeviceSpec &Spec = Driver.device();
  const bool IsEk = Kind == SchedulerKind::ElasticKernels;
  accelos::RoundScheduler Sched(accelos::ResourceCaps::fromDevice(Spec));
  std::vector<size_t> EkPending;
  std::vector<size_t> Unfinished;
  const size_t Total = Source.total();
  size_t Completed = 0;
  double T = 0;

  auto Enqueue = [&](size_t Idx) {
    if (IsEk) {
      EkPending.push_back(Idx);
      return;
    }
    Sched.submit(RS.roundRequest(Idx));
  };
  auto Retire = [&](size_t Idx) {
    const LiveRequest &LR = RS.Live[Idx];
    Out.Requests[Idx].StartTime = LR.Start;
    Out.Requests[Idx].EndTime = LR.End;
    ++Completed;
    Source.complete(Idx, LR.End);
  };

  while (Completed != Total) {
    while (!Source.empty() && Source.nextTime() <= T)
      Enqueue(Source.pop(RS, Driver));
    if ((IsEk ? EkPending.size() : Sched.pending()) == 0) {
      // Idle device: jump to the next arrival.
      assert(!Source.empty() && "round replay stalled with requests pending");
      T = std::max(T, Source.nextTime());
      continue;
    }

    std::vector<sim::KernelLaunchDesc> Launches;
    if (IsEk) {
      std::vector<ek::EKKernelDesc> Descs;
      for (size_t Idx : EkPending)
        Descs.push_back(Driver.ekDesc(RS.Trace[Idx].KernelIdx,
                                      static_cast<int>(Idx)));
      EkPending.clear();
      Launches = ek::planMergedLaunch(Spec, Descs);
    } else {
      for (const accelos::RoundGrant &G : Sched.nextRound()) {
        size_t Idx = static_cast<size_t>(G.Id);
        if (RS.remainingGroups(Idx) == 0) {
          RS.completeZeroWork(Idx, T);
          Retire(Idx);
          continue;
        }
        Launches.push_back(RS.makeSliceLaunch(Idx, G.WGs, /*Arrival=*/0));
        if (RS.remainingGroups(Idx) != 0)
          Unfinished.push_back(Idx);
      }
    }

    sim::Engine Engine(Spec);
    sim::SimResult R = Engine.run(std::move(Launches));
    for (const sim::KernelExecResult &K : R.Kernels) {
      LiveRequest &LR = RS.Live[static_cast<size_t>(K.AppId)];
      if (!LR.Started) {
        LR.Started = true;
        LR.Start = K.StartTime + T;
      }
      LR.End = K.EndTime + T;
    }
    T += R.Makespan;
    ++Out.Rounds;

    // Completion boundary: finished requests retire, sliced ones
    // requeue (ahead of this boundary's new arrivals — they are
    // older), and the next round plans over the new queue.
    for (const sim::KernelExecResult &K : R.Kernels) {
      size_t Idx = static_cast<size_t>(K.AppId);
      if (IsEk || RS.remainingGroups(Idx) == 0)
        Retire(Idx);
    }
    for (size_t Idx : Unfinished)
      Enqueue(Idx);
    Unfinished.clear();
  }
  if (!IsEk)
    Out.Deferrals = Sched.stats().Deferrals;
}

/// The one single-device replay behind runStream and runClosedLoop.
/// accelOS continuous and stride admission run on the cluster replay
/// core; FIFO runs the hardware-queue loop; Elastic Kernels and
/// round-synchronous accelOS run the round-barrier loop.
StreamOutcome replay(ExperimentDriver &Driver, SchedulerKind Kind,
                     const ClusterWorkload &Workload,
                     const StreamOptions &Opts) {
  const bool IsFifo = Kind == SchedulerKind::Baseline;
  const bool IsEk = Kind == SchedulerKind::ElasticKernels;
  if (!IsFifo && !IsEk &&
      Opts.Admission != StreamOptions::AdmissionMode::RoundSync)
    return replayOneDevice(Driver, Kind, Workload, Opts);

  StreamOutcome Out;
  ArrivalSource Source(Workload);
  ReplayState RS(Opts, modeFor(Kind), Out);
  if (Source.total() != 0) {
    if (IsFifo)
      replayFifo(Driver, Source, RS, Out);
    else
      replayRounds(Driver, Kind, Source, RS, Out);
  }
  assert(RS.Trace.size() == Source.total() && "workload not fully replayed");
  RS.finalize();
  return Out;
}

} // namespace

StreamOutcome harness::runStream(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const std::vector<workloads::TimedRequest> &Trace,
    const StreamOptions &Opts) {
  return replay(Driver, Kind, ClusterWorkload::openLoop(Trace), Opts);
}

StreamOutcome harness::runClosedLoop(
    ExperimentDriver &Driver, SchedulerKind Kind,
    const workloads::ClosedLoopScript &Script,
    const StreamOptions &Opts) {
  return replay(Driver, Kind, ClusterWorkload::closedLoop(Script), Opts);
}
