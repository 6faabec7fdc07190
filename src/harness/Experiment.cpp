//===- harness/Experiment.cpp - Experiment driver ----------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "harness/Streaming.h"
#include "kir/Module.h"
#include "kir/RtLayout.h"
#include "metrics/Metrics.h"
#include "minicl/Frontend.h"
#include "passes/ConstantFold.h"
#include "passes/DCE.h"
#include "passes/Inliner.h"
#include "passes/Pass.h"
#include "passes/RegisterEstimator.h"
#include "workloads/StaticPrior.h"

#include <cstdlib>

using namespace accel;
using namespace accel::harness;

const char *harness::schedulerName(SchedulerKind Kind) {
  switch (Kind) {
  case SchedulerKind::Baseline:
    return "Standard";
  case SchedulerKind::ElasticKernels:
    return "EK";
  case SchedulerKind::AccelOSNaive:
    return "accelOS-naive";
  case SchedulerKind::AccelOSOptimized:
    return "accelOS";
  }
  accel_unreachable("bad scheduler kind");
}

double harness::reproScale() {
  const char *Env = std::getenv("ACCELOS_REPRO_SCALE");
  if (!Env)
    return 1.0;
  double V = std::atof(Env);
  return V > 0 ? V : 1.0;
}

ExperimentDriver::ExperimentDriver(const sim::DeviceSpec &Spec)
    : Spec(Spec) {
  // Compile every suite kernel once through the front end and the GPU
  // cleanup pipeline; the solver/batching inputs come from the IR.
  for (const workloads::KernelSpec &WS : workloads::parboilSuite()) {
    Expected<std::unique_ptr<kir::Module>> M =
        minicl::compileSource(WS.Id, WS.Source);
    if (!M)
      reportFatalError(("workload kernel '" + WS.Id +
                        "' failed to compile: " + M.message())
                           .c_str());
    passes::PassManager PM;
    PM.addPass(std::make_unique<passes::InlinerPass>());
    PM.addPass(std::make_unique<passes::ConstantFoldPass>());
    PM.addPass(std::make_unique<passes::DCEPass>());
    cantFail(PM.run(**M));

    kir::Function *K = (*M)->getFunction(WS.KernelName);
    if (!K)
      reportFatalError(("kernel entry '" + WS.KernelName +
                        "' missing in workload '" + WS.Id + "'")
                           .c_str());
    CompiledKernel CK;
    CK.Spec = &WS;
    CK.InstCount = K->instructionCount();
    CK.RegsPerThread = passes::estimateRegisters(*K);
    CK.LocalMemBytes = K->localMemoryBytes();
    CK.WGCosts = workloads::generateWGCosts(WS);
    Kernels.push_back(std::move(CK));
  }
}

sim::KernelLaunchDesc ExperimentDriver::baselineDesc(size_t Idx,
                                                     int AppId) const {
  const CompiledKernel &CK = Kernels[Idx];
  sim::KernelLaunchDesc L;
  L.Name = CK.Spec->Id;
  L.AppId = AppId;
  L.WGThreads = CK.Spec->WGSize;
  L.LocalMemPerWG = CK.LocalMemBytes;
  L.RegsPerThread = CK.RegsPerThread;
  L.IssueEfficiency = CK.Spec->IssueEfficiency;
  L.Mode = sim::KernelLaunchDesc::ModeKind::Static;
  L.StaticCosts = CK.WGCosts;
  return L;
}

ek::EKKernelDesc ExperimentDriver::ekDesc(size_t Idx, int AppId) const {
  const CompiledKernel &CK = Kernels[Idx];
  ek::EKKernelDesc D;
  D.Name = CK.Spec->Id;
  D.AppId = AppId;
  D.WGThreads = CK.Spec->WGSize;
  D.LocalMemPerWG = CK.LocalMemBytes;
  D.RegsPerThread = CK.RegsPerThread;
  D.IssueEfficiency = CK.Spec->IssueEfficiency;
  D.WGCosts = CK.WGCosts;
  return D;
}

accelos::KernelDemand ExperimentDriver::demandFor(size_t Idx) const {
  const CompiledKernel &CK = Kernels[Idx];
  accelos::KernelDemand D;
  D.WGThreads = CK.Spec->WGSize;
  D.LocalMemPerWG = CK.LocalMemBytes + kir::rtlayout::schedDescBytes();
  D.RegsPerThread = CK.RegsPerThread;
  D.RequestedWGs = CK.Spec->NumWGs;
  return D;
}

namespace {

/// A paper batch: every kernel of \p W submitted at time zero, entry
/// \p I as tenant \p I.
std::vector<workloads::TimedRequest> batchTrace(const workloads::Workload &W) {
  std::vector<workloads::TimedRequest> Trace(W.size());
  for (size_t I = 0; I != W.size(); ++I) {
    Trace[I].KernelIdx = W[I];
    Trace[I].Tenant = static_cast<int>(I);
  }
  return Trace;
}

/// The batch is the zero-arrival case of runStream's round-barrier
/// replay: shares are re-solved only at each round's completion
/// boundary, and granted kernels run to completion.
StreamOptions batchOptions() {
  StreamOptions Opts;
  Opts.Admission = StreamOptions::AdmissionMode::RoundSync;
  Opts.RoundQuantum = 0;
  return Opts;
}

} // namespace

double ExperimentDriver::isolatedDuration(SchedulerKind Kind, size_t Idx) {
  auto Key = std::make_pair(static_cast<int>(Kind), Idx);
  auto It = IsolatedCache.find(Key);
  if (It != IsolatedCache.end())
    return It->second;

  double D;
  if (Kind == SchedulerKind::Baseline) {
    // Every replayed request reads its baseline here, so it is one
    // direct engine run rather than a replay of its own.
    sim::Engine Engine(Spec);
    D = Engine.run({baselineDesc(Idx, 0)}).Kernels[0].duration();
  } else {
    StreamOutcome S = runStream(*this, Kind, batchTrace({Idx}),
                                batchOptions());
    D = S.Requests[0].EndTime - S.Requests[0].StartTime;
  }
  IsolatedCache.emplace(Key, D);
  return D;
}

double ExperimentDriver::priorSoloDuration(size_t Idx) {
  auto It = PriorSoloCache.find(Idx);
  if (It != PriorSoloCache.end())
    return It->second;

  const CompiledKernel &CK = Kernels[Idx];
  const workloads::StaticPrior &P = workloads::staticCostPrior(*CK.Spec);
  sim::KernelLaunchDesc L = baselineDesc(Idx, 0);
  L.StaticCosts.assign(CK.WGCosts.size(), P.MeanWGCycles);
  sim::Engine Engine(Spec);
  sim::SimResult R = Engine.run({std::move(L)});
  double D = R.Kernels[0].duration();
  PriorSoloCache.emplace(Idx, D);
  return D;
}

WorkloadOutcome ExperimentDriver::runWorkload(SchedulerKind Kind,
                                              const workloads::Workload &W) {
  StreamOutcome S = runStream(*this, Kind, batchTrace(W), batchOptions());
  WorkloadOutcome Out;
  // Every request arrives at t=0, so its streaming slowdown is the
  // turnaround from common submission: queueing delay behind earlier
  // requests counts against fairness — this is what serializing
  // schedulers are punished for.
  Out.Slowdowns = std::move(S.Slowdowns);
  Out.Unfairness = S.Unfairness;
  Out.Makespan = S.Makespan;
  std::vector<metrics::Interval> Intervals;
  for (const StreamRequestResult &R : S.Requests)
    Intervals.push_back({R.StartTime, R.EndTime});
  Out.Overlap = metrics::executionOverlap(Intervals);
  return Out;
}
