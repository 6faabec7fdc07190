//===- tests/RuntimeAsyncTests.cpp - Continuous Runtime & async clients ------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The continuous/async Runtime surface: bit-identity of the continuous
/// pump against a hand-rolled ContinuousScheduler + EngineSession
/// reference loop, the bursty-trace queueing-delay gate (sliced
/// continuous admission must beat unsliced admission on mean AND p95),
/// the multi-producer submit/wait stress (the TSan target), callback
/// dispatch including re-entrant submission, event-time semantics of
/// ScheduledExecution, and rejection of non-finite arrival times.
///
//===----------------------------------------------------------------------===//

#include "accelos/AdaptivePolicy.h"
#include "accelos/AdmissionLoop.h"
#include "accelos/ProxyCL.h"
#include "accelos/ResourceSolver.h"
#include "accelos/Runtime.h"
#include "accelos/Scheduler.h"
#include "sim/DeviceSpec.h"
#include "sim/Engine.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

using namespace accel;
using namespace accel::accelos;

namespace {

const char *WorkSource = R"(
  kernel void work(global float* d, float f) {
    long gid = get_global_id(0);
    d[gid] = d[gid] * f + 1.0f;
  }
)";

/// One application: proxy, a built kernel with bound args, its buffer.
struct TestApp {
  std::unique_ptr<ProxyCL> Proxy;
  std::unique_ptr<ocl::Kernel> K;
  std::unique_ptr<ocl::Buffer> B;
};

TestApp makeApp(Runtime &RT, int AppId, int N) {
  TestApp A;
  A.Proxy = std::make_unique<ProxyCL>(RT, AppId);
  ocl::Program *P = cantFail(A.Proxy->createProgram(WorkSource));
  A.K = std::make_unique<ocl::Kernel>(
      cantFail(A.Proxy->createKernel(*P, "work")));
  A.B = std::make_unique<ocl::Buffer>(
      cantFail(A.Proxy->createBuffer(static_cast<uint64_t>(N) * 4)));
  std::vector<float> Init(N, 1.0f);
  cantFail(A.B->write(Init.data(), static_cast<uint64_t>(N) * 4));
  cantFail(A.Proxy->setKernelArg(*A.K, 0, ocl::KernelArg::buffer(*A.B)));
  cantFail(
      A.Proxy->setKernelArg(*A.K, 1, ocl::KernelArg::scalarF32(2.0f)));
  return A;
}

kir::NDRangeCfg range1D(int N, int Local) {
  kir::NDRangeCfg R;
  R.GlobalSize[0] = static_cast<uint64_t>(N);
  R.LocalSize[0] = static_cast<uint64_t>(Local);
  return R;
}

/// A 1-CU device three 128-thread tenants cannot share: forces
/// deferrals and multi-round flushes.
sim::DeviceSpec smallSpec() {
  sim::DeviceSpec S = sim::DeviceSpec::nvidiaK20m();
  S.NumCUs = 1;
  S.MaxThreadsPerCU = 256;
  S.MaxWGsPerCU = 8;
  return S;
}

double meanOf(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

double p95Of(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(V.size())));
  return V[Idx == 0 ? 0 : Idx - 1];
}

//===----------------------------------------------------------------------===//
// Bit-identity: Runtime continuous pump vs a hand-rolled reference loop
//===----------------------------------------------------------------------===//

namespace {

struct RefRequest {
  KernelDemand Demand;
  std::vector<double> WGCosts;
  size_t Cursor = 0;
  uint64_t Inst = 0;
};

/// The serving harness's continuous replay structure (feed due arrivals
/// -> admission passes to fixpoint -> advance to the next event ->
/// complete/requeue), built from the same shared pieces the Runtime
/// pump uses: ContinuousScheduler, EngineSession, runAdmissionPass and
/// quantumSliceEnd.
std::vector<GrantRecord> runReferenceContinuous(
    const sim::DeviceSpec &Spec, std::vector<RefRequest> &Reqs,
    const std::vector<std::pair<double, uint64_t>> &Arrivals,
    double Quantum) {
  ContinuousScheduler Sched(ResourceCaps::fromDevice(Spec));
  sim::EngineSession Session(Spec);
  std::vector<GrantRecord> Log;
  std::vector<sim::KernelLaunchDesc> LaunchBuf;
  std::vector<sim::KernelExecResult> Comp;
  size_t Next = 0;
  bool NeedAdmit = false;
  auto submitReq = [&](uint64_t Id) {
    RefRequest &R = Reqs[Id];
    RoundRequest RR;
    RR.Id = Id;
    RR.Demand = R.Demand;
    RR.Demand.RequestedWGs = R.WGCosts.size() - R.Cursor;
    Sched.submit(RR);
  };
  for (;;) {
    double T = Session.now();
    while (Next != Arrivals.size() && Arrivals[Next].first <= T) {
      submitReq(Arrivals[Next].second);
      ++Next;
      NeedAdmit = true;
    }
    while (NeedAdmit)
      NeedAdmit = runAdmissionPass(
          Sched, Session, LaunchBuf,
          [&](uint64_t Id,
              uint64_t WGs) -> std::optional<sim::KernelLaunchDesc> {
            Log.push_back({Id, WGs});
            RefRequest &R = Reqs[Id];
            size_t End = quantumSliceEnd(R.WGCosts, R.Cursor, WGs,
                                         R.Demand.WGThreads, 1.0, Quantum);
            sim::KernelLaunchDesc L;
            L.AppId = static_cast<int>(Id);
            L.ArrivalTime = T;
            L.WGThreads = R.Demand.WGThreads;
            L.LocalMemPerWG = R.Demand.LocalMemPerWG;
            L.RegsPerThread = R.Demand.RegsPerThread;
            L.IssueEfficiency = 1.0;
            L.Mode = sim::KernelLaunchDesc::ModeKind::WorkQueue;
            L.ViewCosts = R.WGCosts.data();
            L.ViewBegin = R.Cursor;
            L.ViewEnd = End;
            uint64_t SliceLen = End - R.Cursor;
            L.PhysicalWGs =
                std::min<uint64_t>(std::max<uint64_t>(WGs, 1), SliceLen);
            L.Batch = cappedBatchFor(SchedulingMode::Optimized, R.Inst,
                                     SliceLen, L.PhysicalWGs);
            R.Cursor = End;
            return L;
          },
          [&](uint64_t) {});
    if (Next == Arrivals.size()) {
      if (!Session.advanceNextEvent(Comp))
        break;
    } else {
      double NE = Session.nextEventTime();
      double NA = Arrivals[Next].first;
      double Target = NE < 0 ? NA : std::min(NE, NA);
      Session.advanceTo(std::max(Target, T), Comp);
    }
    for (const sim::KernelExecResult &K : Comp) {
      uint64_t Id = static_cast<uint64_t>(K.AppId);
      Sched.complete(Id);
      NeedAdmit = true;
      if (Reqs[Id].Cursor < Reqs[Id].WGCosts.size())
        submitReq(Id);
    }
  }
  return Log;
}

} // namespace

TEST(RuntimeBitIdentityTest, ContinuousGrantHistoryMatchesReferenceLoop) {
  sim::DeviceSpec Spec = smallSpec();
  constexpr double Quantum = 2000;
  ocl::Device Dev(Spec);
  RuntimeOptions ROpts; // Continuous is the default mode.
  ROpts.SliceQuantum = Quantum;
  ROpts.RecordGrantHistory = true;
  Runtime RT(Dev, SchedulingMode::Optimized, ROpts);

  // 64 work groups per request on the 1-CU device: the quantum cuts
  // each grant into many timing slices.
  constexpr int N = 64 * 64;
  std::vector<TestApp> Apps;
  for (int I = 0; I != 3; ++I)
    Apps.push_back(makeApp(RT, I + 1, N));
  kir::NDRangeCfg Range = range1D(N, 64);

  // Scripted trace: two same-instant arrivals, then two staggered ones
  // (app 1 comes back with more work).
  struct Sub {
    size_t App;
    double At;
  };
  const Sub Script[] = {{0, 0}, {1, 0}, {2, 30000}, {0, 60000}};

  // Reference inputs from exactly the runtime's cost model.
  std::vector<RefRequest> Reqs;
  std::vector<std::pair<double, uint64_t>> Arr;
  for (const Sub &S : Script) {
    KernelCostModel M = cantFail(RT.costModel(*Apps[S.App].K, Range));
    RefRequest R;
    R.Demand = M.Demand;
    R.WGCosts.assign(Range.totalGroups(), M.WGCost);
    R.Inst = M.ComputeInstCount;
    Arr.push_back({S.At, Reqs.size()});
    Reqs.push_back(std::move(R));
  }
  std::vector<GrantRecord> RefLog =
      runReferenceContinuous(Spec, Reqs, Arr, Quantum);

  for (const Sub &S : Script)
    cantFail(Apps[S.App].Proxy->submitNDRangeAt(*Apps[S.App].K, Range,
                                                S.At));
  auto Execs = RT.drain();
  ASSERT_TRUE(static_cast<bool>(Execs)) << Execs.message();
  EXPECT_EQ(Execs->size(), 4u);

  ASSERT_EQ(RT.grantHistory().size(), RefLog.size());
  for (size_t I = 0; I != RefLog.size(); ++I) {
    EXPECT_EQ(RT.grantHistory()[I].Id, RefLog[I].Id) << "grant " << I;
    EXPECT_EQ(RT.grantHistory()[I].WGs, RefLog[I].WGs) << "grant " << I;
  }
  // Slicing actually happened: more grants than requests.
  EXPECT_GT(RefLog.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Acceptance gate: work slicing beats run-to-completion grants
//===----------------------------------------------------------------------===//

TEST(RuntimeQueueingTest, BurstyTraceSlicedBeatsUnsliced) {
  constexpr int HeavyN = 64 * 4096; // 4096 work groups: many waves.
  constexpr int LightN = 64 * 4;    // 4 work groups: one wave.
  const int Local = 64;

  // Solo probe: how long does the heavy kernel run alone? Scales the
  // script to the cost model instead of hard-coding cycle counts.
  double HeavyDur = 0;
  {
    auto Dev = ocl::Platform::createNvidiaK20m();
    Runtime RT(*Dev);
    TestApp Heavy = makeApp(RT, 1, HeavyN);
    RequestHandle H = cantFail(
        Heavy.Proxy->submitNDRange(*Heavy.K, range1D(HeavyN, Local)));
    ScheduledExecution E = cantFail(H.wait());
    HeavyDur = E.EndTime - E.StartTime;
    ASSERT_GT(HeavyDur, 0);
  }

  // The bursty script: the heavy request arrives first and occupies the
  // device; two light tenants burst in while it runs.
  struct Sub {
    int App; // 0 = heavy, 1..2 = light tenants
    double At;
  };
  std::vector<Sub> Script = {{0, 0}};
  for (int Burst = 0; Burst != 4; ++Burst)
    for (int App = 1; App != 3; ++App)
      Script.push_back({App, (0.05 + 0.1 * Burst) * HeavyDur});

  auto runScript = [&](RuntimeOptions ROpts) {
    auto Dev = ocl::Platform::createNvidiaK20m();
    Runtime RT(*Dev, SchedulingMode::Optimized, ROpts);
    TestApp Heavy = makeApp(RT, 1, HeavyN);
    TestApp Light1 = makeApp(RT, 2, LightN);
    TestApp Light2 = makeApp(RT, 3, LightN);
    TestApp *Apps[] = {&Heavy, &Light1, &Light2};
    const int Ns[] = {HeavyN, LightN, LightN};
    for (const Sub &S : Script)
      cantFail(Apps[S.App]->Proxy->submitNDRangeAt(
          *Apps[S.App]->K, range1D(Ns[S.App], Local), S.At));
    auto Execs = cantFail(RT.drain());
    std::vector<double> Delays;
    for (const ScheduledExecution &E : Execs)
      Delays.push_back(E.queueDelay());
    return Delays;
  };

  RuntimeOptions WholeOpts; // Continuous default, no slicing.
  WholeOpts.SliceQuantum = 0;
  std::vector<double> WholeDelays = runScript(WholeOpts);

  RuntimeOptions SlicedOpts;
  SlicedOpts.SliceQuantum = HeavyDur / 16;
  std::vector<double> SlicedDelays = runScript(SlicedOpts);

  ASSERT_EQ(WholeDelays.size(), Script.size());
  ASSERT_EQ(SlicedDelays.size(), Script.size());
  // The gate: quantum slicing strictly beats run-to-completion grants
  // on both mean and tail queueing delay for this bursty trace — the
  // heavy request hands its share back every quantum instead of
  // holding it for its whole run.
  EXPECT_LT(meanOf(SlicedDelays), meanOf(WholeDelays));
  EXPECT_LT(p95Of(SlicedDelays), p95Of(WholeDelays));
}

//===----------------------------------------------------------------------===//
// Multi-producer stress (the TSan target)
//===----------------------------------------------------------------------===//

TEST(RuntimeAsyncTest, FourProducerSubmitWaitStress) {
  constexpr int NumProducers = 4;
  constexpr int PerProducer = 8;
  constexpr int N = 64 * 64;

  auto Dev = ocl::Platform::createNvidiaK20m();
  RuntimeOptions ROpts;
  ROpts.SliceQuantum = 500; // Force slicing under contention.
  Runtime RT(*Dev, SchedulingMode::Optimized, ROpts);

  // Setup is NOT thread-safe: every producer's program, kernel and
  // buffer are created on the main thread.
  std::vector<TestApp> Apps;
  for (int I = 0; I != NumProducers; ++I)
    Apps.push_back(makeApp(RT, I + 1, N));
  kir::NDRangeCfg Range = range1D(N, 64);

  std::atomic<int> Callbacks{0};
  std::atomic<int> Failures{0};
  std::vector<std::thread> Producers;
  for (int P = 0; P != NumProducers; ++P)
    Producers.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I) {
        Expected<RequestHandle> H = Apps[P].Proxy->submitNDRange(
            *Apps[P].K, Range, [&](const ScheduledExecution &) {
              Callbacks.fetch_add(1, std::memory_order_relaxed);
            });
        if (!H) {
          Failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        Expected<ScheduledExecution> E = H->wait();
        if (!E || E->AppId != P + 1 || E->EndTime <= E->ArrivalTime)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Producers)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Callbacks.load(), NumProducers * PerProducer);
  EXPECT_EQ(RT.stats().KernelsScheduled,
            static_cast<uint64_t>(NumProducers * PerProducer));
  EXPECT_EQ(RT.pendingRequests(), 0u);
}

//===----------------------------------------------------------------------===//
// Callback dispatch
//===----------------------------------------------------------------------===//

TEST(RuntimeAsyncTest, CallbacksFireAndMayResubmit) {
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);
  TestApp App = makeApp(RT, 1, 256);
  kir::NDRangeCfg Range = range1D(256, 64);

  int Global = 0;
  RT.onCompletion([&](const ScheduledExecution &) { ++Global; });

  // The first request's completion callback submits a follow-up — the
  // re-entrant path: callbacks run outside the runtime lock.
  bool FollowUpRetired = false;
  uint64_t FirstId = ~0ull;
  cantFail(App.Proxy->submitNDRange(
      *App.K, Range, [&](const ScheduledExecution &E) {
        FirstId = E.RequestId;
        cantFail(App.Proxy->submitNDRange(
            *App.K, Range, [&](const ScheduledExecution &) {
              FollowUpRetired = true;
            }));
      }));

  auto Execs = cantFail(RT.drain());
  ASSERT_EQ(Execs.size(), 2u);
  EXPECT_EQ(Execs[0].RequestId, FirstId);
  EXPECT_TRUE(FollowUpRetired);
  EXPECT_EQ(Global, 2);
  EXPECT_EQ(RT.pendingRequests(), 0u);
}

//===----------------------------------------------------------------------===//
// Event-time semantics and result consumption
//===----------------------------------------------------------------------===//

TEST(RuntimeAsyncTest, EventTimesAreMonotoneAndResultsConsumeOnce) {
  sim::DeviceSpec Spec = smallSpec();
  ocl::Device Dev(Spec);
  RuntimeOptions ROpts;
  ROpts.SliceQuantum = 300; // Small quantum: big requests multi-slice.
  Runtime RT(Dev, SchedulingMode::Optimized, ROpts);

  std::vector<TestApp> Apps;
  for (int I = 0; I != 3; ++I)
    Apps.push_back(makeApp(RT, I + 1, 64 * 64));
  kir::NDRangeCfg Range = range1D(64 * 64, 64);

  std::vector<RequestHandle> Hs;
  for (TestApp &A : Apps)
    Hs.push_back(cantFail(A.Proxy->submitNDRange(*A.K, Range)));

  // Consume the middle request through its handle...
  ScheduledExecution Mid = cantFail(Hs[1].wait());
  EXPECT_EQ(Mid.AppId, 2);
  EXPECT_GT(Mid.Slices, 1u) << "quantum slicing must have engaged";
  EXPECT_LE(Mid.ArrivalTime, Mid.AdmitTime);
  EXPECT_LE(Mid.AdmitTime, Mid.StartTime);
  EXPECT_LT(Mid.StartTime, Mid.EndTime);
  EXPECT_TRUE(Hs[1].done());
  EXPECT_EQ(Hs[1].status(), RequestStatus::Completed);

  // ...a second wait on the same request reports consumption...
  Expected<ScheduledExecution> Again = Hs[1].wait();
  EXPECT_FALSE(static_cast<bool>(Again));
  EXPECT_NE(Again.message().find("consumed"), std::string::npos);

  // ...and drain reports exactly the two unconsumed requests, in
  // first-grant order, with monotone event times.
  auto Rest = cantFail(RT.drain());
  ASSERT_EQ(Rest.size(), 2u);
  for (const ScheduledExecution &E : Rest) {
    EXPECT_NE(E.RequestId, Mid.RequestId);
    EXPECT_LE(E.ArrivalTime, E.AdmitTime);
    EXPECT_LE(E.AdmitTime, E.StartTime);
    EXPECT_LT(E.StartTime, E.EndTime);
    EXPECT_GE(E.Slices, 1u);
  }
  EXPECT_LE(Rest[0].AdmitTime, Rest[1].AdmitTime);
}

TEST(RuntimeAsyncTest, WaitOnUnknownRequestFails) {
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);
  Expected<ScheduledExecution> E = RT.wait(42);
  EXPECT_FALSE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("unknown request"), std::string::npos);
}

TEST(RuntimeAsyncTest, InvalidHandlesAndUnknownIdsReportFailed) {
  // A default-constructed handle names no runtime: polling it must end
  // and waiting on it must fail cleanly instead of crashing.
  RequestHandle H;
  EXPECT_FALSE(H.valid());
  EXPECT_EQ(H.status(), RequestStatus::Failed);
  EXPECT_TRUE(H.done());
  Expected<ScheduledExecution> E = H.wait();
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("invalid request handle"), std::string::npos);

  // An id the runtime never issued is Failed, as wait() reports it, so
  // a done() poll loop on it terminates.
  auto Dev = ocl::Platform::createNvidiaK20m();
  Runtime RT(*Dev);
  EXPECT_EQ(RT.status(42), RequestStatus::Failed);
  EXPECT_TRUE(RT.done(42));
}

TEST(RuntimeAsyncTest, NonFiniteArrivalTimesAreRejected) {
  sim::DeviceSpec Spec = smallSpec();
  ocl::Device Dev(Spec);
  Runtime RT(Dev);
  TestApp A = makeApp(RT, 1, 64 * 64);
  kir::NDRangeCfg Range = range1D(64 * 64, 64);

  for (double At : {std::nan(""), HUGE_VAL}) {
    Expected<RequestHandle> H = RT.submitAt(1, *A.K, Range, At);
    ASSERT_FALSE(static_cast<bool>(H)) << "arrival " << At;
    EXPECT_NE(H.message().find("not finite"), std::string::npos);
  }
  EXPECT_EQ(RT.pendingRequests(), 0u);

  // The rejected arrivals left nothing behind: a later submission still
  // completes on drain.
  cantFail(A.Proxy->submitNDRange(*A.K, Range));
  auto Done = cantFail(RT.drain());
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Done[0].AppId, 1);
  EXPECT_LT(Done[0].StartTime, Done[0].EndTime);
}

} // namespace
