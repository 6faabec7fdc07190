//===- examples/streaming_server.cpp - Tenants arriving over time ------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-driven serving story: two tenants submit kernels *over
/// time* rather than in one batch. The functional view drives the real
/// runtime's continuous admission — each submitNDRange is an arrival
/// event admitted into the residual device capacity, completion
/// callbacks report retirements, and a 3:1 sharing weight skews the
/// work-group allocation. The timing view replays a seeded Poisson
/// arrival trace through the streaming harness twice — once
/// round-synchronous, once with arrival-aware continuous admission —
/// and shows both the premium tenant's latency percentiles pulling
/// ahead of the basic tenant's under the same weights and the queueing
/// delay the round boundary was costing every request.
///
//===----------------------------------------------------------------------===//

#include "accelos/ProxyCL.h"
#include "harness/Streaming.h"
#include "harness/Table.h"
#include "metrics/Metrics.h"
#include "support/RawOstream.h"
#include "support/StringUtil.h"
#include "workloads/Arrivals.h"

using namespace accel;

int main() {
  raw_ostream &OS = outs();
  OS << "=== Streaming multi-tenant server (weighted sharing) ===\n\n";

  // --- Functional view: two tenants, two bursts, one weighted queue. -----
  auto Device = ocl::Platform::createNvidiaK20m();
  accelos::Runtime AccelOS(*Device);
  AccelOS.setAppWeight(/*AppId=*/1, 3.0); // premium tenant

  const char *Source = R"(
    kernel void axpy(global float* d, float a) {
      long gid = get_global_id(0);
      d[gid] = d[gid] * a + 1.0f;
    }
  )";

  accelos::ProxyCL Premium(AccelOS, 1), Basic(AccelOS, 2);
  struct Tenant {
    accelos::ProxyCL *App;
    ocl::Program *P;
    std::vector<ocl::Kernel> Ks;
    std::vector<ocl::Buffer> Bs;
  };
  std::vector<Tenant> Tenants;
  for (accelos::ProxyCL *App : {&Premium, &Basic}) {
    Tenant T;
    T.App = App;
    T.P = cantFail(App->createProgram(Source));
    Tenants.push_back(std::move(T));
  }

  constexpr int N = 64 * 256;
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = N;
  Range.LocalSize[0] = 64;

  // A completion callback plays the server's response path: every
  // retirement is reported as it happens, on the thread driving the
  // runtime pump.
  uint64_t Retired = 0;
  AccelOS.onCompletion([&](const accelos::ScheduledExecution &E) {
    ++Retired;
    OS << "  [t=" << static_cast<uint64_t>(E.EndTime) << "] app "
       << E.AppId << " retired request " << E.RequestId << "\n";
  });

  // Two submission bursts: each tenant submits one kernel per burst
  // asynchronously — every submit is an arrival event admitted into
  // the residual capacity, no round barrier — and the server drains
  // between bursts as tenants come back with more work.
  for (int Burst = 0; Burst != 2; ++Burst) {
    for (Tenant &T : Tenants) {
      ocl::Kernel K = cantFail(T.App->createKernel(*T.P, "axpy"));
      ocl::Buffer B = cantFail(T.App->createBuffer(N * 4));
      std::vector<float> Init(N, 1.0f);
      cantFail(B.write(Init.data(), N * 4));
      cantFail(T.App->setKernelArg(K, 0, ocl::KernelArg::buffer(B)));
      cantFail(
          T.App->setKernelArg(K, 1, ocl::KernelArg::scalarF32(2.0f)));
      T.Ks.push_back(std::move(K));
      T.Bs.push_back(std::move(B));
      cantFail(T.App->submitNDRange(T.Ks.back(), Range));
    }
    auto Execs = cantFail(AccelOS.drain());
    OS << "burst " << Burst << ": " << Execs.size()
       << " executions\n";
    for (const auto &E : Execs)
      OS << "  admitted t=" << static_cast<uint64_t>(E.AdmitTime)
         << ", finished t=" << static_cast<uint64_t>(E.EndTime)
         << ": app " << E.AppId << " got " << E.PhysicalWGs << "/"
         << E.OriginalWGs << " work groups (weight "
         << (E.AppId == 1 ? "3.0" : "1.0") << ")\n";
  }
  OS << "callbacks observed " << Retired << " retirements\n";
  std::vector<float> OutV(N);
  cantFail(Tenants[0].Bs[0].read(OutV.data(), N * 4));
  OS << "result check (1*2+1): " << OutV[0] << "\n\n";

  // --- Timing view: a Poisson stream replayed under the weights. ---------
  // The spec is the single source of the device identity: swap in a
  // custom fleet spec and the printed label follows it.
  sim::DeviceSpec Spec = sim::DeviceSpec::nvidiaK20m();
  harness::ExperimentDriver Driver(Spec);
  OS << "Timing view: 32 requests, 2 tenants, premium weighted 3:1, on "
     << Driver.device().Name << "\n";
  double MeanDur = harness::meanIsolatedBaselineDuration(Driver);

  workloads::TraceOptions TOpts;
  TOpts.NumRequests = 32;
  TOpts.NumTenants = 2;
  TOpts.MeanInterarrival = MeanDur;
  TOpts.Seed = 7;
  auto Trace = workloads::poissonTrace(Driver.numKernels(), TOpts);

  harness::StreamOptions SOpts;
  SOpts.Weights = {{0, 3.0}, {1, 1.0}}; // tenant 0 is premium
  SOpts.RoundQuantum = 0.25 * MeanDur;
  SOpts.Admission = harness::StreamOptions::AdmissionMode::RoundSync;
  harness::StreamOptions COpts = SOpts;
  COpts.Admission = harness::StreamOptions::AdmissionMode::Continuous;
  harness::StreamOutcome O = harness::runStream(
      Driver, harness::SchedulerKind::AccelOSOptimized, Trace, SOpts);
  harness::StreamOutcome C = harness::runStream(
      Driver, harness::SchedulerKind::AccelOSOptimized, Trace, COpts);

  harness::TextTable T({"Admission", "Tenant", "Weight", "Requests",
                        "p50 latency", "p95 latency"});
  const std::pair<const char *, const harness::StreamOutcome *> Runs[] =
      {{"round-sync", &O}, {"continuous", &C}};
  for (const auto &[Name, Outcome] : Runs)
    for (const auto &[Tenant, Lats] : Outcome->latenciesByTenant())
      T.addRow({Name, std::to_string(Tenant),
                Tenant == 0 ? "3.0" : "1.0",
                std::to_string(Lats.size()),
                formatDouble(metrics::latencyPercentile(Lats, 50), 0),
                formatDouble(metrics::latencyPercentile(Lats, 95), 0)});
  T.print(OS);
  OS << "\nround-sync: " << O.Rounds << " rounds, " << O.Deferrals
     << " deferrals; unfairness ";
  OS.printFixed(O.Unfairness, 2);
  OS << "; mean queueing delay ";
  OS.printFixed(metrics::mean(O.queueDelays()), 0);
  OS << "\ncontinuous: " << C.Rounds << " admission passes, "
     << C.Deferrals << " deferrals; unfairness ";
  OS.printFixed(C.Unfairness, 2);
  OS << "; mean queueing delay ";
  OS.printFixed(metrics::mean(C.queueDelays()), 0);
  OS << "\n";
  return 0;
}
