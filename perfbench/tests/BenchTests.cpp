//===- perfbench/tests/BenchTests.cpp - Tests of the benchmark itself -----===//
///
/// \file
/// Unit tests of the benchmark's own code: the summary math on a tiny
/// hand-computed trace, span self times, and the placement decorator,
/// which must leave a fleet replay's schedule digest unchanged. Run by
/// `python3 perfbench/run.py --test`, together with end-to-end checks
/// of the accelbench binary.
///
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Trace.h"
#include "Workloads.h"

#include "cluster/ClusterHarness.h"
#include "workloads/Arrivals.h"

#include <cmath>
#include <cstdio>
#include <thread>

using namespace perfbench;
using namespace accel;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += Ok ? 0 : 1;
}

bool near(double A, double B) { return std::fabs(A - B) <= 1e-9; }

void testPercentiles() {
  check(near(percentile({40, 10, 30, 20}, 25), 17.5),
        "percentile interpolates between closest ranks");
  check(near(median({3, 1, 2}), 2), "median of an odd sample");
  check(near(median({4, 1, 2, 3}), 2.5), "median of an even sample");
}

void testSummary() {
  // Two windows of 10 time units: [0,10) holds slowdowns 1 and 2
  // (ratio 2), [10,20) holds 4 and 6 (ratio 1.5).
  std::vector<RequestSample> Trace = {
      {1, 1.0, 0}, {2, 2.0, 1}, {11, 4.0, 3}, {12, 6.0, 5}};
  SimSummary S = summarize(Trace, /*MeanSolo=*/2, /*Window=*/10);
  // Sorted slowdowns 1 2 4 6: p50 at rank 1.5, p99 at rank 2.97.
  check(near(S.SlowdownP50, 3.0), "summary slowdown p50");
  check(near(S.SlowdownP99, 4 + 0.97 * 2), "summary slowdown p99");
  // Queueing excess 0 1 3 5 over a mean solo duration of 2.
  check(near(S.QueueP99, (3 + 0.97 * 2) / 2), "summary queue p99");
  check(near(S.Unfairness, (2.0 + 1.5) / 2), "summary windowed unfairness");
}

void testSelfTimes() {
  SpanLog Log(0);
  size_t Root = Log.open(Layer::Bench, "measure", -1);
  size_t Child = Log.open(Layer::Harness, "replay", -1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Log.close(Child);
  Log.close(Root);
  size_t Setup = Log.open(Layer::Jit, "setup", -1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Log.close(Setup);
  std::array<double, NumLayers> Self = selfSeconds(Log, "measure");
  double Harness = Self[static_cast<size_t>(Layer::Harness)];
  double Bench = Self[static_cast<size_t>(Layer::Bench)];
  check(Harness >= 0.019, "child span keeps its own time");
  check(Bench < Harness / 10, "parent self time excludes its child");
  check(Self[static_cast<size_t>(Layer::Jit)] == 0,
        "spans outside the named root are not counted");
}

/// One small outage replay on a two-device fleet; \returns its digest.
std::string fleetDigest(cluster::Fleet &F, cluster::PlacementPolicy &P) {
  double FleetRate = 1 / F.meanSoloDuration(0) + 1 / F.meanSoloDuration(1);
  workloads::TraceOptions TOpts;
  TOpts.NumRequests = 80;
  TOpts.NumTenants = 4;
  TOpts.MeanInterarrival = 1.0 / (0.9 * FleetRate);
  TOpts.Seed = 7;
  std::vector<workloads::TimedRequest> Trace =
      workloads::poissonTrace(F.driver(0).numKernels(), TOpts);
  double Span = 80 * TOpts.MeanInterarrival;
  harness::ClusterOptions Opts;
  Opts.Stream.RoundQuantum = 0.25 * F.meanSoloDurationAcrossFleet();
  Opts.MaxRetries = 64;
  Opts.Migration.Enabled = true;
  Opts.FleetPlan = {
      {.Time = 0.3 * Span, .Device = 1,
       .What = harness::FleetEvent::Kind::Down},
      {.Time = 0.6 * Span, .Device = 1, .What = harness::FleetEvent::Kind::Up}};
  harness::ClusterOutcome O = harness::runClusterReplay(
      F, P, harness::ClusterWorkload::openLoop(Trace), Opts);
  Digest D;
  digestSchedule(O.Stream, &O.Placement, D);
  return D.hex();
}

void testDecoratorKeepsDigest() {
  cluster::Fleet F;
  F.addDevice(sim::DeviceSpec::nvidiaK20m());
  F.addDevice(sim::DeviceSpec::amdR9295X2());
  std::unique_ptr<cluster::PlacementPolicy> Plain =
      cluster::makePlacementPolicy(cluster::PlacementKind::HeterogeneityAware);
  std::string Reference = fleetDigest(F, *Plain);

  std::unique_ptr<cluster::PlacementPolicy> Inner =
      cluster::makePlacementPolicy(cluster::PlacementKind::HeterogeneityAware);
  SpanLog Log(0);
  TimedPlacement Timed(*Inner, &Log);
  std::string Decorated = fleetDigest(F, Timed);
  check(Decorated == Reference, "placement decorator keeps the digest");
  check(Timed.PlaceCalls > 0 && Timed.SuggestCalls > 0,
        "decorator times place and suggestMigration");
  check(Log.spans().size() == Timed.PlaceCalls + Timed.SuggestCalls,
        "decorator records one span per timed decision");
  check(fleetDigest(F, *Plain) == Reference,
        "the undecorated replay is deterministic");
}

void testDigestSeesPlacement() {
  harness::StreamOutcome O;
  O.Requests.resize(2);
  O.Requests[1].EndTime = 5;
  std::vector<size_t> A = {0, 1}, B = {0, 0};
  Digest DA, DB;
  digestSchedule(O, &A, DA);
  digestSchedule(O, &B, DB);
  check(DA.value() != DB.value(), "digest changes with placement");
}

} // namespace

int main() {
  testPercentiles();
  testSummary();
  testSelfTimes();
  testDigestSeesPlacement();
  testDecoratorKeepsDigest();
  std::printf("%d failure(s)\n", Failures);
  return Failures == 0 ? 0 : 1;
}
