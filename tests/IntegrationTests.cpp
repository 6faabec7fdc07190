//===- tests/IntegrationTests.cpp - End-to-end shape tests --------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end assertions on the *shapes* the paper reports: fairness
/// improves dramatically under accelOS, overlap rises, EK sits in
/// between or below, and single-kernel overheads stay small. Absolute
/// values are not pinned (the device is a model), only orderings and
/// rough magnitudes.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "metrics/Metrics.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace accel;
using namespace accel::harness;

namespace {

size_t indexOf(const std::string &Id) {
  const auto &Suite = workloads::parboilSuite();
  for (size_t I = 0; I != Suite.size(); ++I)
    if (Suite[I].Id == Id)
      return I;
  return ~size_t(0);
}

class IntegrationNvidia : public ::testing::Test {
protected:
  static ExperimentDriver &driver() {
    static ExperimentDriver D(sim::DeviceSpec::nvidiaK20m());
    return D;
  }
};

TEST_F(IntegrationNvidia, MeanFairnessImprovesOverPairs) {
  // The paper's headline claim holds *on average* over workloads (a few
  // percent of individual workloads may regress, Fig. 10). Sample pairs
  // and compare mean unfairness.
  auto Pairs = workloads::randomCombinations(2, 24, 11);
  double BaseSum = 0, AOSSum = 0;
  for (const auto &W : Pairs) {
    BaseSum += driver().runWorkload(SchedulerKind::Baseline, W).Unfairness;
    AOSSum +=
        driver().runWorkload(SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_GT(BaseSum, 1.5 * AOSSum)
      << "mean fairness improvement below 1.5x";
}

TEST_F(IntegrationNvidia, MotivationWorkloadShape) {
  // The paper's Sec. 2.1 example set: bfs + cutcp + stencil + tpacf.
  // Under accelOS all four must co-execute; under the standard stack
  // they serialize.
  workloads::Workload W = {indexOf("bfs"), indexOf("cutcp"),
                           indexOf("stencil"), indexOf("tpacf")};
  auto Base = driver().runWorkload(SchedulerKind::Baseline, W);
  auto AOS = driver().runWorkload(SchedulerKind::AccelOSOptimized, W);
  EXPECT_LT(Base.Overlap, 0.2);
  // All four must genuinely co-execute; the all-K overlap window is
  // bounded by the duration ratio of the shortest to longest kernel.
  EXPECT_GT(AOS.Overlap, 2.0 * Base.Overlap + 0.1);
}

TEST_F(IntegrationNvidia, BaselineSerializesAccelOSOverlaps) {
  workloads::Workload W = {indexOf("lbm"), indexOf("sgemm")};
  auto Base = driver().runWorkload(SchedulerKind::Baseline, W);
  auto AOS = driver().runWorkload(SchedulerKind::AccelOSOptimized, W);
  EXPECT_LT(Base.Overlap, 0.5);
  EXPECT_GT(AOS.Overlap, 0.7);
}

TEST_F(IntegrationNvidia, UnfairnessGrowsWithRequestCount) {
  workloads::Workload W2 = {indexOf("cutcp"), indexOf("tpacf")};
  workloads::Workload W4 = {indexOf("cutcp"), indexOf("tpacf"),
                            indexOf("bfs"), indexOf("spmv")};
  workloads::Workload W8 = {indexOf("cutcp"), indexOf("tpacf"),
                            indexOf("bfs"), indexOf("spmv"),
                            indexOf("lbm"), indexOf("sgemm"),
                            indexOf("stencil"), indexOf("histo_main")};
  double U2 = driver().runWorkload(SchedulerKind::Baseline, W2).Unfairness;
  double U4 = driver().runWorkload(SchedulerKind::Baseline, W4).Unfairness;
  double U8 = driver().runWorkload(SchedulerKind::Baseline, W8).Unfairness;
  EXPECT_LT(U2, U4);
  EXPECT_LT(U4, U8);

  // accelOS keeps unfairness bounded as the paper reports (1.2-3.5).
  double A8 =
      driver().runWorkload(SchedulerKind::AccelOSOptimized, W8).Unfairness;
  EXPECT_LT(A8, U8 / 1.5);
}

TEST_F(IntegrationNvidia, AccelOSBeatsElasticKernelsAtScale) {
  // EK's static allocation degrades as requests grow (paper Sec. 8.1);
  // at 8 requests accelOS is clearly fairer on average.
  auto Octets = workloads::randomCombinations(8, 10, 21);
  double EKSum = 0, AOSSum = 0;
  for (const auto &W : Octets) {
    EKSum +=
        driver().runWorkload(SchedulerKind::ElasticKernels, W).Unfairness;
    AOSSum +=
        driver().runWorkload(SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_LT(AOSSum, EKSum);
}

TEST_F(IntegrationNvidia, SingleKernelOverheadSmall) {
  // Paper Fig. 15: optimized accelOS is within a few percent of (and on
  // average better than) the standard stack for isolated kernels.
  for (const char *Id : {"sgemm", "lbm", "spmv", "tpacf", "bfs"}) {
    size_t Idx = indexOf(Id);
    double Base = driver().isolatedDuration(SchedulerKind::Baseline, Idx);
    double Opt =
        driver().isolatedDuration(SchedulerKind::AccelOSOptimized, Idx);
    double Naive =
        driver().isolatedDuration(SchedulerKind::AccelOSNaive, Idx);
    EXPECT_LT(Opt, Base * 1.10) << Id;
    EXPECT_LT(Naive, Base * 1.15) << Id;
    // Optimized batching never loses to naive by much.
    EXPECT_LT(Opt, Naive * 1.05) << Id;
  }
}

TEST_F(IntegrationNvidia, SlowdownsAreAtLeastOneIsh) {
  workloads::Workload W = {indexOf("cutcp"), indexOf("sgemm")};
  auto AOS = driver().runWorkload(SchedulerKind::AccelOSOptimized, W);
  for (double S : AOS.Slowdowns)
    EXPECT_GT(S, 0.5);
}

TEST(IntegrationAmd, ExclusiveAdmissionSerializesBaseline) {
  ExperimentDriver D(sim::DeviceSpec::amdR9295X2());
  workloads::Workload W = {indexOf("lbm"), indexOf("sgemm")};
  auto Base = D.runWorkload(SchedulerKind::Baseline, W);
  auto AOS = D.runWorkload(SchedulerKind::AccelOSOptimized, W);
  // AMD-like baseline: almost no overlap (paper Fig. 12b: 4%).
  EXPECT_LT(Base.Overlap, 0.1);
  EXPECT_GT(AOS.Overlap, 0.6);
}

TEST(IntegrationAmd, MeanFairnessImprovesForEightRequests) {
  ExperimentDriver D(sim::DeviceSpec::amdR9295X2());
  auto Combos = workloads::randomCombinations(8, 8, 123);
  double BaseSum = 0, AOSSum = 0;
  for (const auto &W : Combos) {
    BaseSum += D.runWorkload(SchedulerKind::Baseline, W).Unfairness;
    AOSSum += D.runWorkload(SchedulerKind::AccelOSOptimized, W).Unfairness;
  }
  EXPECT_LT(AOSSum, BaseSum);
}

TEST(IntegrationGolden, PaperBatchOutcomesMatchGolden) {
  // Pins the paper's batch experiments byte-for-byte on both platforms:
  // seeded 2-, 4- and 8-kernel mixes under all four schedulers
  // (makespan, unfairness, overlap and every slowdown), plus every
  // suite kernel's isolated duration under each scheduler. The fixture
  // is hexfloat, so every value is compared bit-for-bit.
  const SchedulerKind Kinds[] = {
      SchedulerKind::Baseline, SchedulerKind::ElasticKernels,
      SchedulerKind::AccelOSNaive, SchedulerKind::AccelOSOptimized};
  std::string Got;
  char Buf[256];
  auto Add = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    Got += Buf;
  };
  for (const sim::DeviceSpec &Spec :
       {sim::DeviceSpec::nvidiaK20m(), sim::DeviceSpec::amdR9295X2()}) {
    ExperimentDriver D(Spec);
    Add("platform %s\n", Spec.Name.c_str());
    for (size_t K : {2, 4, 8}) {
      for (const workloads::Workload &W :
           workloads::randomCombinations(K, 3, 20261019 + K)) {
        Got += "mix";
        for (size_t Idx : W)
          Add(" %s", D.kernel(Idx).Spec->Id.c_str());
        Got += "\n";
        for (SchedulerKind Kind : Kinds) {
          WorkloadOutcome O = D.runWorkload(Kind, W);
          Add("%s makespan %a unfairness %a overlap %a\n",
              schedulerName(Kind), O.Makespan, O.Unfairness, O.Overlap);
          Got += "slowdowns";
          for (double S : O.Slowdowns)
            Add(" %a", S);
          Got += "\n";
        }
      }
    }
    for (size_t I = 0; I != D.numKernels(); ++I) {
      Add("isolated %s", D.kernel(I).Spec->Id.c_str());
      for (SchedulerKind Kind : Kinds)
        Add(" %a", D.isolatedDuration(Kind, I));
      Got += "\n";
    }
  }

  std::ifstream In(std::string(ACCEL_SOURCE_DIR) +
                   "/tests/golden/paper_batch.golden");
  ASSERT_TRUE(In.good()) << "golden fixture missing";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}

} // namespace
