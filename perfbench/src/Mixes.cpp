//===- perfbench/src/Mixes.cpp - paper-mixes ------------------------------===//
///
/// \file
/// The paper's Sec. 8 evaluation as a workload: seed-drawn 2-, 4- and
/// 8-kernel multiprogrammed mixes on both platforms under Baseline,
/// Elastic Kernels and accelOS (optimized), each through
/// ExperimentDriver::runWorkload. It is the only workload that reaches
/// ek, the round planner and the batch sim::Engine::run path, and its
/// sim_* metrics are the paper's own fairness numbers for accelOS.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "harness/Experiment.h"
#include "metrics/Metrics.h"
#include "workloads/Sampler.h"

#include <cmath>
#include <memory>

using namespace accel;

namespace perfbench {

namespace {

// Set-up is cheap here; many repetitions steady its median.
constexpr size_t SetupReps = 21;
constexpr size_t MinMeasureReps = 3;

struct SchemeDef {
  harness::SchedulerKind Kind;
  Layer L;
  const char *Span;
};

const SchemeDef Schemes[] = {
    {harness::SchedulerKind::Baseline, Layer::Sim, "runWorkload Baseline"},
    {harness::SchedulerKind::ElasticKernels, Layer::Ek,
     "runWorkload ElasticKernels"},
    {harness::SchedulerKind::AccelOSOptimized, Layer::Accelos,
     "runWorkload AccelOSOptimized"},
};
constexpr size_t NumSchemes = 3;

struct Platform {
  const char *Name;
  std::unique_ptr<harness::ExperimentDriver> Driver;
  double MeanSolo = 0;
};

/// Per-platform, per-scheme results of one repetition, in mix order.
using RepOutcomes =
    std::vector<std::vector<std::vector<harness::WorkloadOutcome>>>;

} // namespace

void runPaperMixes(const RunConfig &Cfg, Report &R) {
  Tracer T;
  SpanLog *Log = Cfg.Traced ? &T.newLog() : nullptr;

  std::vector<Platform> Platforms;
  std::vector<double> SetupS, JitS, WarmS;
  for (size_t Rep = 0; Rep != SetupReps; ++Rep) {
    Platforms.clear();
    uint64_t T0 = nowNs();
    {
      SpanScope S(Log, Layer::Jit, "ExperimentDriver");
      Platforms.push_back({"NVIDIA K20m",
                           std::make_unique<harness::ExperimentDriver>(
                               sim::DeviceSpec::nvidiaK20m())});
      Platforms.push_back({"AMD R9 295X2",
                           std::make_unique<harness::ExperimentDriver>(
                               sim::DeviceSpec::amdR9295X2())});
    }
    uint64_t T1 = nowNs();
    {
      SpanScope S(Log, Layer::Sim, "isolatedDuration");
      for (Platform &P : Platforms) {
        for (size_t I = 0; I != P.Driver->numKernels(); ++I)
          P.MeanSolo += P.Driver->isolatedDuration(
              harness::SchedulerKind::Baseline, I);
        P.MeanSolo /= static_cast<double>(P.Driver->numKernels());
      }
    }
    uint64_t T2 = nowNs();
    SetupS.push_back(static_cast<double>(T2 - T0) * 1e-9);
    JitS.push_back(static_cast<double>(T1 - T0) * 1e-9);
    WarmS.push_back(static_cast<double>(T2 - T1) * 1e-9);
  }

  std::vector<workloads::Workload> Mixes;
  uint64_t G0 = nowNs();
  {
    SpanScope S(Log, Layer::Workloads, "randomCombinations");
    const size_t Counts[3][2] = {{2, 24}, {4, 12}, {8, 6}};
    for (size_t I = 0; I != 3; ++I) {
      std::vector<workloads::Workload> W = workloads::randomCombinations(
          Counts[I][0], Counts[I][1], Cfg.Seed * 3 + I);
      Mixes.insert(Mixes.end(), W.begin(), W.end());
    }
  }
  double GenS = static_cast<double>(nowNs() - G0) * 1e-9;

  size_t Launches = 0;
  double WGs = 0;
  for (const workloads::Workload &W : Mixes) {
    Launches += W.size();
    for (size_t K : W)
      WGs += static_cast<double>(
          Platforms[0].Driver->kernel(K).WGCosts.size() +
          Platforms[1].Driver->kernel(K).WGCosts.size());
  }
  Launches *= Platforms.size() * NumSchemes;
  WGs *= NumSchemes;

  RepOutcomes First;
  std::string Digest0;
  // One timed unit per platform, mix and scheme.
  auto Unit = [&](size_t P, size_t Mix, size_t S) {
    return (P * Mixes.size() + Mix) * NumSchemes + S;
  };
  UnitTimes Times(Platforms.size() * Mixes.size() * NumSchemes);
  size_t TracedRequests = 0;
  uint64_t Start = nowNs();
  for (size_t Rep = 0; keepMeasuring(Rep, MinMeasureReps, Start, Cfg.Seconds);
       ++Rep) {
    bool TraceRep = Cfg.Traced && Rep % 2 == 0;
    SpanLog *L = TraceRep ? Log : nullptr;
    SpanScope M(L, Layer::Bench, "measure");
    RepOutcomes Out(Platforms.size(),
                    std::vector<std::vector<harness::WorkloadOutcome>>(
                        NumSchemes));
    for (size_t P = 0; P != Platforms.size(); ++P)
      for (size_t Mix = 0; Mix != Mixes.size(); ++Mix)
        for (size_t S = 0; S != NumSchemes; ++S) {
          uint64_t T0 = nowNs();
          {
            SpanScope Sp(L, Schemes[S].L, Schemes[S].Span,
                         static_cast<int64_t>(Mix));
            Out[P][S].push_back(Platforms[P].Driver->runWorkload(
                Schemes[S].Kind, Mixes[Mix]));
          }
          Times.add(Unit(P, Mix, S),
                    static_cast<double>(nowNs() - T0) * 1e-9, TraceRep);
        }
    TracedRequests += TraceRep ? Launches : 0;
    R.Attempted += Launches;

    Digest D;
    for (size_t P = 0; P != Platforms.size(); ++P)
      for (size_t S = 0; S != NumSchemes; ++S)
        for (size_t Mix = 0; Mix != Mixes.size(); ++Mix) {
          const harness::WorkloadOutcome &O = Out[P][S][Mix];
          D.add(O.Makespan);
          for (double V : O.Slowdowns)
            D.add(V);
          bool Ok = O.Slowdowns.size() == Mixes[Mix].size();
          for (double V : O.Slowdowns)
            Ok = Ok && std::isfinite(V) && V > 0;
          if (!Ok)
            R.fail(Mixes[Mix].size(),
                   std::string(Platforms[P].Name) + " mix " +
                       std::to_string(Mix) + " under " +
                       harness::schedulerName(Schemes[S].Kind) +
                       " did not report one slowdown per kernel");
        }
    if (Rep == 0) {
      Digest0 = D.hex();
      First = std::move(Out);
    } else if (D.hex() != Digest0) {
      R.fail(Launches, "repetition " + std::to_string(Rep) +
                           " simulated different mixes than the first");
    }
  }

  // The sim_* metrics describe accelOS (optimized) over every mix on
  // both platforms; Baseline and EK are printed for comparison.
  uint64_t P0 = nowNs();
  std::vector<double> Slow, Queue, Unfair, Stp;
  std::vector<std::string> Table;
  {
    SpanScope S(Log, Layer::Metrics, "summarize");
    for (size_t P = 0; P != Platforms.size(); ++P) {
      for (size_t Sc = 0; Sc != NumSchemes; ++Sc) {
        std::vector<double> U, Tp;
        for (size_t Mix = 0; Mix != Mixes.size(); ++Mix) {
          const harness::WorkloadOutcome &O = First[P][Sc][Mix];
          U.push_back(O.Unfairness);
          Tp.push_back(metrics::systemThroughput(O.Slowdowns));
          if (Schemes[Sc].Kind != harness::SchedulerKind::AccelOSOptimized)
            continue;
          for (size_t K = 0; K != O.Slowdowns.size(); ++K) {
            double Iso = Platforms[P].Driver->isolatedDuration(
                harness::SchedulerKind::Baseline, Mixes[Mix][K]);
            Slow.push_back(O.Slowdowns[K]);
            Queue.push_back((O.Slowdowns[K] - 1) * Iso /
                            Platforms[P].MeanSolo);
          }
        }
        if (Schemes[Sc].Kind == harness::SchedulerKind::AccelOSOptimized) {
          Unfair.insert(Unfair.end(), U.begin(), U.end());
          Stp.insert(Stp.end(), Tp.begin(), Tp.end());
        }
        Table.push_back(std::string(Platforms[P].Name) + " " +
                        harness::schedulerName(Schemes[Sc].Kind) +
                        ": mean unfairness " +
                        std::to_string(metrics::mean(U)) + ", mean STP " +
                        std::to_string(metrics::mean(Tp)));
      }
    }
  }
  double PostS = static_cast<double>(nowNs() - P0) * 1e-9;

  R.info("workload paper-mixes: " + std::to_string(Mixes.size()) +
         " mixes (2-, 4- and 8-kernel) x 2 platforms x 3 schemes");
  for (const std::string &Line : Table)
    R.info(Line);
  R.info("schedule_digest " + Digest0);
  R.set("setup_s", median(SetupS));
  R.set("peak_rss_mb", peakRssMb());
  R.set("sim_slowdown_p50", percentile(Slow, 50));
  R.set("sim_slowdown_p99", percentile(Slow, 99));
  R.set("sim_queue_p99", percentile(Queue, 99));
  R.set("sim_unfairness", metrics::mean(Unfair));
  Times.report(Cfg, static_cast<double>(Launches), R);
  R.set("sim_stp", metrics::mean(Stp));
  R.set("jit.suite_s", median(JitS));
  R.set("sim.warmup_s", median(WarmS));
  R.set("workloads.trace_gen_s", GenS);
  R.set("metrics.post_s", PostS);
  // Per scheme, the mean over platforms and mixes of each call's
  // undisturbed time.
  double MixUs[NumSchemes] = {};
  for (size_t P = 0; P != Platforms.size(); ++P)
    for (size_t Mix = 0; Mix != Mixes.size(); ++Mix)
      for (size_t S = 0; S != NumSchemes; ++S)
        MixUs[S] += Times.fastest(Unit(P, Mix, S)) * 1e6 /
                    static_cast<double>(Platforms.size() * Mixes.size());
  R.set("sim.baseline_mix_us", MixUs[0]);
  R.set("ek.mix_us", MixUs[1]);
  R.set("accelos.mix_us", MixUs[2]);
  R.set("sim.wgs_per_req", WGs / static_cast<double>(Launches));
  R.set("sim.ns_per_wg", Times.undisturbedSeconds() * 1e9 / WGs);
  if (Cfg.Traced)
    finishTraced(Cfg, T, static_cast<double>(TracedRequests), R);
}

} // namespace perfbench
