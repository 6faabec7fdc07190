//===- perfbench/src/Replays.cpp - scale-open and fleet-outage ------------===//
///
/// \file
/// The two open-loop replay workloads. Both replay seed-generated traces
/// repeatedly; every repetition must reproduce the first one's schedule
/// digest.
///
///  - scale-open: one K20m, runStream with continuous admission over
///    episodes of bursty Poisson waves of small kernels from 250
///    tenants. The admission solver and the simulation engine share the
///    host work; the interpreter never runs.
///  - fleet-outage: a K20m+AMD fleet, runClusterReplay with
///    heterogeneity-aware placement and migration over outage episodes.
///    The simulation engine does most of the host work; the only
///    workload that reaches cluster placement and failover.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cluster/ClusterHarness.h"
#include "harness/Streaming.h"
#include "support/Random.h"
#include "workloads/Arrivals.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

using namespace accel;

namespace perfbench {

namespace {

// Set-up is cheap here; many repetitions steady its median.
constexpr size_t SetupReps = 21;
constexpr size_t MinMeasureReps = 3;

/// Checks the per-request invariants of one replay and digests its
/// schedule. \returns the number of requests that violate them.
uint64_t checkRequests(const harness::StreamOutcome &O, size_t Expected,
                       const std::vector<size_t> *Placement,
                       const std::vector<bool> *Lost, Digest &D,
                       std::string &Why) {
  digestSchedule(O, Placement, D);
  if (O.Requests.size() != Expected || O.Slowdowns.size() != Expected) {
    Why = "replay returned " + std::to_string(O.Requests.size()) + " of " +
          std::to_string(Expected) + " requests";
    return Expected;
  }
  uint64_t Bad = 0;
  for (size_t I = 0; I != Expected; ++I) {
    const harness::StreamRequestResult &Q = O.Requests[I];
    if (Lost && (*Lost)[I])
      continue; // Counted by the caller.
    bool Ok = std::isfinite(Q.EndTime) && Q.StartTime >= Q.ArrivalTime &&
              Q.EndTime >= Q.StartTime && std::isfinite(O.Slowdowns[I]);
    if (!Ok) {
      if (Bad == 0)
        Why = "request " + std::to_string(I) +
              " started before its arrival or never completed";
      ++Bad;
    }
  }
  return Bad;
}

std::vector<RequestSample> samplesOf(const harness::StreamOutcome &O) {
  std::vector<RequestSample> Out;
  Out.reserve(O.Requests.size());
  for (size_t I = 0; I != O.Requests.size(); ++I)
    Out.push_back({O.Requests[I].EndTime, O.Slowdowns[I],
                   O.Requests[I].queueingExcess()});
  return Out;
}

/// The median of each statistic over episodes.
SimSummary medianSummary(const std::vector<SimSummary> &Sums) {
  std::vector<double> P50, P99, Queue, Unfair;
  for (const SimSummary &S : Sums) {
    P50.push_back(S.SlowdownP50);
    P99.push_back(S.SlowdownP99);
    Queue.push_back(S.QueueP99);
    Unfair.push_back(S.Unfairness);
  }
  return {median(P50), median(P99), median(Queue), median(Unfair)};
}

void reportSim(const SimSummary &S, Report &R) {
  R.set("sim_slowdown_p50", S.SlowdownP50);
  R.set("sim_slowdown_p99", S.SlowdownP99);
  R.set("sim_queue_p99", S.QueueP99);
  R.set("sim_unfairness", S.Unfairness);
}

} // namespace

UnitTimes::UnitTimes(size_t Units) {
  for (std::vector<double> &B : Best)
    B.assign(Units, std::numeric_limits<double>::infinity());
}

void UnitTimes::add(size_t Unit, double Seconds, bool Traced) {
  double &B = Best[Traced ? 1 : 0][Unit];
  B = std::min(B, Seconds);
  ++Runs;
}

double UnitTimes::undisturbedSeconds(bool Traced) const {
  double Sum = 0;
  for (double S : Best[Traced ? 1 : 0])
    Sum += S;
  return Sum;
}

void UnitTimes::report(const RunConfig &Cfg, double Requests,
                       Report &R) const {
  double Untraced = undisturbedSeconds(false);
  R.info("repetitions: " + std::to_string(Runs / Best[0].size()) + " of " +
         std::to_string(Best[0].size()) +
         " timed units; undisturbed pass (each unit's fastest run): " +
         std::to_string(Untraced) + " s");
  if (Cfg.Traced) {
    double Traced = undisturbedSeconds(true);
    R.set("trace.rps_ratio", Untraced / Traced);
    R.info("tracing overhead: traced " + std::to_string(Requests / Traced) +
           " vs untraced " + std::to_string(Requests / Untraced) +
           " requests/s");
  } else {
    R.set("requests_per_s", Requests / Untraced);
    // For perfbench/run.py, which merges sampled processes unit by unit.
    std::string Units = "unit_seconds";
    for (double S : Best[0]) {
      char Buf[32];
      std::snprintf(Buf, sizeof Buf, " %.9g", S);
      Units += Buf;
    }
    R.info(Units);
  }
}

void digestSchedule(const harness::StreamOutcome &O,
                    const std::vector<size_t> *Placement, Digest &D) {
  for (size_t I = 0; I != O.Requests.size(); ++I) {
    D.add(O.Requests[I].StartTime);
    D.add(O.Requests[I].EndTime);
    D.add(static_cast<uint64_t>(
        Placement && I < Placement->size() ? (*Placement)[I] : 0));
  }
}

void finishTraced(const RunConfig &Cfg, const Tracer &T,
                  double TracedRequests, Report &R) {
  std::array<double, NumLayers> Self = T.selfSeconds("measure");
  for (Layer L : {Layer::Bench, Layer::Ocl, Layer::Accelos, Layer::Sim,
                  Layer::Ek, Layer::Cluster, Layer::Harness}) {
    std::string Name = std::string(layerName(L)) + ".self_us_per_req";
    double S = Self[static_cast<size_t>(L)];
    if (S > 0)
      R.set(Name, S * 1e6 / TracedRequests);
    else
      R.notApplicable(Name);
  }
  R.set("trace.spans_per_req",
        static_cast<double>(T.numSpans()) / TracedRequests);
  for (const MetricDef &M : perLayerMetrics())
    if (!R.has(M.Name))
      R.notApplicable(M.Name);
  if (!Cfg.TracePath.empty() && !T.writeChromeTrace(Cfg.TracePath))
    R.fail(0, "cannot write " + Cfg.TracePath);
}

void runScaleOpen(const RunConfig &Cfg, Report &R) {
  Tracer T;
  SpanLog *Log = Cfg.Traced ? &T.newLog() : nullptr;

  // Set-up: the JIT'd suite view of one K20m plus the isolated durations
  // of the kernel pool, built several times for a steady median.
  std::unique_ptr<harness::ExperimentDriver> Driver;
  std::vector<size_t> Pool;
  double MeanDur = 0;
  std::vector<double> SetupS, JitS, WarmS;
  for (size_t Rep = 0; Rep != SetupReps; ++Rep) {
    Driver.reset();
    Pool.clear();
    uint64_t T0 = nowNs();
    {
      SpanScope S(Log, Layer::Jit, "ExperimentDriver");
      Driver = std::make_unique<harness::ExperimentDriver>(
          sim::DeviceSpec::nvidiaK20m());
    }
    uint64_t T1 = nowNs();
    {
      SpanScope S(Log, Layer::Sim, "isolatedDuration");
      // The serving-at-scale regime: the kernels with the fewest
      // virtual groups, so admission decisions, not a few giant
      // kernels, set the pace.
      MeanDur = 0;
      for (size_t I = 0; I != Driver->numKernels(); ++I)
        if (Driver->kernel(I).WGCosts.size() <= 32) {
          Pool.push_back(I);
          MeanDur += Driver->isolatedDuration(
              harness::SchedulerKind::Baseline, I);
        }
      MeanDur /= static_cast<double>(Pool.size());
    }
    uint64_t T2 = nowNs();
    SetupS.push_back(static_cast<double>(T2 - T0) * 1e-9);
    JitS.push_back(static_cast<double>(T1 - T0) * 1e-9);
    WarmS.push_back(static_cast<double>(T2 - T1) * 1e-9);
  }

  // Bursty waves: Burst consecutive Poisson arrivals collapse onto
  // their leader's timestamp, so inter-wave gaps are Erlang(Burst). Each
  // wave oversubscribes the K20m's 208 resident-WG slots several times
  // over, where solver passes are most expensive. The waves come in
  // independent episodes of eight, each replayed on an idle device, so
  // one replay call is short enough to be timed undisturbed.
  constexpr size_t Burst = 130, NumEpisodes = 12;
  constexpr size_t N = 8 * Burst; // Requests per episode.
  std::vector<std::vector<workloads::TimedRequest>> Traces(NumEpisodes);
  uint64_t G0 = nowNs();
  {
    SpanScope S(Log, Layer::Workloads, "poissonTrace");
    SplitMix64 Seeds(Cfg.Seed);
    for (std::vector<workloads::TimedRequest> &Trace : Traces) {
      workloads::TraceOptions TOpts;
      TOpts.NumRequests = N;
      TOpts.NumTenants = 250;
      TOpts.MeanInterarrival = 0.25 * MeanDur;
      TOpts.Seed = Seeds.next();
      Trace = workloads::poissonTrace(Pool.size(), TOpts);
      for (size_t I = 0; I != Trace.size(); ++I) {
        Trace[I].ArrivalTime = Trace[I - (I % Burst)].ArrivalTime;
        Trace[I].KernelIdx = Pool[Trace[I].KernelIdx];
      }
    }
  }
  double GenS = static_cast<double>(nowNs() - G0) * 1e-9;
  size_t RepRequests = N * NumEpisodes;

  harness::StreamOptions SO;
  SO.Admission = harness::StreamOptions::AdmissionMode::Continuous;
  SO.RoundQuantum = 0.5 * MeanDur;

  std::vector<harness::StreamOutcome> First;
  std::string Digest0;
  UnitTimes Times(NumEpisodes);
  size_t TracedRequests = 0;
  uint64_t Start = nowNs();
  for (size_t Rep = 0; keepMeasuring(Rep, MinMeasureReps, Start, Cfg.Seconds);
       ++Rep) {
    bool TraceRep = Cfg.Traced && Rep % 2 == 0;
    SpanLog *L = TraceRep ? Log : nullptr;
    SpanScope M(L, Layer::Bench, "measure");
    std::vector<harness::StreamOutcome> Out(NumEpisodes);
    for (size_t E = 0; E != NumEpisodes; ++E) {
      uint64_t T0 = nowNs();
      {
        SpanScope S(L, Layer::Harness, "runStream");
        Out[E] = harness::runStream(
            *Driver, harness::SchedulerKind::AccelOSOptimized, Traces[E], SO);
      }
      Times.add(E, static_cast<double>(nowNs() - T0) * 1e-9, TraceRep);
    }
    TracedRequests += TraceRep ? RepRequests : 0;
    R.Attempted += RepRequests;
    Digest D;
    for (size_t E = 0; E != NumEpisodes; ++E) {
      std::string Why;
      if (uint64_t Bad = checkRequests(Out[E], N, nullptr, nullptr, D, Why))
        R.fail(Bad, "episode " + std::to_string(E) + ": " + Why);
    }
    if (Rep == 0) {
      Digest0 = D.hex();
      First = std::move(Out);
    } else if (D.hex() != Digest0) {
      R.fail(RepRequests, "repetition " + std::to_string(Rep) +
                              " replayed a different schedule than the first");
    }
  }

  uint64_t P0 = nowNs();
  {
    SpanScope S(Log, Layer::Metrics, "summarize");
    std::vector<SimSummary> Sums;
    for (const harness::StreamOutcome &O : First)
      Sums.push_back(summarize(samplesOf(O), MeanDur, 100 * MeanDur));
    reportSim(medianSummary(Sums), R);
  }
  double PostS = static_cast<double>(nowNs() - P0) * 1e-9;

  // Time-averaged admission queue over each episode's span (Little's
  // law): requests in the system (arrived, not yet finished) and the
  // work groups they carry, and requests still waiting for a first
  // dispatch; averaged over the episodes.
  double InSystem = 0, InSystemWGs = 0, Waiting = 0, WGs = 0;
  double Rounds = 0, FullSolves = 0, Deferrals = 0, Completions = 0;
  for (size_t E = 0; E != NumEpisodes; ++E) {
    const harness::StreamOutcome &O = First[E];
    double Begin = Traces[E].front().ArrivalTime, End = Begin;
    double Sys = 0, SysWGs = 0, Wait = 0;
    for (const harness::StreamRequestResult &Q : O.Requests) {
      double G = static_cast<double>(
          Driver->kernel(Traces[E][Q.RequestIdx].KernelIdx).WGCosts.size());
      Sys += Q.latency();
      SysWGs += Q.latency() * G;
      Wait += Q.queueDelay();
      WGs += G;
      End = std::max(End, Q.EndTime);
    }
    InSystem += Sys / (End - Begin) / NumEpisodes;
    InSystemWGs += SysWGs / (End - Begin) / NumEpisodes;
    Waiting += Wait / (End - Begin) / NumEpisodes;
    Rounds += static_cast<double>(O.Rounds);
    FullSolves += static_cast<double>(O.FullSolves);
    Deferrals += static_cast<double>(O.Deferrals);
    Completions += static_cast<double>(O.EngineCompletions);
  }

  R.info("workload scale-open: " + std::to_string(NumEpisodes) +
         " episodes x " + std::to_string(N) + " requests, 250 tenants, " +
         std::to_string(Pool.size()) + "-kernel pool");
  R.info("mean admission queue: " + std::to_string(InSystem) +
         " requests in the system carrying " + std::to_string(InSystemWGs) +
         " work groups (the K20m holds 208 resident), " +
         std::to_string(Waiting) + " waiting for a first dispatch");
  R.info("schedule_digest " + Digest0);
  R.set("setup_s", median(SetupS));
  R.set("peak_rss_mb", peakRssMb());
  Times.report(Cfg, static_cast<double>(RepRequests), R);

  double ReplayS = Times.undisturbedSeconds();
  double Nd = static_cast<double>(RepRequests);
  R.set("jit.suite_s", median(JitS));
  R.set("sim.warmup_s", median(WarmS));
  R.set("workloads.trace_gen_s", GenS);
  R.set("metrics.post_s", PostS);
  R.set("harness.replay_s", ReplayS);
  R.set("harness.events_per_s", (Nd + Completions + Rounds) / ReplayS);
  R.set("accelos.passes_per_req", Rounds / Nd);
  R.set("accelos.full_solve_frac", FullSolves / Rounds);
  R.set("accelos.deferrals_per_req", Deferrals / Nd);
  R.set("accelos.us_per_pass", ReplayS * 1e6 / Rounds);
  R.set("accelos.slices_per_req", Completions / Nd);
  R.set("sim.wgs_per_req", WGs / Nd);
  R.set("sim.ns_per_wg", ReplayS * 1e9 / WGs);
  if (Cfg.Traced)
    finishTraced(Cfg, T, static_cast<double>(TracedRequests), R);
}

void runFleetOutage(const RunConfig &Cfg, Report &R) {
  Tracer T;
  SpanLog *Log = Cfg.Traced ? &T.newLog() : nullptr;

  // Set-up: Fleet::addDevice JIT-compiles the suite for the device and
  // measures every kernel's isolated duration, so the fleet build is
  // the whole set-up.
  std::unique_ptr<cluster::Fleet> F;
  std::vector<double> SetupS;
  for (size_t Rep = 0; Rep != SetupReps; ++Rep) {
    F.reset();
    uint64_t T0 = nowNs();
    SpanScope S(Log, Layer::Jit, "Fleet::addDevice");
    F = std::make_unique<cluster::Fleet>();
    F->addDevice(sim::DeviceSpec::nvidiaK20m());
    F->addDevice(sim::DeviceSpec::amdR9295X2());
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }

  // Independent outage episodes, each an open-loop Poisson trace at
  // 0.9x the fleet's service rate over the full suite, replayed on an
  // empty fleet. In each, the faster device (the AMD) is down for the
  // middle fifth of the trace span: a backlog builds while capacity is
  // missing and drains after the rejoin. Near saturation one trace's
  // tail hangs on a few long busy periods, so several short episodes
  // are replayed and the sim_* metrics are medians over them.
  constexpr size_t NumEpisodes = 16;
  constexpr size_t N = 250;
  double FleetRate = 0;
  for (size_t D = 0; D != F->size(); ++D)
    FleetRate += 1.0 / F->meanSoloDuration(D);
  double MeanDur = F->meanSoloDurationAcrossFleet();
  std::vector<std::vector<workloads::TimedRequest>> Traces(NumEpisodes);
  std::vector<harness::ClusterOptions> Opts(NumEpisodes);
  uint64_t G0 = nowNs();
  {
    SpanScope S(Log, Layer::Workloads, "poissonTrace");
    SplitMix64 Seeds(Cfg.Seed);
    for (size_t E = 0; E != NumEpisodes; ++E) {
      workloads::TraceOptions TOpts;
      TOpts.NumRequests = N;
      TOpts.NumTenants = 16;
      TOpts.MeanInterarrival = 1.0 / (0.9 * FleetRate);
      TOpts.Seed = Seeds.next();
      Traces[E] = workloads::poissonTrace(F->driver(0).numKernels(), TOpts);
      double Span = static_cast<double>(N) * TOpts.MeanInterarrival;
      harness::ClusterOptions &O = Opts[E];
      O.Stream.RoundQuantum = 0.25 * MeanDur;
      O.MaxRetries = 64;
      using Ev = harness::FleetEvent;
      O.FleetPlan = {{.Time = 0.4 * Span, .Device = 1, .What = Ev::Kind::Down},
                     {.Time = 0.6 * Span, .Device = 1, .What = Ev::Kind::Up}};
      O.Migration.Enabled = true;
      O.Migration.DivergenceFactor = 2.0;
      O.Migration.MaxPerRequest = 8;
    }
  }
  double GenS = static_cast<double>(nowNs() - G0) * 1e-9;
  size_t RepRequests = N * NumEpisodes;

  std::unique_ptr<cluster::PlacementPolicy> Policy =
      cluster::makePlacementPolicy(cluster::PlacementKind::HeterogeneityAware);
  std::vector<harness::ClusterOutcome> First;
  std::string Digest0;
  UnitTimes Times(NumEpisodes);
  size_t TracedRequests = 0;
  // Calls are counted in the first repetition (they repeat exactly);
  // times are summed over every traced repetition.
  uint64_t PlaceCalls = 0, PlaceNs = 0, SuggestCalls = 0, SuggestNs = 0;
  uint64_t TimedPlaces = 0, TimedSuggests = 0;
  uint64_t Start = nowNs();
  for (size_t Rep = 0; keepMeasuring(Rep, MinMeasureReps, Start, Cfg.Seconds);
       ++Rep) {
    bool TraceRep = Cfg.Traced && Rep % 2 == 0;
    SpanLog *L = TraceRep ? Log : nullptr;
    SpanScope M(L, Layer::Bench, "measure");
    TimedPlacement Timed(*Policy, L);
    cluster::PlacementPolicy &P =
        TraceRep ? static_cast<cluster::PlacementPolicy &>(Timed) : *Policy;
    std::vector<harness::ClusterOutcome> Out(NumEpisodes);
    for (size_t E = 0; E != NumEpisodes; ++E) {
      uint64_t T0 = nowNs();
      {
        SpanScope S(L, Layer::Harness, "runClusterReplay");
        Out[E] = harness::runClusterReplay(
            *F, P, harness::ClusterWorkload::openLoop(Traces[E]), Opts[E]);
      }
      Times.add(E, static_cast<double>(nowNs() - T0) * 1e-9, TraceRep);
      if (TraceRep) {
        PlaceCalls += Rep == 0 ? Timed.PlaceCalls : 0;
        SuggestCalls += Rep == 0 ? Timed.SuggestCalls : 0;
        TimedPlaces += Timed.PlaceCalls;
        TimedSuggests += Timed.SuggestCalls;
        PlaceNs += Timed.PlaceNs;
        SuggestNs += Timed.SuggestNs;
      }
    }
    TracedRequests += TraceRep ? RepRequests : 0;
    R.Attempted += RepRequests;

    Digest D;
    for (size_t E = 0; E != NumEpisodes; ++E) {
      const harness::ClusterOutcome &O = Out[E];
      std::string Where = "episode " + std::to_string(E) + ": ";
      std::vector<bool> Lost(N, false);
      for (size_t I : O.LostRequests)
        if (I < N)
          Lost[I] = true;
      if (!O.LostRequests.empty())
        R.fail(O.LostRequests.size(),
               Where + std::to_string(O.LostRequests.size()) +
                   " requests lost");
      else if (O.RequestedWGs != O.ExecutedWGs)
        R.fail(N, Where + "work groups not conserved: requested " +
                      std::to_string(O.RequestedWGs) + ", executed " +
                      std::to_string(O.ExecutedWGs));
      std::string Why;
      if (O.Placement.size() != N)
        R.fail(N, Where + "placement vector has the wrong length");
      else if (uint64_t Bad =
                   checkRequests(O.Stream, N, &O.Placement, &Lost, D, Why))
        R.fail(Bad, Where + Why);
    }
    if (Rep == 0) {
      Digest0 = D.hex();
      First = std::move(Out);
    } else if (D.hex() != Digest0) {
      R.fail(RepRequests, "repetition " + std::to_string(Rep) +
                              " replayed a different schedule than the first");
    }
  }

  uint64_t P0 = nowNs();
  {
    SpanScope S(Log, Layer::Metrics, "summarize");
    std::vector<SimSummary> Sums;
    for (const harness::ClusterOutcome &O : First)
      Sums.push_back(summarize(samplesOf(O.Stream), MeanDur, 100 * MeanDur));
    reportSim(medianSummary(Sums), R);
  }
  double PostS = static_cast<double>(nowNs() - P0) * 1e-9;

  uint64_t Failovers = 0, Voluntary = 0, Retries = 0, Lost = 0, Displaced = 0;
  double Rounds = 0, Deferrals = 0, WGs = 0, Requested = 0, Util0 = 0,
         Util1 = 0;
  std::vector<double> Recovery;
  for (const harness::ClusterOutcome &O : First) {
    for (const harness::ClusterMigrationRecord &Mig : O.Migrations)
      ++(Mig.Failover ? Failovers : Voluntary);
    for (uint32_t C : O.Retries)
      Retries += C;
    for (const harness::ClusterFaultRecord &FR : O.Faults) {
      Recovery.push_back(FR.RecoveryTime / MeanDur);
      Displaced += FR.Displaced;
    }
    Lost += O.LostRequests.size();
    Rounds += static_cast<double>(O.Stream.Rounds);
    Deferrals += static_cast<double>(O.Stream.Deferrals);
    WGs += static_cast<double>(O.ExecutedWGs);
    Requested += static_cast<double>(O.RequestedWGs);
    Util0 += O.Devices[0].Utilization / static_cast<double>(NumEpisodes);
    Util1 += O.Devices[1].Utilization / static_cast<double>(NumEpisodes);
  }

  R.info("workload fleet-outage: " + std::to_string(NumEpisodes) +
         " outage episodes x " + std::to_string(N) +
         " requests, 16 tenants, K20m+AMD, the AMD down over 40-60% of "
         "each episode");
  R.info("faults: " + std::to_string(Displaced) + " requests displaced, " +
         std::to_string(Failovers) + " failovers, " + std::to_string(Lost) +
         " lost");
  R.info("schedule_digest " + Digest0);
  R.set("setup_s", median(SetupS));
  R.set("peak_rss_mb", peakRssMb());
  Times.report(Cfg, static_cast<double>(RepRequests), R);

  double ReplayS = Times.undisturbedSeconds();
  double Nd = static_cast<double>(RepRequests);
  R.set("jit.suite_s", median(SetupS));
  R.set("workloads.trace_gen_s", GenS);
  R.set("metrics.post_s", PostS);
  R.set("harness.replay_s", ReplayS);
  // ClusterOutcome exposes no slice-completion count, so fleet events
  // are arrivals plus admission passes.
  R.set("harness.events_per_s", (Nd + Rounds) / ReplayS);
  R.set("accelos.passes_per_req", Rounds / Nd);
  R.set("accelos.deferrals_per_req", Deferrals / Nd);
  R.set("accelos.us_per_pass", ReplayS * 1e6 / Rounds);
  R.set("sim.wgs_per_req", WGs / Nd);
  R.set("sim.ns_per_wg", ReplayS * 1e9 / WGs);
  R.set("sim.utilization.dev0", Util0);
  R.set("sim.utilization.dev1", Util1);
  R.set("cluster.migrations", static_cast<double>(Voluntary));
  R.set("cluster.failovers", static_cast<double>(Failovers));
  R.set("cluster.retries", static_cast<double>(Retries));
  R.set("cluster.lost", static_cast<double>(Lost));
  R.set("cluster.wg_conserved_frac", WGs / Requested);
  R.set("cluster.recovery_solo", median(Recovery));
  if (Cfg.Traced) {
    R.set("cluster.place_calls", static_cast<double>(PlaceCalls));
    R.set("cluster.place_ns", TimedPlaces ? static_cast<double>(PlaceNs) /
                                                static_cast<double>(TimedPlaces)
                                          : 0.0);
    R.set("cluster.suggest_calls", static_cast<double>(SuggestCalls));
    R.set("cluster.suggest_ns",
          TimedSuggests ? static_cast<double>(SuggestNs) /
                              static_cast<double>(TimedSuggests)
                        : 0.0);
    finishTraced(Cfg, T, static_cast<double>(TracedRequests), R);
  }
}

} // namespace perfbench
