//===- bench/serve_streaming.cpp - Streaming-arrival serving comparison ------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Beyond the paper's one-shot batches: an open-loop Poisson stream of
/// kernel requests from several tenants is replayed — identically —
/// under the standard FIFO stack, Elastic Kernels, and accelOS in both
/// admission disciplines (round-synchronous and continuous), and the
/// serving behaviour is compared: makespan, whole-trace and peak
/// windowed unfairness, scheduling rounds/deferrals, per-tenant latency
/// percentiles, and queueing delay. This is the evaluation dimension
/// Gavel-style cluster schedulers use (streams of arriving jobs, not
/// batches).
///
/// Built-in acceptance checks (non-zero exit on failure):
///  - accelOS must beat the FIFO stack on whole-trace streaming
///    unfairness under BOTH admission disciplines;
///  - continuous admission must cut both mean and p95 queueing delay
///    versus the round-synchronous loop (the round-boundary convoy).
///
/// The same numbers are emitted machine-readably to
/// BENCH_streaming.json so CI can track the bench trajectory.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "harness/Streaming.h"
#include "workloads/Arrivals.h"

#include <cstdio>

using namespace accel;
using namespace accel::bench;

namespace {

std::string pctiles(const std::vector<double> &L) {
  return fmt(metrics::latencyPercentile(L, 50)) + " / " +
         fmt(metrics::latencyPercentile(L, 95)) + " / " +
         fmt(metrics::latencyPercentile(L, 99));
}

/// One scheme's replay plus the derived reporting numbers.
struct SchemeResult {
  std::string Name;
  harness::StreamOutcome Outcome;
  double PeakWindowed = 1;
  std::vector<double> Latencies;
  std::vector<double> QueueDelays;
};

SchemeResult runScheme(ExperimentDriver &Driver, SchedulerKind Kind,
                       const std::vector<workloads::TimedRequest> &Trace,
                       const harness::StreamOptions &SOpts,
                       const std::string &Name, double WindowLength) {
  SchemeResult R;
  R.Name = Name;
  R.Outcome = harness::runStream(Driver, Kind, Trace, SOpts);
  // Windowed view: slowdowns stamped with their completion times.
  std::vector<metrics::TimedSample> Samples;
  for (size_t I = 0; I != R.Outcome.Requests.size(); ++I)
    Samples.push_back(
        {R.Outcome.Requests[I].EndTime, R.Outcome.Slowdowns[I]});
  R.PeakWindowed = metrics::peakWindowedUnfairness(Samples, WindowLength);
  for (const harness::StreamRequestResult &Req : R.Outcome.Requests)
    R.Latencies.push_back(Req.latency());
  R.QueueDelays = R.Outcome.queueDelays();
  return R;
}

/// Minimal JSON emission (no dependency): numbers at fixed precision.
void jsonScheme(raw_ostream &OS, const SchemeResult &R, bool Last) {
  auto Num = [](double V) { return formatDouble(V, 4); };
  OS << "      {\"name\": \"" << R.Name << "\", \"unfairness\": "
     << Num(R.Outcome.Unfairness)
     << ", \"peak_windowed_unfairness\": " << Num(R.PeakWindowed)
     << ", \"makespan\": " << Num(R.Outcome.Makespan)
     << ", \"rounds\": " << std::to_string(R.Outcome.Rounds)
     << ", \"deferrals\": " << std::to_string(R.Outcome.Deferrals)
     << ",\n       \"latency\": {\"p50\": "
     << Num(metrics::latencyPercentile(R.Latencies, 50))
     << ", \"p95\": " << Num(metrics::latencyPercentile(R.Latencies, 95))
     << ", \"p99\": " << Num(metrics::latencyPercentile(R.Latencies, 99))
     << "},\n       \"queue_delay\": {\"mean\": "
     << Num(metrics::mean(R.QueueDelays)) << ", \"p95\": "
     << Num(metrics::latencyPercentile(R.QueueDelays, 95)) << "}}"
     << (Last ? "\n" : ",\n");
}

} // namespace

int main() {
  raw_ostream &OS = outs();
  OS << "=== Streaming arrivals: open-loop multi-tenant serving "
        "===\n\n";

  double Scale = harness::reproScale();
  size_t NumRequests =
      static_cast<size_t>(32 * (Scale < 1 ? Scale : 1)) + 16;
  constexpr int NumTenants = 4;

  std::FILE *JsonFile = std::fopen("BENCH_streaming.json", "w");
  if (!JsonFile) {
    OS << "ERROR: cannot open BENCH_streaming.json for writing\n";
    return 1;
  }
  raw_fd_ostream Json(JsonFile);
  Json << "{\n  \"bench\": \"serve_streaming\",\n  \"requests\": "
       << std::to_string(NumRequests) << ",\n  \"tenants\": "
       << std::to_string(NumTenants) << ",\n  \"platforms\": [\n";

  int Exit = 0;
  std::vector<PlatformRun> Platforms = makePlatforms();
  for (size_t P = 0; P != Platforms.size(); ++P) {
    ExperimentDriver &Driver = Platforms[P].Driver;
    OS << "--- " << Platforms[P].Label << " ---\n";

    // Offered load: mean inter-arrival of a mean solo duration keeps
    // several tenants resident most of the time.
    double MeanDur = harness::meanIsolatedBaselineDuration(Driver);
    workloads::TraceOptions TOpts;
    TOpts.NumRequests = NumRequests;
    TOpts.NumTenants = NumTenants;
    TOpts.MeanInterarrival = 1.0 * MeanDur;
    TOpts.Seed = 20260730;
    std::vector<workloads::TimedRequest> Trace =
        workloads::poissonTrace(Driver.numKernels(), TOpts);
    OS << "trace: " << NumRequests << " requests, " << NumTenants
       << " tenants, Poisson mean inter-arrival ";
    OS.printFixed(TOpts.MeanInterarrival, 0);
    OS << " cycles\n\n";

    // accelOS slices each kernel's virtual range into quantum-bounded
    // grants, so arrivals never serialize behind a giant kernel.
    harness::StreamOptions Round;
    Round.RoundQuantum = 0.25 * MeanDur;
    Round.Admission = harness::StreamOptions::AdmissionMode::RoundSync;
    harness::StreamOptions Cont = Round;
    Cont.Admission = harness::StreamOptions::AdmissionMode::Continuous;

    std::vector<SchemeResult> Results;
    Results.push_back(runScheme(Driver, SchedulerKind::Baseline, Trace,
                                Round, "Standard", MeanDur));
    Results.push_back(runScheme(Driver, SchedulerKind::ElasticKernels,
                                Trace, Round, "EK", MeanDur));
    Results.push_back(runScheme(Driver, SchedulerKind::AccelOSOptimized,
                                Trace, Round, "accelOS-round", MeanDur));
    Results.push_back(runScheme(Driver, SchedulerKind::AccelOSOptimized,
                                Trace, Cont, "accelOS-cont", MeanDur));
    const SchemeResult &Fifo = Results[0];
    const SchemeResult &Rs = Results[2];
    const SchemeResult &Cs = Results[3];

    harness::TextTable T({"Scheme", "Makespan", "Unfairness", "Peak(win)",
                          "Rounds", "Deferrals", "Latency p50/p95/p99",
                          "Qdelay mean/p95"});
    for (const SchemeResult &R : Results)
      T.addRow({R.Name, fmt(R.Outcome.Makespan / MeanDur),
                fmt(R.Outcome.Unfairness), fmt(R.PeakWindowed),
                std::to_string(R.Outcome.Rounds),
                std::to_string(R.Outcome.Deferrals),
                pctiles(R.Latencies),
                fmt(metrics::mean(R.QueueDelays)) + " / " +
                    fmt(metrics::latencyPercentile(R.QueueDelays, 95))});
    T.print(OS);

    OS << "\nPer-tenant latency under accelOS continuous admission:\n";
    harness::TextTable TT({"Tenant", "Requests", "Latency p50/p95/p99"});
    for (const auto &[Tenant, Lats] : Cs.Outcome.latenciesByTenant())
      TT.addRow({std::to_string(Tenant), std::to_string(Lats.size()),
                 pctiles(Lats)});
    TT.print(OS);

    double RsMeanQ = metrics::mean(Rs.QueueDelays);
    double CsMeanQ = metrics::mean(Cs.QueueDelays);
    double RsP95Q = metrics::latencyPercentile(Rs.QueueDelays, 95);
    double CsP95Q = metrics::latencyPercentile(Cs.QueueDelays, 95);
    OS << "\naccelOS fairness improvement over the FIFO stack: ";
    OS.printFixed(metrics::fairnessImprovement(
                      Fifo.Outcome.Unfairness, Cs.Outcome.Unfairness),
                  2);
    OS << "x\ncontinuous vs round-sync queueing delay: mean ";
    OS.printFixed(CsMeanQ, 0);
    OS << " vs ";
    OS.printFixed(RsMeanQ, 0);
    OS << ", p95 ";
    OS.printFixed(CsP95Q, 0);
    OS << " vs ";
    OS.printFixed(RsP95Q, 0);
    OS << "\n\n";

    Json << "    {\"name\": \"" << Platforms[P].Label
         << "\", \"mean_solo_duration\": " << formatDouble(MeanDur, 4)
         << ", \"schemes\": [\n";
    for (size_t I = 0; I != Results.size(); ++I)
      jsonScheme(Json, Results[I], I + 1 == Results.size());
    Json << "    ]}" << (P + 1 == Platforms.size() ? "\n" : ",\n");

    if (Rs.Outcome.Unfairness >= Fifo.Outcome.Unfairness) {
      OS << "ERROR: round-synchronous accelOS did not improve on FIFO "
            "unfairness\n";
      Exit = 1;
    }
    if (Cs.Outcome.Unfairness >= Fifo.Outcome.Unfairness) {
      OS << "ERROR: accelOS continuous admission did not improve on "
            "FIFO unfairness\n";
      Exit = 1;
    }
    if (CsMeanQ >= RsMeanQ || CsP95Q >= RsP95Q) {
      OS << "ERROR: continuous admission did not cut queueing delay "
            "(the round-boundary convoy persists)\n";
      Exit = 1;
    }
  }

  Json << "  ]\n}\n";
  std::fclose(JsonFile);
  OS << "wrote BENCH_streaming.json\n";
  return Exit;
}
