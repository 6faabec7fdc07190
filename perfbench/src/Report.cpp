//===- perfbench/src/Report.cpp - Metrics, checks and the result line -----===//

#include "Report.h"

#include "metrics/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>

namespace perfbench {

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"requests_per_s", "1/s", "higher"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"ocl.device_create_s", "s", "lower"},
      {"ocl.device_rss_mb", "MB", "lower"},
      {"jit.program_us", "us", "lower"},
      {"jit.suite_s", "s", "lower"},
      {"kir.insts_per_req", "count", "lower"},
      {"kir.mem_ops_per_req", "count", "lower"},
      {"kir.barriers_per_req", "count", "lower"},
      {"kir.ns_per_inst", "ns", "lower"},
      {"sim_slowdown_p50", "ratio", "lower"},
      {"sim_slowdown_p99", "ratio", "lower"},
      {"sim_queue_p99", "mean_solo", "lower"},
      {"sim_unfairness", "ratio", "lower"},
      {"client_p50_us", "us", "lower"},
      {"client_p99_us", "us", "lower"},
      {"accelos.submit_us_p50", "us", "lower"},
      {"accelos.submit_us_p99", "us", "lower"},
      {"accelos.wait_us_p50", "us", "lower"},
      {"accelos.wait_us_p99", "us", "lower"},
      {"accelos.slices_per_req", "count", "lower"},
      {"accelos.passes_per_req", "count", "lower"},
      {"accelos.full_solve_frac", "ratio", "lower"},
      {"accelos.deferrals_per_req", "count", "lower"},
      {"accelos.us_per_pass", "us", "lower"},
      {"accelos.mix_us", "us", "lower"},
      {"sim.wgs_per_req", "count", "lower"},
      {"sim.ns_per_wg", "ns", "lower"},
      {"sim.utilization.dev0", "ratio", "higher"},
      {"sim.utilization.dev1", "ratio", "higher"},
      {"sim.baseline_mix_us", "us", "lower"},
      {"sim.warmup_s", "s", "lower"},
      {"sim_stp", "ratio", "higher"},
      {"ek.mix_us", "us", "lower"},
      {"cluster.place_calls", "count", "lower"},
      {"cluster.place_ns", "ns", "lower"},
      {"cluster.suggest_calls", "count", "lower"},
      {"cluster.suggest_ns", "ns", "lower"},
      {"cluster.migrations", "count", "lower"},
      {"cluster.failovers", "count", "lower"},
      {"cluster.retries", "count", "lower"},
      {"cluster.lost", "count", "lower"},
      {"cluster.wg_conserved_frac", "ratio", "higher"},
      {"cluster.recovery_solo", "mean_solo", "lower"},
      {"harness.replay_s", "s", "lower"},
      {"harness.events_per_s", "1/s", "higher"},
      {"metrics.post_s", "s", "lower"},
      {"workloads.trace_gen_s", "s", "lower"},
      {"bench.self_us_per_req", "us", "lower"},
      {"ocl.self_us_per_req", "us", "lower"},
      {"accelos.self_us_per_req", "us", "lower"},
      {"sim.self_us_per_req", "us", "lower"},
      {"ek.self_us_per_req", "us", "lower"},
      {"cluster.self_us_per_req", "us", "lower"},
      {"harness.self_us_per_req", "us", "lower"},
      {"trace.spans_per_req", "count", "lower"},
      {"trace.rps_ratio", "ratio", "higher"},
  };
  return Defs;
}

void Report::set(const std::string &Name, double Value) {
  Values[Name] = Value;
}

void Report::notApplicable(const std::string &Name) {
  NotApplicable.insert(Name);
}

void Report::fail(uint64_t Requests, const std::string &Why) {
  Failed += Requests;
  Violations.push_back(Why);
}

int Report::print(bool Traced) const {
  // A request can fail several checks; count it once.
  uint64_t Failed = std::min(this->Failed, Attempted);
  for (const std::string &L : Info)
    std::printf("%s\n", L.c_str());
  std::vector<std::string> Errors = Violations;
  const std::vector<MetricDef> &Table =
      Traced ? perLayerMetrics() : endToEndMetrics();
  std::string Json;
  char Buf[256];
  for (const MetricDef &M : Table) {
    double V = 0;
    auto It = Values.find(M.Name);
    if (It != Values.end()) {
      V = It->second;
      std::printf("metric %-26s %.6g %s\n", M.Name, V, M.Unit);
    } else if (Traced && NotApplicable.count(M.Name)) {
      std::printf("metric %-26s n/a (reads 0)\n", M.Name);
    } else {
      Errors.push_back(std::string("metric ") + M.Name + " was not measured");
    }
    if (!std::isfinite(V)) {
      Errors.push_back(std::string("metric ") + M.Name + " is not finite");
      V = 0;
    }
    if (!Traced && V == 0)
      Errors.push_back(std::string("end-to-end metric ") + M.Name +
                       " reads 0");
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", Json.empty() ? "" : ", ", M.Name, V,
                  M.Unit);
    Json += Buf;
  }
  // Everything else the workload measured, for the reader.
  for (const auto &[Name, V] : Values) {
    bool InTable = false;
    for (const MetricDef &M : Table)
      InTable = InTable || Name == M.Name;
    if (InTable)
      continue;
    const char *Unit = "";
    for (const std::vector<MetricDef> *Defs :
         {&endToEndMetrics(), &perLayerMetrics()})
      for (const MetricDef &M : *Defs)
        if (Name == M.Name)
          Unit = M.Unit;
    std::printf("also   %-26s %.6g %s\n", Name.c_str(), V, Unit);
  }
  double FailedFrac =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 1.0;
  std::printf("metric %-26s %.6g ratio (%llu of %llu requests)\n",
              "failed_frac", FailedFrac,
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  if (Attempted == 0)
    Errors.push_back("no request was attempted");
  for (const std::string &E : Errors)
    std::printf("CHECK FAILED: %s\n", E.c_str());
  bool Correct = Errors.empty() && Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

double percentile(std::vector<double> Values, double Pct) {
  return accel::metrics::latencyPercentile(std::move(Values), Pct);
}

double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

SimSummary summarize(const std::vector<RequestSample> &Samples,
                     double MeanSolo, double Window) {
  SimSummary S;
  if (Samples.empty())
    return S;
  std::vector<double> Slow, Queue;
  std::vector<accel::metrics::TimedSample> Timed;
  for (const RequestSample &R : Samples) {
    Slow.push_back(R.Slowdown);
    Queue.push_back(R.QueueExcess / MeanSolo);
    Timed.push_back({R.EndTime, R.Slowdown});
  }
  std::sort(Slow.begin(), Slow.end());
  S.SlowdownP50 = accel::metrics::sortedPercentile(Slow, 50);
  S.SlowdownP99 = accel::metrics::sortedPercentile(Slow, 99);
  S.QueueP99 = percentile(std::move(Queue), 99);
  std::vector<double> W = accel::metrics::windowedUnfairness(Timed, Window);
  S.Unfairness = accel::metrics::mean(W);
  return S;
}

void Digest::add(uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

void Digest::add(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  add(Bits);
}

std::string Digest::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

double peakRssMb() {
  // getrusage's ru_maxrss survives execve, so a process started from a
  // larger parent (the Python runner) would report the parent's peak.
  // VmHWM is the high-water mark of this process image alone.
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long long Kb = 0;
    bool Found = false;
    while (!Found && std::fgets(Line, sizeof(Line), F))
      Found = std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1;
    std::fclose(F);
    if (Found)
      return static_cast<double>(Kb) / 1024.0;
  }
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux: KiB.
}

} // namespace perfbench
