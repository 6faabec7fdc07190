//===- perfbench/src/Report.h - Metrics, checks and the result line -*- C++-*-===//
///
/// \file
/// What one benchmark run reports: the end-to-end and per-layer metric
/// tables (the single source of the names and units BENCHMARK.json
/// lists), the correctness tally, the summary math shared by the
/// workloads, and the printing of the human-readable lines and the final
/// JSON result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "lower" or "higher".
};

/// Reported with tracing off, on every workload; never zero.
const std::vector<MetricDef> &endToEndMetrics();
/// Reported by the traced run, on every workload; a metric that does not
/// apply to a workload reads 0 and is printed as n/a.
const std::vector<MetricDef> &perLayerMetrics();

/// What a run measured and checked.
class Report {
public:
  void set(const std::string &Name, double Value);
  /// Marks a per-layer metric as not applicable to this workload.
  void notApplicable(const std::string &Name);
  /// Records a human-readable line printed above the metrics.
  void info(const std::string &Line) { Info.push_back(Line); }
  /// Counts \p Requests failed requests, for \p Why.
  void fail(uint64_t Requests, const std::string &Why);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }

  /// Prints every line, then the JSON result line last. \p Traced picks
  /// the per-layer table, otherwise the end-to-end one. \returns the
  /// process exit code: 0 only when every check passed and every metric
  /// of the table was reported.
  int print(bool Traced) const;

private:
  std::map<std::string, double> Values;
  std::set<std::string> NotApplicable;
  std::vector<std::string> Info;
  std::vector<std::string> Violations;
};

/// One request's simulated outcome, the input of the sim_* metrics.
struct RequestSample {
  double EndTime = 0;  ///< Simulated completion time.
  double Slowdown = 1; ///< Latency over isolated duration (IS_i).
  double QueueExcess = 0; ///< Latency minus isolated duration.
};

struct SimSummary {
  double SlowdownP50 = 0;
  double SlowdownP99 = 0;
  double QueueP99 = 0;   ///< In units of the mean solo duration.
  double Unfairness = 0; ///< Mean over windows of max/min slowdown.
};

/// Summarizes \p Samples: slowdown percentiles, p99 queueing excess over
/// \p MeanSolo, and the mean of metrics::windowedUnfairness over windows
/// of \p Window simulated time units.
SimSummary summarize(const std::vector<RequestSample> &Samples,
                     double MeanSolo, double Window);

/// Percentile (0..100) by linear interpolation between closest ranks;
/// \p Values must be non-empty.
double percentile(std::vector<double> Values, double Pct);

double median(std::vector<double> Values);

/// FNV-1a over the bit patterns of the values fed in: the schedule
/// digest of a deterministic replay.
class Digest {
public:
  void add(uint64_t V);
  void add(double V);
  uint64_t value() const { return H; }
  std::string hex() const;

private:
  uint64_t H = 1469598103934665603ull;
};

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
