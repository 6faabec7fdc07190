//===- harness/Experiment.h - Experiment driver -----------------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the paper's experiments: compiles the 25-kernel suite once
/// through the real front end and JIT cleanup pipeline (so instruction
/// counts, register estimates, and local-memory footprints that feed the
/// Sec. 3 solver and Sec. 6.4 batching come from actual IR), then runs
/// workloads through the timing engine under the four schedulers:
/// standard OpenCL (Baseline), Elastic Kernels, and accelOS in naive and
/// optimized modes.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_EXPERIMENT_H
#define ACCEL_HARNESS_EXPERIMENT_H

#include "accelos/AdaptivePolicy.h"
#include "accelos/ResourceSolver.h"
#include "ek/ElasticKernels.h"
#include "sim/Engine.h"
#include "workloads/KernelSpec.h"
#include "workloads/Sampler.h"

#include <map>
#include <string>
#include <vector>

namespace accel {
namespace harness {

/// The schemes compared throughout Sec. 8.
enum class SchedulerKind {
  Baseline,         ///< Standard OpenCL stack.
  ElasticKernels,   ///< Static merging baseline [31].
  AccelOSNaive,     ///< accelOS, one virtual group per dequeue.
  AccelOSOptimized  ///< accelOS with adaptive batching (default).
};

/// \returns a short printable name.
const char *schedulerName(SchedulerKind Kind);

/// A suite kernel with its compiler-derived facts and generated costs.
struct CompiledKernel {
  const workloads::KernelSpec *Spec = nullptr;
  uint64_t InstCount = 0;     ///< IR instructions (drives batching).
  uint64_t RegsPerThread = 0; ///< r_i for the solver.
  uint64_t LocalMemBytes = 0; ///< m_i for the solver.
  std::vector<double> WGCosts;
};

/// Per-workload metric bundle.
struct WorkloadOutcome {
  std::vector<double> Slowdowns; ///< IS_i vs. isolated baseline runs.
  double Unfairness = 1;         ///< U = max IS / min IS.
  double Overlap = 0;            ///< O = T(c) / T(t).
  double Makespan = 0;
};

/// Runs workloads on one device model.
class ExperimentDriver {
public:
  explicit ExperimentDriver(const sim::DeviceSpec &Spec);

  /// Number of suite kernels.
  size_t numKernels() const { return Kernels.size(); }

  const CompiledKernel &kernel(size_t Idx) const { return Kernels[Idx]; }

  const sim::DeviceSpec &device() const { return Spec; }

  /// Runs one multi-kernel workload under \p Kind as the paper does: a
  /// batch where every kernel is submitted at time zero, replayed by
  /// runStream as an all-zero-arrival trace (entry i is kernel W[i] for
  /// tenant i) on the round-barrier discipline. The standard stack
  /// runs its FIFO hardware queue and Elastic Kernels one merged
  /// launch; accelOS plans rounds through accelos::RoundScheduler,
  /// deferring the requests the oversubscription clamp sheds to the
  /// next round, which begins when the previous round's kernels
  /// complete.
  WorkloadOutcome runWorkload(SchedulerKind Kind,
                              const workloads::Workload &W);

  /// Duration of kernel \p Idx running alone under \p Kind (cached):
  /// one direct engine launch for the standard stack (every replayed
  /// request reads it as its isolated baseline), the solo request's
  /// execution span in a one-kernel runWorkload batch otherwise.
  double isolatedDuration(SchedulerKind Kind, size_t Idx);

  /// Predicted solo duration of kernel \p Idx before it has ever run:
  /// the same engine math as isolatedDuration, but with every
  /// work-group cost replaced by the static analysis prior
  /// (workloads::staticCostPrior). Cached.
  double priorSoloDuration(size_t Idx);

  /// Builds the launch descriptor of suite kernel \p Idx as the
  /// standard OpenCL stack would submit it (also used by the streaming
  /// harness's FIFO baseline).
  sim::KernelLaunchDesc baselineDesc(size_t Idx, int AppId) const;

  /// Builds the Elastic Kernels merge input for suite kernel \p Idx.
  ek::EKKernelDesc ekDesc(size_t Idx, int AppId) const;

  /// The Sec. 3 demand terms of suite kernel \p Idx (full range, unit
  /// weight — callers adjust RequestedWGs/Weight as needed).
  accelos::KernelDemand demandFor(size_t Idx) const;

private:
  sim::DeviceSpec Spec;
  std::vector<CompiledKernel> Kernels;
  std::map<std::pair<int, size_t>, double> IsolatedCache;
  std::map<size_t, double> PriorSoloCache;
};

/// \returns the bench scale factor from ACCELOS_REPRO_SCALE (default 1).
double reproScale();

} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_EXPERIMENT_H
