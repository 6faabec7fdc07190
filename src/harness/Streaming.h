//===- harness/Streaming.h - Streaming-arrival serving loop -----*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-driven multi-tenant serving loop: replays an open-loop
/// arrival trace (workloads::poissonTrace) or a closed-loop tenant
/// script (workloads::closedLoopTrace) under the compared schedulers
/// and reports per-request latencies, fairness, and SLO attainment.
///
///  - Baseline: the standard stack's FIFO hardware queue — one
///    persistent engine session where every launch carries its real
///    ArrivalTime;
///  - Elastic Kernels: at each round boundary the pending requests are
///    statically merged and co-dispatched;
///  - accelOS: the scheduler re-solves fair shares at every
///    arrival/completion boundary (dynamic K) and requeues clamp-shed
///    requests. Because accelOS kernels drain a virtual work queue, a
///    grant may run each kernel for a bounded *quantum* of its virtual
///    groups and requeue the remainder — the software analogue of
///    preemption that keeps occupancy short, so a newly arrived kernel
///    is never serialized behind a giant one.
///
/// The accelOS path has three admission disciplines
/// (StreamOptions::Admission):
///
///  - Continuous (the default): arrival-aware continuous admission
///    inside ONE persistent engine session (sim::EngineSession). Fair
///    shares are re-solved at every arrival/completion event and newly
///    arrived or requeued sliced kernels immediately fill the residual
///    capacity left by in-flight grants (accelos::ContinuousScheduler)
///    — no global barrier, no preemption needed. On an
///    all-zero-arrival trace with slicing disabled this reproduces the
///    round-sync schedule bit-for-bit (regression-tested); under
///    streaming arrivals it cuts queueing delay because a request no
///    longer waits out the makespan of a round it missed.
///  - Stride: the same event loop with accelos::StrideScheduler's
///    pass/stride tenant counters in place of the fair-share solve.
///  - RoundSync: completion-round-synchronous. Requests arriving while
///    a round executes wait for the next global boundary, where the
///    share solve (accelos::RoundScheduler) sees the grown queue. It is
///    the reference continuous admission is measured against — the
///    round-boundary convoy bench/serve_streaming reports — and, on an
///    all-zero-arrival trace with slicing off, the paper's batch
///    experiments (ExperimentDriver::runWorkload).
///
/// Every discipline runs on one of three loops, whatever the workload
/// shape: Continuous and Stride on the cluster replay core
/// (harness::runClusterReplay, cluster/ClusterHarness.h) over a
/// one-device view of the caller's driver; FIFO on the hardware-queue
/// loop; Elastic Kernels and RoundSync on the round-barrier loop. The
/// paper's batches (every kernel submitted at time zero) are the
/// zero-arrival case of the FIFO and round-barrier loops.
///
/// Beyond the open loop, runClosedLoop() is the *TenantLoop* mode:
/// arrivals are not a fixed trace but reactions — each tenant keeps at
/// most its Concurrency requests outstanding and issues the next
/// scripted request only after a predecessor drains plus a think time
/// (backpressure). It runs the same loops as the open loop, and an
/// optional SLO layer (StreamOptions::SloTargets + AdaptiveSloWeights)
/// feeds each tenant's observed p95 queueing delay back into its
/// fair-share weight through accelos::SloWeightController.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_HARNESS_STREAMING_H
#define ACCEL_HARNESS_STREAMING_H

#include "accelos/Scheduler.h"
#include "harness/Experiment.h"
#include "metrics/Metrics.h"
#include "workloads/Arrivals.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace accel {
namespace harness {

/// Timing of one completed streaming request.
struct StreamRequestResult {
  size_t RequestIdx = 0; ///< Position in the replayed trace.
  int Tenant = 0;
  std::string Kernel;
  double ArrivalTime = 0;
  double StartTime = 0;
  double EndTime = 0;
  /// The kernel's isolated (solo baseline) duration — the latency this
  /// request would have seen on an idle device.
  double AloneDuration = 0;

  /// Submission-to-completion latency (queueing included).
  double latency() const { return EndTime - ArrivalTime; }

  /// Time spent waiting before the first work-group dispatch.
  double queueDelay() const { return StartTime - ArrivalTime; }

  /// Total time this request spent queued rather than served: latency
  /// minus the kernel's isolated duration. Under work slicing a request
  /// waits *between* grants too, so this — not queueDelay() — is the
  /// request's true aggregate queueing time, and it is the value
  /// per-tenant SLO targets are judged on.
  double queueingExcess() const {
    return std::max(0.0, latency() - AloneDuration);
  }
};

/// Whole-trace outcome under one scheduler.
struct StreamOutcome {
  std::vector<StreamRequestResult> Requests; ///< Indexed by trace order.
  /// Per-request turnaround normalized to the kernel's isolated
  /// baseline duration (the streaming analogue of IS_i).
  std::vector<double> Slowdowns;
  double Makespan = 0;   ///< Completion time of the last request.
  double Unfairness = 1; ///< max/min over Slowdowns.
  /// Scheduling decisions: engine rounds for Elastic Kernels and
  /// RoundSync (1 for FIFO), admission passes for Continuous and Stride
  /// (summed over the devices of a cluster replay).
  size_t Rounds = 0;
  uint64_t Deferrals = 0; ///< Scheduler deferrals (accelOS only).
  /// Admission passes that ran a full fair-share solve vs the
  /// incremental/stride fast path (continuous and stride accelOS only;
  /// the fallback-to-full-solve counter). Rounds == FullSolves +
  /// FastPasses on those paths.
  uint64_t FullSolves = 0;
  uint64_t FastPasses = 0;
  /// Engine completion events delivered to the replay loop (slice
  /// completions included) — with arrivals and admission passes, the
  /// event count bench/serve_scale normalizes wall-clock by.
  uint64_t EngineCompletions = 0;

  /// Effective per-tenant weights when the run ended: the static
  /// StreamOptions::Weights, overlaid with the SLO controller's final
  /// boosts when AdaptiveSloWeights adapted them.
  std::map<int, double> FinalWeights;
  /// Times the SLO controller changed any weight (adaptive runs only).
  uint64_t WeightUpdates = 0;

  /// Latencies grouped by tenant, for percentile reporting.
  std::map<int, std::vector<double>> latenciesByTenant() const;

  /// Per-request queueing delays, in trace order.
  std::vector<double> queueDelays() const;

  /// Aggregate queueing times (StreamRequestResult::queueingExcess)
  /// grouped by tenant — the values SLO attainment and goodput are
  /// judged on (metrics::sloAttainment).
  std::map<int, std::vector<double>> queueingExcessByTenant() const;
};

/// Streaming replay knobs.
struct StreamOptions {
  /// How the accelOS scheduler admits work into the device. The FIFO
  /// baseline and Elastic Kernels have fixed disciplines of their own
  /// and ignore this knob.
  enum class AdmissionMode {
    /// Completion-round-synchronous: a global boundary per round.
    RoundSync,
    /// Event-driven admission into one persistent engine session (the
    /// default).
    Continuous,
    /// Event-driven admission through accelos::StrideScheduler:
    /// pass/stride tenant counters replace the fair-share solve at
    /// every admission event. Approximate weighted fairness at a
    /// per-event cost that is O(log tenants) instead of a solver run —
    /// the high-rate serving mode benchmarked by bench/serve_scale.
    Stride,
  };

  /// Per-tenant sharing weights (absent tenants weigh 1.0); only
  /// accelOS honours weights.
  std::map<int, double> Weights;
  /// accelOS work-slicing quantum in simulation time units: each grant
  /// runs the kernel for roughly this long (sized through its
  /// virtual-group costs) and requeues the unfinished remainder. Zero
  /// disables slicing — granted kernels run to completion.
  double RoundQuantum = 0;
  /// Admission discipline for the accelOS path, open or closed loop.
  /// The cluster replay has no round-barrier loop and runs RoundSync as
  /// Continuous.
  AdmissionMode Admission = AdmissionMode::Continuous;

  /// Per-tenant SLO: a latency target expressed as a bound on each
  /// request's aggregate queueing time (queueingExcess: latency over
  /// the kernel's isolated duration), in simulation time units.
  /// Tenants absent here have no target (they attain trivially).
  /// Drives SLO-attainment/goodput reporting and, when
  /// AdaptiveSloWeights is set, the weight controller.
  std::map<int, double> SloTargets;
  /// Continuous and stride accelOS (open or closed loop, one device or
  /// a fleet): periodically re-weight tenants from their observed p95
  /// queueing time via accelos::SloWeightController (multiplicative
  /// increase toward missed SLOs, bounded boost). The FIFO and EK
  /// baselines and the RoundSync loop have no weights to steer and
  /// ignore this.
  bool AdaptiveSloWeights = false;
  /// Control interval of the SLO controller, in simulation time units.
  /// Must be positive when AdaptiveSloWeights is set.
  double SloControlInterval = 0;
  /// Controller tuning (bounds, factors, hysteresis).
  accelos::SloControllerOptions SloTuning;
  /// Strict weighted entitlements (continuous accelOS only; off is the
  /// bit-identical default). The work-conserving discipline grants
  /// every request min(saturated share, residual fit) — which is
  /// *request*-bound on an empty device and *fit*-bound on a full one,
  /// so the weighted share target between the two almost never binds
  /// and weights barely steer service. With StrictShares the admission
  /// targets come from the solver WITHOUT greedy saturation: each
  /// request is granted its weighted entitlement and no more, so the
  /// capacity a light tenant leaves on the table flows to the heavy
  /// (or SLO-boosted) tenants' next slices instead of being backfilled.
  /// Entitlements sum to (nearly) the full capacity, so under load the
  /// device stays as busy as before; what changes is who occupies it.
  bool StrictShares = false;
  /// Measurement baseline for the incremental-admission fast paths
  /// (continuous accelOS only): run every admission pass through the
  /// allocating reference solve (accelos::SchedulerOptions::Incremental
  /// off) — the exact pre-optimization hot path. Grant histories are
  /// bit-identical to the default either way (the fast paths are
  /// exactness-preserving); what changes is the events/sec
  /// bench/serve_scale measures.
  bool FullSolveReference = false;
};

/// Degenerate-latency threshold, as a fraction of the request's
/// isolated baseline duration: below it a turnaround is considered
/// zero-work. Far smaller than any real request's latency (which is at
/// least its own execution time).
constexpr double ZeroWorkLatencyEpsilon = 1e-9;

/// The streaming slowdown of one request: latency over the isolated
/// baseline duration. A zero-work request completes at its admission
/// boundary, so both its shared and isolated durations are (near)
/// zero; its slowdown is the 0/0 limit — ideal service, exactly 1.
/// (Reporting the raw epsilon ratio instead would both trip the
/// metrics' positivity asserts at zero and, clamped, inflate max/min
/// unfairness by nine orders of magnitude.)
inline double streamSlowdown(double Latency, double AloneDuration) {
  if (AloneDuration <= 0 ||
      Latency <= ZeroWorkLatencyEpsilon * AloneDuration)
    return 1.0;
  return metrics::individualSlowdown(Latency, AloneDuration);
}

/// Replays \p Trace under \p Kind on \p Driver's device.
StreamOutcome runStream(ExperimentDriver &Driver, SchedulerKind Kind,
                        const std::vector<workloads::TimedRequest> &Trace,
                        const StreamOptions &Opts = {});

/// The TenantLoop mode: replays the closed-loop \p Script under \p Kind.
/// Each tenant starts with its first Concurrency scripted requests (at
/// their think-time offsets from time 0) and issues the next one only
/// when a predecessor completes — so the arrival stream emerges from
/// scheduling decisions instead of being fixed up front, and a slow
/// scheduler is offered less load (backpressure), exactly like a real
/// closed-loop serving client. The accelOS path runs
/// StreamOptions::Admission on the same loop as runStream; FIFO submits
/// reactively into the hardware queue and EK merges whatever is
/// pending at each round boundary. With
/// AdaptiveSloWeights, completions feed the SloWeightController and
/// new/requeued submissions pick up the adapted weights. The outcome's
/// Requests are in arrival order.
StreamOutcome runClosedLoop(ExperimentDriver &Driver, SchedulerKind Kind,
                            const workloads::ClosedLoopScript &Script,
                            const StreamOptions &Opts = {});

/// Mean isolated (solo, baseline) duration across the suite: the
/// natural time unit for calibrating arrival rates and round quanta.
double meanIsolatedBaselineDuration(ExperimentDriver &Driver);

} // namespace harness
} // namespace accel

#endif // ACCEL_HARNESS_STREAMING_H
