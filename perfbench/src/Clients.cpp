//===- perfbench/src/Clients.cpp - runtime-clients ------------------------===//
///
/// \file
/// The runtime-clients workload: accelos::Runtime on an ocl K20m, four
/// tenants, each on its own ProxyCL with a different MiniCL kernel, each
/// a closed-loop client thread doing write -> submit -> wait -> read ->
/// verify, the four in lockstep rounds.
/// It is the only workload that runs the kir interpreter, and the four
/// threads contend on the Runtime's single mutex. Its set-up builds the
/// ocl::Device, which dominates set-up time and peak memory.
///
/// The simulated schedule follows the host threads' interleaving, so the
/// sim_* metrics here vary between runs of one seed and no schedule
/// digest is printed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "accelos/ProxyCL.h"
#include "harness/Streaming.h"
#include "support/Random.h"

#include <algorithm>
#include <barrier>
#include <memory>
#include <thread>

using namespace accel;

namespace perfbench {

namespace {

constexpr int NumTenants = 4;
constexpr uint64_t Items = 1024;
constexpr uint64_t GroupSize = 64;
constexpr int PolyTrips = 24;
/// Host-time slots of the measured phase: the traced run traces the
/// rounds started in even slots only, and compares them with the rest.
constexpr double SlotSeconds = 0.5;

enum class KernelKind { ScaleAdd, Poly, GroupSum, Stencil };

struct KernelDef {
  KernelKind Kind;
  const char *Name;
  const char *Source;
};

// Elementwise, loop-heavy, local-memory/barrier reduction, and a
// neighbour-reading stencil. Integer arithmetic keeps the host reference
// exact; inputs are small enough that nothing overflows.
const KernelDef Kernels[NumTenants] = {
    {KernelKind::ScaleAdd, "scale_add", R"(
      kernel void scale_add(global const int* x, global int* y, int a) {
        long gid = get_global_id(0);
        y[gid] = x[gid] * a + 7;
      }
    )"},
    {KernelKind::Poly, "poly", R"(
      kernel void poly(global const int* x, global int* y, int a) {
        long gid = get_global_id(0);
        int v = x[gid];
        int acc = 0;
        for (int i = 0; i < 24; i += 1) {
          acc = acc + ((v + i) % 13) * a;
        }
        y[gid] = acc;
      }
    )"},
    {KernelKind::GroupSum, "group_sum", R"(
      kernel void group_sum(global const int* x, global int* y, int a) {
        local int tile[64];
        long lid = get_local_id(0);
        long gid = get_global_id(0);
        tile[lid] = x[gid] * a;
        barrier();
        long stride = 32;
        while (stride > 0) {
          if (lid < stride) {
            tile[lid] += tile[lid + stride];
          }
          barrier();
          stride = stride / 2;
        }
        if (lid == 0) {
          y[get_group_id(0)] = tile[0];
        }
      }
    )"},
    {KernelKind::Stencil, "stencil", R"(
      kernel void stencil(global const int* x, global int* y, int a) {
        long gid = get_global_id(0);
        long n = get_global_size(0);
        long l = (gid + n - 1) % n;
        long r = (gid + 1) % n;
        y[gid] = x[l] + x[gid] * a + x[r];
      }
    )"},
};

uint64_t outputLen(KernelKind K) {
  return K == KernelKind::GroupSum ? Items / GroupSize : Items;
}

/// The host reference of one request's output.
std::vector<int32_t> reference(KernelKind K, const std::vector<int32_t> &X,
                               int32_t A) {
  std::vector<int32_t> Y(outputLen(K));
  for (uint64_t I = 0; I != Y.size(); ++I) {
    switch (K) {
    case KernelKind::ScaleAdd:
      Y[I] = X[I] * A + 7;
      break;
    case KernelKind::Poly: {
      int32_t Acc = 0;
      for (int32_t T = 0; T != PolyTrips; ++T)
        Acc += ((X[I] + T) % 13) * A;
      Y[I] = Acc;
      break;
    }
    case KernelKind::GroupSum: {
      int32_t Sum = 0;
      for (uint64_t J = 0; J != GroupSize; ++J)
        Sum += X[I * GroupSize + J] * A;
      Y[I] = Sum;
      break;
    }
    case KernelKind::Stencil:
      Y[I] = X[(I + Items - 1) % Items] + X[I] * A + X[(I + 1) % Items];
      break;
    }
  }
  return Y;
}

struct Tenant {
  KernelKind Kind = KernelKind::ScaleAdd;
  std::unique_ptr<accelos::ProxyCL> Proxy;
  std::unique_ptr<ocl::Kernel> K;
  std::unique_ptr<ocl::Buffer> X, Y;
  int32_t A = 0;       ///< The scalar argument, set once at set-up.
  double Isolated = 0; ///< Simulated turnaround of a request run alone.
};

/// One set-up: device, runtime, programs, buffers. Members are declared
/// so that buffers die before the runtime and the device.
struct Stack {
  std::unique_ptr<ocl::Device> Dev;
  std::unique_ptr<accelos::Runtime> RT;
  std::vector<Tenant> Tenants;
};

kir::NDRangeCfg rangeCfg() {
  kir::NDRangeCfg R;
  R.GlobalSize[0] = Items;
  R.LocalSize[0] = GroupSize;
  return R;
}

/// One request's outcome; Error is empty when it passed every check.
struct RequestResult {
  std::string Error;
  accelos::ScheduledExecution Exec;
  uint64_t SubmitNs = 0;
  uint64_t WaitNs = 0;
};

/// Fresh input for one request.
std::vector<int32_t> drawInput(SplitMix64 &Rng) {
  std::vector<int32_t> X(Items);
  for (int32_t &V : X)
    V = static_cast<int32_t>(Rng.nextBelow(1000));
  return X;
}

/// Runs one request of tenant \p T on input \p X: write the input into
/// the tenant's own buffer, submit, wait, read back and compare with the
/// host reference. Only submit and wait touch the shared Runtime, and
/// both are thread-safe. \p Corrupt flips a bit of the host copy first
/// (test hook).
RequestResult runRequest(Tenant &T, const std::vector<int32_t> &X, SpanLog *L,
                         int64_t Id, bool Corrupt) {
  RequestResult Out;
  {
    SpanScope S(L, Layer::Ocl, "write", Id);
    if (Error E = T.X->write(X.data(), Items * sizeof(int32_t)))
      Out.Error = "write: " + E.message();
  }
  if (!Out.Error.empty())
    return Out;
  uint64_t T0 = nowNs();
  Expected<accelos::RequestHandle> H = [&] {
    SpanScope S(L, Layer::Accelos, "submit", Id);
    return T.Proxy->submitNDRange(*T.K, rangeCfg());
  }();
  uint64_t T1 = nowNs();
  if (!H) {
    Out.Error = "submit: " + H.message();
    return Out;
  }
  Expected<accelos::ScheduledExecution> E = [&] {
    SpanScope S(L, Layer::Accelos, "wait", Id);
    return H->wait();
  }();
  uint64_t T2 = nowNs();
  Out.SubmitNs = T1 - T0;
  Out.WaitNs = T2 - T1;
  if (!E) {
    Out.Error = "wait: " + E.message();
    return Out;
  }
  Out.Exec = E.take();
  std::vector<int32_t> Got(outputLen(T.Kind));
  {
    SpanScope S(L, Layer::Ocl, "read", Id);
    if (Error RE = T.Y->read(Got.data(), Got.size() * sizeof(int32_t)))
      Out.Error = "read: " + RE.message();
  }
  if (!Out.Error.empty())
    return Out;
  if (Corrupt)
    Got[0] ^= 1;
  SpanScope S(L, Layer::Bench, "verify", Id);
  if (Got != reference(T.Kind, X, T.A))
    Out.Error = std::string(Kernels[static_cast<int>(T.Kind)].Name) +
                " result differs from the host reference";
  else if (Out.Exec.StartTime < Out.Exec.ArrivalTime)
    Out.Error = "request started before its arrival";
  return Out;
}

/// Builds the whole stack. \returns an error message, empty on success.
std::string buildStack(Stack &S, uint64_t Seed, SpanLog *L,
                       double &DeviceS, std::vector<double> &ProgramUs) {
  uint64_t T0 = nowNs();
  {
    SpanScope Sp(L, Layer::Ocl, "createNvidiaK20m");
    S.Dev = ocl::Platform::createNvidiaK20m();
  }
  DeviceS = static_cast<double>(nowNs() - T0) * 1e-9;
  S.RT = std::make_unique<accelos::Runtime>(*S.Dev);
  for (int I = 0; I != NumTenants; ++I) {
    Tenant T;
    T.Kind = Kernels[I].Kind;
    T.Proxy = std::make_unique<accelos::ProxyCL>(*S.RT, I + 1);
    uint64_t P0 = nowNs();
    Expected<ocl::Program *> P = [&] {
      SpanScope Sp(L, Layer::Jit, "createProgram");
      return T.Proxy->createProgram(Kernels[I].Source);
    }();
    ProgramUs.push_back(static_cast<double>(nowNs() - P0) * 1e-3);
    if (!P)
      return std::string("createProgram: ") + P.message();
    SpanScope Sp(L, Layer::Ocl, "buffers");
    Expected<ocl::Kernel> K = T.Proxy->createKernel(**P, Kernels[I].Name);
    Expected<ocl::Buffer> X = T.Proxy->createBuffer(Items * 4);
    Expected<ocl::Buffer> Y = T.Proxy->createBuffer(outputLen(T.Kind) * 4);
    if (!K || !X || !Y)
      return "kernel or buffer creation failed";
    T.K = std::make_unique<ocl::Kernel>(K.take());
    T.X = std::make_unique<ocl::Buffer>(X.take());
    T.Y = std::make_unique<ocl::Buffer>(Y.take());
    SplitMix64 Rng(Seed * 31 + static_cast<uint64_t>(I));
    T.A = static_cast<int32_t>(Rng.nextInRange(1, 15));
    const ocl::KernelArg Args[] = {ocl::KernelArg::buffer(*T.X),
                                   ocl::KernelArg::buffer(*T.Y),
                                   ocl::KernelArg::scalarI32(T.A)};
    for (unsigned Idx = 0; Idx != 3; ++Idx)
      if (Error E = T.Proxy->setKernelArg(*T.K, Idx, Args[Idx]))
        return "setKernelArg: " + E.message();
    S.Tenants.push_back(std::move(T));
  }
  // Warm-up: each tenant's request alone on the idle runtime gives the
  // isolated duration its slowdowns are normalized by.
  SplitMix64 WarmRng(Seed);
  for (int I = 0; I != NumTenants; ++I) {
    RequestResult RR =
        runRequest(S.Tenants[I], drawInput(WarmRng), L, -1, false);
    if (!RR.Error.empty())
      return "warm-up: " + RR.Error;
    S.Tenants[I].Isolated = RR.Exec.turnaround();
  }
  return "";
}

/// What the client threads record, merged after they join.
struct ClientLog {
  std::vector<double> ClientUs, SubmitUs, WaitUs;
  std::vector<RequestSample> Samples;
  uint64_t Insts = 0, MemOps = 0, Barriers = 0, Slices = 0, WGs = 0;
  uint64_t WaitNs = 0;
  uint64_t Done = 0, TracedDone = 0, Failed = 0;
  std::string FirstError;
};

} // namespace

void runRuntimeClients(const RunConfig &Cfg, Report &R) {
  Tracer T;
  SpanLog *Log = Cfg.Traced ? &T.newLog() : nullptr;

  // Set-up, once: the device alone takes seconds and 5 GB, so a run
  // sets up once and perfbench/run.py takes the median over the
  // processes it samples.
  Stack S;
  std::vector<double> ProgramUs;
  double RssBefore = peakRssMb();
  uint64_t T0 = nowNs();
  double DeviceS = 0;
  std::string Err = buildStack(S, Cfg.Seed, Log, DeviceS, ProgramUs);
  if (!Err.empty()) {
    R.Attempted += 1;
    R.fail(1, "set-up: " + Err);
    return;
  }
  double SetupS = static_cast<double>(nowNs() - T0) * 1e-9;
  double DeviceRss = peakRssMb() - RssBefore;
  double JitS = 0;
  for (double Us : ProgramUs)
    JitS += Us * 1e-6;
  accelos::SchedulerStats Before = S.RT->schedulerStats();
  double MeanIso = 0;
  for (const Tenant &Tn : S.Tenants)
    MeanIso += Tn.Isolated / NumTenants;

  // Measured phase: one closed-loop client thread per tenant. The
  // clients go in lockstep rounds: in each, every tenant makes one
  // request, all four contending on the Runtime at once. The tenants'
  // requests cost from 1.5 to 9 ms, and left to race, the threads' share
  // of the lock, and with it the request mix, varied from run to run;
  // in rounds every rate measures the same mix.
  std::vector<ClientLog> Logs(NumTenants);
  std::vector<SpanLog *> ThreadLogs(NumTenants, nullptr);
  for (int I = 0; I != NumTenants; ++I)
    if (Cfg.Traced)
      ThreadLogs[I] = &T.newLog();
  uint64_t Start = nowNs();
  uint64_t SlotNs = static_cast<uint64_t>(SlotSeconds * 1e9);
  uint64_t Deadline = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  // Written only by the barrier's completion step, which runs while every
  // client waits.
  std::vector<double> RoundS[2]; // Untraced, traced rounds.
  uint64_t RoundStart = 0;
  bool TraceRound = false, Stop = false;
  auto OnRound = [&]() noexcept {
    uint64_t Now = nowNs();
    if (RoundStart != 0)
      RoundS[TraceRound ? 1 : 0].push_back(
          static_cast<double>(Now - RoundStart) * 1e-9);
    RoundStart = Now;
    TraceRound = Cfg.Traced && ((Now - Start) / SlotNs) % 2 == 0;
    Stop = Now >= Deadline;
  };
  std::barrier Sync(NumTenants, OnRound);
  auto Client = [&](int I) {
    Tenant &Tn = S.Tenants[I];
    ClientLog &CL = Logs[I];
    SplitMix64 Rng(Cfg.Seed * 7919 + static_cast<uint64_t>(I));
    unsigned CorruptLeft = I == 0 ? Cfg.CorruptBuffers : 0;
    for (int64_t Seq = 0;; ++Seq) {
      Sync.arrive_and_wait();
      if (Stop)
        break;
      SpanLog *L = TraceRound ? ThreadLogs[I] : nullptr;
      int64_t Id = I * 1000000 + Seq;
      std::vector<int32_t> X = drawInput(Rng);
      bool Corrupt = CorruptLeft > 0;
      CorruptLeft -= Corrupt ? 1 : 0;
      RequestResult RR;
      {
        SpanScope M(L, Layer::Bench, "measure", Id);
        RR = runRequest(Tn, X, L, Id, Corrupt);
      }
      if (!RR.Error.empty()) {
        if (CL.Failed++ == 0)
          CL.FirstError = RR.Error;
        continue;
      }
      ++CL.Done;
      CL.TracedDone += L ? 1 : 0;
      const accelos::ScheduledExecution &E = RR.Exec;
      CL.ClientUs.push_back(static_cast<double>(RR.SubmitNs + RR.WaitNs) *
                            1e-3);
      CL.SubmitUs.push_back(static_cast<double>(RR.SubmitNs) * 1e-3);
      CL.WaitUs.push_back(static_cast<double>(RR.WaitNs) * 1e-3);
      CL.Samples.push_back(
          {E.EndTime, harness::streamSlowdown(E.turnaround(), Tn.Isolated),
           std::max(0.0, E.turnaround() - Tn.Isolated)});
      CL.WaitNs += RR.WaitNs;
      CL.Insts += E.Stats.InstsExecuted;
      CL.MemOps += E.Stats.MemoryOps;
      CL.Barriers += E.Stats.Barriers;
      CL.Slices += E.Slices;
      CL.WGs += E.OriginalWGs;
    }
  };
  std::vector<std::thread> Threads;
  for (int I = 0; I != NumTenants; ++I)
    Threads.emplace_back(Client, I);
  for (std::thread &Th : Threads)
    Th.join();
  double WallS = static_cast<double>(nowNs() - Start) * 1e-9;

  uint64_t P0 = nowNs();
  ClientLog All;
  {
    SpanScope Sp(Log, Layer::Metrics, "summarize");
    for (ClientLog &CL : Logs) {
      auto Append = [](std::vector<double> &To, const std::vector<double> &F) {
        To.insert(To.end(), F.begin(), F.end());
      };
      Append(All.ClientUs, CL.ClientUs);
      Append(All.SubmitUs, CL.SubmitUs);
      Append(All.WaitUs, CL.WaitUs);
      All.Samples.insert(All.Samples.end(), CL.Samples.begin(),
                         CL.Samples.end());
      All.WaitNs += CL.WaitNs;
      All.Insts += CL.Insts;
      All.MemOps += CL.MemOps;
      All.Barriers += CL.Barriers;
      All.Slices += CL.Slices;
      All.WGs += CL.WGs;
      All.Done += CL.Done;
      All.TracedDone += CL.TracedDone;
      All.Failed += CL.Failed;
      if (CL.Failed && All.FirstError.empty())
        All.FirstError = CL.FirstError;
    }
  }
  R.Attempted += All.Done + All.Failed;
  if (All.Failed)
    R.fail(All.Failed, All.FirstError);
  if (All.Done == 0) {
    R.fail(0, "no request completed");
    return;
  }
  SimSummary Sim = summarize(All.Samples, MeanIso, 100 * MeanIso);
  double PostS = static_cast<double>(nowNs() - P0) * 1e-9;

  // Rates from the median round: a stall of the host hits a few rounds,
  // never most of them.
  auto RoundRps = [&](const std::vector<double> &Rounds) {
    return Rounds.empty() ? 0.0 : NumTenants / median(Rounds);
  };
  double Rps = RoundRps(RoundS[0]), TracedRps = RoundRps(RoundS[1]);

  double Done = static_cast<double>(All.Done);
  R.info("workload runtime-clients: 4 closed-loop client threads "
         "(scale_add, poly, group_sum, stencil; 1024 items each) in "
         "lockstep rounds on one accelos::Runtime over an ocl K20m, " +
         std::to_string(All.Done) + " requests in " + std::to_string(WallS) +
         " s");
  R.info("rounds: " + std::to_string(RoundS[0].size() + RoundS[1].size()) +
         ", median untraced round " +
         std::to_string(RoundS[0].empty() ? 0.0 : median(RoundS[0]) * 1e3) +
         " ms");
  R.info("client latency samples (submit -> wait): " +
         std::to_string(All.ClientUs.size()));
  R.info("schedule_digest n/a (the simulated schedule follows thread "
         "interleaving)");
  R.set("setup_s", SetupS);
  R.set("peak_rss_mb", peakRssMb());
  R.set("sim_slowdown_p50", Sim.SlowdownP50);
  R.set("sim_slowdown_p99", Sim.SlowdownP99);
  R.set("sim_unfairness", Sim.Unfairness);
  if (!Cfg.Traced)
    R.set("requests_per_s", Rps);
  else if (Rps > 0 && TracedRps > 0)
    R.set("trace.rps_ratio", TracedRps / Rps);
  const accelos::SchedulerStats &After = S.RT->schedulerStats();
  double Passes = static_cast<double>(After.RoundsPlanned -
                                      Before.RoundsPlanned);
  R.set("sim_queue_p99", Sim.QueueP99);
  R.set("ocl.device_create_s", DeviceS);
  R.set("ocl.device_rss_mb", DeviceRss);
  R.set("jit.program_us", median(ProgramUs));
  R.set("jit.suite_s", JitS);
  R.set("kir.insts_per_req", static_cast<double>(All.Insts) / Done);
  R.set("kir.mem_ops_per_req", static_cast<double>(All.MemOps) / Done);
  R.set("kir.barriers_per_req", static_cast<double>(All.Barriers) / Done);
  R.set("kir.ns_per_inst", static_cast<double>(All.WaitNs) /
                               static_cast<double>(All.Insts));
  R.set("client_p50_us", percentile(All.ClientUs, 50));
  R.set("client_p99_us", percentile(All.ClientUs, 99));
  R.set("accelos.submit_us_p50", percentile(All.SubmitUs, 50));
  R.set("accelos.submit_us_p99", percentile(All.SubmitUs, 99));
  R.set("accelos.wait_us_p50", percentile(All.WaitUs, 50));
  R.set("accelos.wait_us_p99", percentile(All.WaitUs, 99));
  R.set("accelos.slices_per_req", static_cast<double>(All.Slices) / Done);
  R.set("accelos.passes_per_req", Passes / Done);
  R.set("accelos.full_solve_frac",
        Passes > 0 ? static_cast<double>(After.FullSolves -
                                         Before.FullSolves) /
                         Passes
                   : 0.0);
  R.set("accelos.deferrals_per_req",
        static_cast<double>(After.Deferrals - Before.Deferrals) / Done);
  R.set("sim.wgs_per_req", static_cast<double>(All.WGs) / Done);
  R.set("metrics.post_s", PostS);
  if (Cfg.Traced)
    finishTraced(Cfg, T, static_cast<double>(All.TracedDone), R);
}

} // namespace perfbench
