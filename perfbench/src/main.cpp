//===- perfbench/src/main.cpp - The accelOS stack benchmark binary --------===//
///
/// \file
/// Usage:
///   accelbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///              [--trace-out <path>] [--corrupt-buffers <n>]
///   accelbench --list-metrics
///
/// Prints the workload's description, schedule digest and metrics, then
/// one JSON result line. With --trace 0 the line carries the end-to-end
/// metrics; with --trace 1 the per-layer ones. Exits non-zero when any
/// output check fails.
///
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: accelbench --workload "
               "<scale-open|fleet-outage|runtime-clients|paper-mixes> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--corrupt-buffers <n>]\n"
               "       accelbench --list-metrics\n");
  return 2;
}

void listMetrics() {
  auto Print = [](const char *Key, const std::vector<MetricDef> &Defs) {
    std::printf("\"%s\": [", Key);
    for (size_t I = 0; I != Defs.size(); ++I)
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                  "\"%s\"}",
                  I ? ", " : "", Defs[I].Name, Defs[I].Unit, Defs[I].Better);
    std::printf("]");
  };
  std::printf("{");
  Print("end_to_end", endToEndMetrics());
  std::printf(", ");
  Print("per_layer", perLayerMetrics());
  std::printf("}\n");
}

bool parseUnsigned(const char *S, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return *S && *End == '\0';
}

bool parseDouble(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return *S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload;
  RunConfig Cfg;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--list-metrics") {
      listMetrics();
      return 0;
    }
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    unsigned long long U = 0;
    double D = 0;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed" && parseUnsigned(V, U)) {
      Cfg.Seed = U;
      HaveSeed = true;
    } else if (A == "--seconds" && parseDouble(V, D) && D > 0 && D <= 3600) {
      Cfg.Seconds = D;
      HaveSeconds = true;
    } else if (A == "--trace" && parseUnsigned(V, U) && U <= 1) {
      Cfg.Traced = U == 1;
      HaveTrace = true;
    } else if (A == "--trace-out") {
      Cfg.TracePath = V;
    } else if (A == "--corrupt-buffers" && parseUnsigned(V, U) && U < 1000) {
      Cfg.CorruptBuffers = static_cast<unsigned>(U);
    } else {
      return usage();
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage();

  Report R;
  std::printf("accelbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Traced ? 1 : 0);
  if (Workload == "scale-open")
    runScaleOpen(Cfg, R);
  else if (Workload == "fleet-outage")
    runFleetOutage(Cfg, R);
  else if (Workload == "runtime-clients")
    runRuntimeClients(Cfg, R);
  else if (Workload == "paper-mixes")
    runPaperMixes(Cfg, R);
  else
    return usage();
  return R.print(Cfg.Traced);
}
