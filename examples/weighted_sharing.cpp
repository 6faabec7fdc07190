//===- examples/weighted_sharing.cpp - Non-equal sharing ratios --------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Sec. 2.2: "There may be occasions where it is deemed fairer to
/// give more resources to one application over another... This can
/// easily be achieved by changing the sharing ratio." Two tenants run
/// the same kernel; the premium tenant's weight is swept from 1x to 4x
/// and the example shows the work-group allocation and resulting
/// dequeue counts shifting proportionally. Both requests arrive at the
/// same instant, so the runtime's first admission pass solves their
/// weighted shares together.
///
//===----------------------------------------------------------------------===//

#include "accelos/ProxyCL.h"
#include "harness/Table.h"
#include "support/RawOstream.h"
#include "support/StringUtil.h"

using namespace accel;

int main() {
  raw_ostream &OS = outs();
  OS << "=== Weighted (non-equal) resource sharing ===\n\n";

  const char *Source = R"(
    kernel void busy(global float* d, int iters) {
      long gid = get_global_id(0);
      float acc = d[gid];
      for (int i = 0; i < iters; i++) {
        acc = acc * 1.0001f + 0.5f;
      }
      d[gid] = acc;
    }
  )";

  harness::TextTable T({"Weight premium:basic", "premium WGs",
                        "basic WGs", "ratio"});
  for (double Weight : {1.0, 2.0, 3.0, 4.0}) {
    auto Device = ocl::Platform::createNvidiaK20m();
    accelos::Runtime AccelOS(*Device);
    cantFail(AccelOS.setAppWeight(/*AppId=*/1, Weight));

    accelos::ProxyCL Premium(AccelOS, 1), Basic(AccelOS, 2);
    constexpr int N = 64 * 512;

    struct Tenant {
      ocl::Program *P;
      ocl::Kernel K;
      ocl::Buffer B;
    };
    std::vector<Tenant> Tenants;
    for (accelos::ProxyCL *App : {&Premium, &Basic}) {
      ocl::Program *P = cantFail(App->createProgram(Source));
      ocl::Kernel K = cantFail(App->createKernel(*P, "busy"));
      ocl::Buffer B = cantFail(App->createBuffer(N * 4));
      cantFail(App->setKernelArg(K, 0, ocl::KernelArg::buffer(B)));
      cantFail(App->setKernelArg(K, 1, ocl::KernelArg::scalarI32(4)));
      Tenants.push_back({P, std::move(K), std::move(B)});
    }
    kir::NDRangeCfg Range;
    Range.GlobalSize[0] = N;
    Range.LocalSize[0] = 64;
    cantFail(Premium.enqueueNDRange(Tenants[0].K, Range));
    cantFail(Basic.enqueueNDRange(Tenants[1].K, Range));
    auto Execs = cantFail(AccelOS.drain());

    double Ratio = static_cast<double>(Execs[0].PhysicalWGs) /
                   static_cast<double>(Execs[1].PhysicalWGs);
    std::string Label = std::to_string(static_cast<int>(Weight)) + ":1";
    T.addRow({Label, std::to_string(Execs[0].PhysicalWGs),
              std::to_string(Execs[1].PhysicalWGs),
              formatDouble(Ratio, 2)});
  }
  T.print(OS);
  OS << "\nThe allocation tracks the configured ratio; equal sharing "
        "(1:1) is the paper's default policy.\n";
  return 0;
}
