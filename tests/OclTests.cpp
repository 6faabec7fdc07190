//===- tests/OclTests.cpp - OpenCL-style API tests ----------------------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "ocl/Ocl.h"

#include "kir/Module.h"

#include "gtest/gtest.h"

#include <sys/resource.h>

using namespace accel;
using namespace accel::ocl;

namespace {

const char *VaddSource = R"(
  kernel void vadd(global const float* a, global const float* b,
                   global float* c) {
    long gid = get_global_id(0);
    c[gid] = a[gid] + b[gid];
  }
)";

TEST(OclDeviceTest, DevicesAreLazilyBacked) {
  // A device's multi-GiB global memory costs resident memory only for
  // the pages its allocations touch — in sanitizer builds too, since
  // the block is a plain anonymous mapping no sanitizer fills or
  // shadows. Declared first so no earlier test in this process has
  // raised the peak already.
  auto PeakRssBytes = [] {
    struct rusage U;
    getrusage(RUSAGE_SELF, &U);
    return static_cast<uint64_t>(U.ru_maxrss) * 1024; // KiB on Linux.
  };
  for (const sim::DeviceSpec &Spec :
       {sim::DeviceSpec::nvidiaK20m(), sim::DeviceSpec::amdR9295X2()}) {
    const uint64_t Before = PeakRssBytes();
    Device Dev(Spec);
    Buffer B = cantFail(Buffer::create(Dev, 4096));
    const uint64_t Capacity = Dev.memory().capacityBytes();
    EXPECT_GT(Capacity, 1ull << 30);
    EXPECT_LT(PeakRssBytes() - Before, 256ull << 20) << Spec.Name;
  }
}

TEST(OclDeviceTest, PlatformModels) {
  auto N = Platform::createNvidiaK20m();
  auto A = Platform::createAmdR9295X2();
  EXPECT_EQ(N->spec().NumCUs, 13u);
  EXPECT_EQ(A->spec().NumCUs, 44u);
  EXPECT_GT(N->memory().capacityBytes(), 4ull << 30);
}

TEST(OclBufferTest, LifecycleReleasesMemory) {
  auto Dev = Platform::createNvidiaK20m();
  uint64_t Before = Dev->memory().usedBytes();
  {
    Buffer B = cantFail(Buffer::create(*Dev, 4096));
    EXPECT_GT(Dev->memory().usedBytes(), Before);
    EXPECT_EQ(B.size(), 4096u);
    EXPECT_NE(B.deviceAddress(), 0u);
  }
  EXPECT_EQ(Dev->memory().usedBytes(), Before);
}

TEST(OclBufferTest, MoveTransfersOwnership) {
  auto Dev = Platform::createNvidiaK20m();
  Buffer A = cantFail(Buffer::create(*Dev, 1024));
  uint64_t Addr = A.deviceAddress();
  Buffer B = std::move(A);
  EXPECT_EQ(B.deviceAddress(), Addr);
  // Only one release happens (no double free at scope exit).
}

TEST(OclBufferTest, ReadWriteRoundTrip) {
  auto Dev = Platform::createNvidiaK20m();
  Buffer B = cantFail(Buffer::create(*Dev, 64));
  std::vector<int32_t> In = {1, 2, 3, 4};
  cantFail(B.write(In.data(), 16));
  std::vector<int32_t> Out(4);
  cantFail(B.read(Out.data(), 16));
  EXPECT_EQ(In, Out);
}

TEST(OclBufferTest, OutOfRangeTransfersRejected) {
  auto Dev = Platform::createNvidiaK20m();
  Buffer B = cantFail(Buffer::create(*Dev, 16));
  char Data[32] = {};
  Error E = B.write(Data, 32);
  EXPECT_TRUE(static_cast<bool>(E));
  Error E2 = B.read(Data, 8, /*Offset=*/12);
  EXPECT_TRUE(static_cast<bool>(E2));
}

TEST(OclProgramTest, BuildReportsFrontendErrors) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, "kernel void broken( { }");
  Error E = P.build();
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_FALSE(P.isBuilt());
}

TEST(OclProgramTest, BuildIsIdempotent) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  kir::Module *First = P.module();
  cantFail(P.build());
  EXPECT_EQ(P.module(), First);
}

TEST(OclKernelTest, LookupFailsForUnknownName) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  Expected<Kernel> K = Kernel::create(P, "nope");
  EXPECT_FALSE(static_cast<bool>(K));
}

TEST(OclKernelTest, UnsetArgumentsRejected) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  Kernel K = cantFail(Kernel::create(P, "vadd"));
  Expected<std::vector<uint64_t>> Args = K.packedArgs();
  EXPECT_FALSE(static_cast<bool>(Args));
  EXPECT_NE(Args.message().find("unset"), std::string::npos);
}

TEST(OclKernelTest, ArgIndexValidated) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  Kernel K = cantFail(Kernel::create(P, "vadd"));
  Error E = K.setArg(7, KernelArg::scalarI32(1));
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(OclQueueTest, EndToEndWithoutAccelOS) {
  // Direct use of the "standard stack" — no interception, original
  // kernel executes over the full NDRange.
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  Kernel K = cantFail(Kernel::create(P, "vadd"));

  constexpr int N = 128;
  std::vector<float> A(N, 2.0f), B(N, 5.0f), C(N, 0.0f);
  Buffer BA = cantFail(Buffer::create(*Dev, N * 4));
  Buffer BB = cantFail(Buffer::create(*Dev, N * 4));
  Buffer BC = cantFail(Buffer::create(*Dev, N * 4));
  cantFail(BA.write(A.data(), N * 4));
  cantFail(BB.write(B.data(), N * 4));
  cantFail(K.setArg(0, KernelArg::buffer(BA)));
  cantFail(K.setArg(1, KernelArg::buffer(BB)));
  cantFail(K.setArg(2, KernelArg::buffer(BC)));

  CommandQueue Q(*Dev);
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = N;
  Range.LocalSize[0] = 32;
  auto Stats = Q.enqueueNDRange(K, Range);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.message();
  cantFail(BC.read(C.data(), N * 4));
  for (int I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(C[I], 7.0f);
}

TEST(OclQueueTest, BadRangeRejected) {
  auto Dev = Platform::createNvidiaK20m();
  Program P(*Dev, VaddSource);
  cantFail(P.build());
  Kernel K = cantFail(Kernel::create(P, "vadd"));
  CommandQueue Q(*Dev);
  kir::NDRangeCfg Range;
  Range.GlobalSize[0] = 100;
  Range.LocalSize[0] = 32; // does not divide
  auto Stats = Q.enqueueNDRange(K, Range);
  EXPECT_FALSE(static_cast<bool>(Stats));
  EXPECT_NE(Stats.message().find("divisible"), std::string::npos);
}

TEST(OclKernelTest, ScalarEncodings) {
  EXPECT_EQ(KernelArg::scalarI32(-1).Bits, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(KernelArg::scalarI64(42).Bits, 42ull);
  // f32 bit pattern of 1.0f.
  EXPECT_EQ(KernelArg::scalarF32(1.0f).Bits, 0x3F800000ull);
}

} // namespace
