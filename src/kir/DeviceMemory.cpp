//===- kir/DeviceMemory.cpp - Simulated device global memory ---------------===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//

#include "kir/DeviceMemory.h"

#include <cassert>
#include <cstring>
#include <string>

#include <sys/mman.h>

using namespace accel;
using namespace accel::kir;

// Address 0 is the null pointer; the first 64 bytes are never handed out.
static constexpr uint64_t ReservedPrefix = 64;

/// A lazily backed, zero-filled block of \p Bytes (null on failure).
/// MAP_NORESERVE: a device reserves its whole capacity up front but
/// touches only what its buffers use.
static uint8_t *mapZeroed(uint64_t Bytes) {
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return P == MAP_FAILED ? nullptr : static_cast<uint8_t *>(P);
}

void DeviceMemory::Unmap::operator()(uint8_t *P) const { munmap(P, Bytes); }

DeviceMemory::DeviceMemory(uint64_t CapacityBytes)
    : Capacity(CapacityBytes),
      Storage(mapZeroed(CapacityBytes), Unmap{CapacityBytes}) {
  assert(CapacityBytes > ReservedPrefix && "degenerate device memory");
  if (!Storage)
    reportFatalError(("cannot reserve " + std::to_string(CapacityBytes) +
                      " bytes of device memory")
                         .c_str());
  FreeList.emplace(ReservedPrefix, CapacityBytes - ReservedPrefix);
}

Expected<uint64_t> DeviceMemory::allocate(uint64_t Size) {
  if (Size == 0)
    Size = 8;
  // Keep everything 8-byte aligned so i64 atomics are natural.
  Size = (Size + 7) & ~static_cast<uint64_t>(7);

  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    if (It->second < Size)
      continue;
    uint64_t Addr = It->first;
    uint64_t Remaining = It->second - Size;
    FreeList.erase(It);
    if (Remaining > 0)
      FreeList.emplace(Addr + Size, Remaining);
    Allocations.emplace(Addr, Size);
    Used += Size;
    std::memset(Storage.get() + Addr, 0, Size);
    return Addr;
  }
  return makeError("device memory exhausted: requested " +
                   std::to_string(Size) + " bytes, " +
                   std::to_string(Capacity - Used) + " free");
}

void DeviceMemory::release(uint64_t Addr) {
  auto It = Allocations.find(Addr);
  assert(It != Allocations.end() && "release of unknown allocation");
  uint64_t Size = It->second;
  Allocations.erase(It);
  Used -= Size;

  // Insert into the free list and coalesce with neighbours.
  auto [Pos, Inserted] = FreeList.emplace(Addr, Size);
  assert(Inserted && "double free");
  (void)Inserted;
  if (Pos != FreeList.begin()) {
    auto Prev = std::prev(Pos);
    if (Prev->first + Prev->second == Pos->first) {
      Prev->second += Pos->second;
      FreeList.erase(Pos);
      Pos = Prev;
    }
  }
  auto Next = std::next(Pos);
  if (Next != FreeList.end() && Pos->first + Pos->second == Next->first) {
    Pos->second += Next->second;
    FreeList.erase(Next);
  }
}

uint32_t DeviceMemory::readU32(uint64_t Addr) const {
  assert(inBounds(Addr, 4) && "device read out of bounds");
  uint32_t V;
  std::memcpy(&V, Storage.get() + Addr, 4);
  return V;
}

void DeviceMemory::writeU32(uint64_t Addr, uint32_t Value) {
  assert(inBounds(Addr, 4) && "device write out of bounds");
  std::memcpy(Storage.get() + Addr, &Value, 4);
}

uint64_t DeviceMemory::readU64(uint64_t Addr) const {
  assert(inBounds(Addr, 8) && "device read out of bounds");
  uint64_t V;
  std::memcpy(&V, Storage.get() + Addr, 8);
  return V;
}

void DeviceMemory::writeU64(uint64_t Addr, uint64_t Value) {
  assert(inBounds(Addr, 8) && "device write out of bounds");
  std::memcpy(Storage.get() + Addr, &Value, 8);
}

Expected<int64_t> DeviceMemory::atomicAddI64(uint64_t Addr, int64_t Delta) {
  if (Addr % 8 != 0)
    return makeError("unaligned i64 atomic at device address " +
                     std::to_string(Addr) + " (requires 8-byte alignment)");
  int64_t Old = static_cast<int64_t>(readU64(Addr));
  writeU64(Addr, static_cast<uint64_t>(Old + Delta));
  return Old;
}

Expected<int32_t> DeviceMemory::atomicRmwI32(uint64_t Addr, int32_t Operand,
                                             int32_t (*Op)(int32_t, int32_t)) {
  if (Addr % 4 != 0)
    return makeError("unaligned i32 atomic at device address " +
                     std::to_string(Addr) + " (requires 4-byte alignment)");
  int32_t Old = static_cast<int32_t>(readU32(Addr));
  writeU32(Addr, static_cast<uint32_t>(Op(Old, Operand)));
  return Old;
}

void DeviceMemory::copyIn(uint64_t Addr, const void *Src, uint64_t Size) {
  assert(inBounds(Addr, Size) && "copyIn out of bounds");
  std::memcpy(Storage.get() + Addr, Src, Size);
}

void DeviceMemory::copyOut(uint64_t Addr, void *Dst, uint64_t Size) const {
  assert(inBounds(Addr, Size) && "copyOut out of bounds");
  std::memcpy(Dst, Storage.get() + Addr, Size);
}
