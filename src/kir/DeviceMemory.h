//===- kir/DeviceMemory.h - Simulated device global memory ------*- C++-*-===//
//
// Part of the accelOS reproduction (CGO'16, Margiolas & O'Boyle).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable simulated device (global) memory with a first-fit
/// allocator. OpenCL buffers, Virtual NDRange descriptors, and kernel
/// atomics all live here. Single-threaded by construction; "atomic"
/// operations are atomic with respect to interleaved work-item execution
/// in the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef ACCEL_KIR_DEVICEMEMORY_H
#define ACCEL_KIR_DEVICEMEMORY_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <memory>

namespace accel {
namespace kir {

/// Simulated global memory of one accelerator.
class DeviceMemory {
public:
  /// Creates a zeroed memory of \p CapacityBytes bytes, backed lazily:
  /// untouched pages cost no resident memory.
  explicit DeviceMemory(uint64_t CapacityBytes);

  /// Allocates \p Size bytes (8-byte aligned). \returns the device
  /// address, or an error when memory is exhausted.
  Expected<uint64_t> allocate(uint64_t Size);

  /// Releases the allocation starting at \p Addr (must be a live
  /// allocation address).
  void release(uint64_t Addr);

  /// \returns bytes currently allocated.
  uint64_t usedBytes() const { return Used; }

  /// \returns total capacity in bytes.
  uint64_t capacityBytes() const { return Capacity; }

  /// \returns true when [Addr, Addr+Size) lies within the memory.
  bool inBounds(uint64_t Addr, uint64_t Size) const {
    return Addr != 0 && Addr + Size <= Capacity && Addr + Size >= Addr;
  }

  // Typed accessors. Callers must bounds-check via inBounds first (the
  // interpreter turns violations into kernel traps); these assert.
  uint32_t readU32(uint64_t Addr) const;
  void writeU32(uint64_t Addr, uint32_t Value);
  uint64_t readU64(uint64_t Addr) const;
  void writeU64(uint64_t Addr, uint64_t Value);

  /// Fetch-add on an i64 cell; \returns the previous value, or a
  /// diagnostic when \p Addr is not 8-byte aligned (real devices fault
  /// or silently tear on unaligned atomics — neither is acceptable in
  /// a simulator).
  Expected<int64_t> atomicAddI64(uint64_t Addr, int64_t Delta);

  /// Fetch-op on an i32 cell; \returns the previous value, or a
  /// diagnostic when \p Addr is not 4-byte aligned.
  Expected<int32_t> atomicRmwI32(uint64_t Addr, int32_t Operand,
                                 int32_t (*Op)(int32_t, int32_t));

  /// Bulk host<->device transfer helpers (used by the OpenCL layer).
  void copyIn(uint64_t Addr, const void *Src, uint64_t Size);
  void copyOut(uint64_t Addr, void *Dst, uint64_t Size) const;

private:
  struct Unmap {
    uint64_t Bytes = 0;
    void operator()(uint8_t *P) const;
  };

  uint64_t Capacity;
  uint64_t Used = 0;
  /// One anonymous private mapping of Capacity bytes. The OS zero-fills
  /// its pages on first touch, so a device costs resident memory only
  /// for the pages its allocations actually use. A mapping, not calloc:
  /// ThreadSanitizer's calloc fills the whole block and
  /// AddressSanitizer writes a shadow byte per eight heap bytes, while
  /// neither touches an anonymous mapping.
  std::unique_ptr<uint8_t[], Unmap> Storage;
  // Live allocations: address -> size.
  std::map<uint64_t, uint64_t> Allocations;
  // Free regions: address -> size (coalesced).
  std::map<uint64_t, uint64_t> FreeList;
};

} // namespace kir
} // namespace accel

#endif // ACCEL_KIR_DEVICEMEMORY_H
