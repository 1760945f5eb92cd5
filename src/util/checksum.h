#ifndef WIREFRAME_UTIL_CHECKSUM_H_
#define WIREFRAME_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace wireframe {

/// Resumable Fletcher-16 with the customary 255 modulus. Resumability
/// lets a caller chain discontiguous pieces (a frame's header prefix and
/// its payload) without concatenating them; the value depends only on
/// the concatenated bytes, never on how they were split.
///
/// Mix dispatches like the span kernels (util/span_kernels.h): an AVX2
/// body when compiled in, the CPU has AVX2 and scalar kernels are not
/// forced (ForceScalarKernels / WIREFRAME_FORCE_SCALAR_KERNELS), else
/// the byte-serial loop. Both return bit-identical sums.
struct Fletcher16 {
  /// Both sums are reduced below 255 between Mix calls.
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;

  void Mix(const void* data, size_t n);

  uint16_t Take() const {
    return static_cast<uint16_t>((sum2 << 8) | sum1);
  }
};

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_CHECKSUM_H_
