#include "util/checksum.h"

#include "util/span_kernels.h"
#include "util/span_kernels_internal.h"

namespace wireframe {

namespace {

/// The byte-serial body with the modulus deferred, so the inner loop is
/// two adds per byte.
void MixScalar(const unsigned char* data, size_t n, uint32_t* sum1,
               uint32_t* sum2) {
  uint32_t s1 = *sum1;
  uint32_t s2 = *sum2;
  size_t i = 0;
  while (i < n) {
    // 5802 iterations is the largest block that cannot overflow u32
    // (both sums enter each block already reduced below 255).
    const size_t block = n - i < 5802 ? n - i : 5802;
    for (size_t end = i + block; i < end; ++i) {
      s1 += data[i];
      s2 += s1;
    }
    s1 %= 255;
    s2 %= 255;
  }
  *sum1 = s1;
  *sum2 = s2;
}

}  // namespace

void Fletcher16::Mix(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(WIREFRAME_HAVE_AVX2_KERNELS)
  if (n >= 32 && ActiveKernelDispatch() == KernelDispatch::kAvx2) {
    internal::Fletcher16MixAvx2(bytes, n, &sum1, &sum2);
    return;
  }
#endif
  MixScalar(bytes, n, &sum1, &sum2);
}

}  // namespace wireframe
