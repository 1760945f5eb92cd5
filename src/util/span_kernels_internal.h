#ifndef WIREFRAME_UTIL_SPAN_KERNELS_INTERNAL_H_
#define WIREFRAME_UTIL_SPAN_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "util/common.h"

namespace wireframe::internal {

/// AVX2 merge body of IntersectSorted, defined in span_kernels_avx2.cc —
/// the only TU compiled with -mavx2. Declared unconditionally so the
/// dispatcher TU stays free of target-specific code; only callable when
/// WIREFRAME_HAVE_AVX2_KERNELS is defined and the CPU reports AVX2.
/// Contract as IntersectSorted: sorted duplicate-free inputs, `out` has
/// min(na, nb) + kIntersectPad capacity.
size_t IntersectSortedAvx2(const NodeId* a, size_t na, const NodeId* b,
                           size_t nb, NodeId* out);

/// AVX2 body of Fletcher16::Mix (util/checksum.h), same TU and calling
/// rules as above. Folds `n` bytes into the reduced sums *sum1/*sum2 and
/// leaves them reduced, bit-identical to the byte-serial loop.
void Fletcher16MixAvx2(const unsigned char* data, size_t n, uint32_t* sum1,
                       uint32_t* sum2);

}  // namespace wireframe::internal

#endif  // WIREFRAME_UTIL_SPAN_KERNELS_INTERNAL_H_
