// The only translation unit compiled with -mavx2 (see
// src/util/CMakeLists.txt): keeping every AVX2 instruction behind this
// file boundary means the rest of the binary still runs on pre-AVX2
// hardware — the dispatchers in span_kernels.cc and checksum.cc only call
// in here after a cpuid check.

#include "util/span_kernels_internal.h"

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace wireframe::internal {

namespace {

/// idx[m] lists the positions of m's set bits, ascending, zero-padded —
/// feeding _mm256_permutevar8x32_epi32 to left-compact the matched lanes
/// of a block. 8KB, read-only, shared by all threads.
struct ShuffleTable {
  alignas(32) uint32_t idx[256][8];
};

constexpr ShuffleTable MakeShuffleTable() {
  ShuffleTable table{};
  for (int mask = 0; mask < 256; ++mask) {
    int out = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1) table.idx[mask][out++] = bit;
    }
    for (; out < 8; ++out) table.idx[mask][out] = 0;
  }
  return table;
}

constexpr ShuffleTable kCompact = MakeShuffleTable();

/// Lane rotation by one (cross-lane), for comparing one block against all
/// alignments of the other.
const __m256i kRotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);

}  // namespace

size_t IntersectSortedAvx2(const NodeId* a, size_t na, const NodeId* b,
                           size_t nb, NodeId* out) {
  size_t i = 0;
  size_t j = 0;
  size_t k = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    while (true) {
      // Match va's 8 lanes against all 8 rotations of b's block. Inputs
      // are duplicate-free, so each a-lane matches at most once and the
      // OR-accumulated equality mask marks exactly the common values.
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      __m256i rotated = vb;
      __m256i eq = _mm256_cmpeq_epi32(va, rotated);
      for (int r = 1; r < 8; ++r) {
        rotated = _mm256_permutevar8x32_epi32(rotated, kRotate1);
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rotated));
      }
      const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
      // Left-compact the matched lanes and store all 8; only popcount of
      // them are real, the rest land in the caller's kIntersectPad slack.
      const __m256i compacted = _mm256_permutevar8x32_epi32(
          va, _mm256_load_si256(
                  reinterpret_cast<const __m256i*>(kCompact.idx[mask])));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), compacted);
      k += static_cast<size_t>(__builtin_popcount(
          static_cast<unsigned>(mask)));
      // Advance whichever block's max is smaller (both on a tie): every
      // element it could still match has been compared.
      const NodeId amax = a[i + 7];
      const NodeId bmax = b[j + 7];
      const bool step_a = amax <= bmax;
      const bool step_b = bmax <= amax;
      if (step_a) i += 8;
      if (step_b) j += 8;
      if (i + 8 > na || j + 8 > nb) break;
      if (step_a) {
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
    }
  }
  // Scalar merge over the tails (fewer than 8 left on some side).
  while (i < na && j < nb) {
    const NodeId av = a[i];
    const NodeId bv = b[j];
    if (av == bv) {
      out[k++] = av;
      ++i;
      ++j;
    } else if (av < bv) {
      ++i;
    } else {
      ++j;
    }
  }
  return k;
}

namespace {

/// Sum of the eight u32 lanes.
uint64_t HorizontalSum32(__m256i v) {
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  uint64_t sum = 0;
  for (uint32_t lane : lanes) sum += lane;
  return sum;
}

/// Per-byte weights 32..1 of the weighted sum below.
struct FletcherWeights {
  alignas(32) int8_t w[32];
};

constexpr FletcherWeights MakeFletcherWeights() {
  FletcherWeights weights{};
  for (int j = 0; j < 32; ++j) weights.w[j] = static_cast<int8_t>(32 - j);
  return weights;
}

constexpr FletcherWeights kFletcherWeights = MakeFletcherWeights();

/// 32-byte chunks per reduction block, sized so no u32 lane can
/// overflow: per block a byte-sum lane reaches at most 8 * 255 * 1024
/// (2.1e6), a prefix lane at most 2040 * 1024^2 / 2 (1.1e9), and a
/// weighted lane at most 31110 * 1024 (3.2e7).
constexpr size_t kFletcherBlockChunks = 1024;

}  // namespace

void Fletcher16MixAvx2(const unsigned char* data, size_t n, uint32_t* sum1,
                       uint32_t* sum2) {
  // Over one block of C chunks of 32 bytes b[32c + j], starting from
  // sums (s1, s2), the byte-serial recurrence yields
  //   s1' = s1 + sum b
  //   s2' = s2 + 32C * s1 + 32 * sum_c (C - 1 - c) S_c
  //            + sum_{c,j} (32 - j) b[32c + j]
  // where S_c is chunk c's byte sum. The middle term is the running
  // prefix of chunk sums accumulated once per chunk; the last one is a
  // multiply-add against the weights 32..1. All three reduce mod 255
  // exactly, so the result matches the scalar loop bit for bit.
  const __m256i weights =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kFletcherWeights.w));
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i zero = _mm256_setzero_si256();
  uint64_t s1 = *sum1;
  uint64_t s2 = *sum2;
  while (n >= 32) {
    const size_t chunks = std::min(n / 32, kFletcherBlockChunks);
    __m256i bytes = zero;     // byte sums (sad: one u64 lane per 8 bytes)
    __m256i prefix = zero;    // sum over chunks of `bytes` before each
    __m256i weighted = zero;  // sum of (32 - j) * b, per u32 lane
    for (size_t c = 0; c < chunks; ++c, data += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
      prefix = _mm256_add_epi32(prefix, bytes);
      bytes = _mm256_add_epi32(bytes, _mm256_sad_epu8(x, zero));
      weighted = _mm256_add_epi32(
          weighted,
          _mm256_madd_epi16(_mm256_maddubs_epi16(x, weights), ones));
    }
    const uint64_t block_bytes = chunks * 32;
    s2 += block_bytes * s1 + 32 * HorizontalSum32(prefix);
    s2 = (s2 + HorizontalSum32(weighted)) % 255;
    s1 = (s1 + HorizontalSum32(bytes)) % 255;
    n -= block_bytes;
  }
  for (size_t i = 0; i < n; ++i) {  // < 32 tail bytes: no overflow
    s1 += data[i];
    s2 += s1;
  }
  *sum1 = static_cast<uint32_t>(s1 % 255);
  *sum2 = static_cast<uint32_t>(s2 % 255);
}

}  // namespace wireframe::internal
