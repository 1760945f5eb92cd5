#include "util/checksum.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/span_kernels.h"

namespace wireframe {
namespace {

/// Restores the runtime dispatch override on scope exit, so a failing
/// assertion cannot leak a forced-scalar state into later tests.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force) { ForceScalarKernels(force); }
  ~ScopedForceScalar() { ForceScalarKernels(false); }
};

/// Textbook Fletcher-16: both sums reduced after every byte. Shares no
/// code with either production body.
uint16_t ReferenceFletcher16(const unsigned char* data, size_t n) {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;
  for (size_t i = 0; i < n; ++i) {
    sum1 = (sum1 + data[i]) % 255;
    sum2 = (sum2 + sum1) % 255;
  }
  return static_cast<uint16_t>((sum2 << 8) | sum1);
}

uint16_t Checksum(const unsigned char* data, size_t n) {
  Fletcher16 f;
  f.Mix(data, n);
  return f.Take();
}

constexpr size_t kMaxLength = 64 << 10;

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

/// Every length up to 2 KiB, then a stride through 64 KiB that lands on
/// every residue mod 32 and on both sides of each 32 KiB block boundary.
std::vector<size_t> Lengths() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 2048; ++n) lengths.push_back(n);
  for (size_t n = 2049; n <= kMaxLength; n += 389) lengths.push_back(n);
  for (size_t edge : {size_t{32} << 10, kMaxLength}) {
    for (size_t d = 0; d <= 33; ++d) {
      lengths.push_back(edge - d);
      if (edge + d <= kMaxLength) lengths.push_back(edge + d);
    }
  }
  return lengths;
}

class ChecksumTest : public ::testing::TestWithParam<bool> {
 protected:
  ScopedForceScalar forced_{GetParam()};
};

TEST_P(ChecksumTest, MatchesReferenceOnEveryLength) {
  const std::vector<unsigned char> bytes = RandomBytes(kMaxLength, 7);
  for (size_t n : Lengths()) {
    ASSERT_EQ(Checksum(bytes.data(), n), ReferenceFletcher16(bytes.data(), n))
        << "length " << n;
  }
}

TEST_P(ChecksumTest, AllOnesBytesHitTheLargestAccumulators) {
  const std::vector<unsigned char> ones(kMaxLength, 0xFF);
  for (size_t n : Lengths()) {
    ASSERT_EQ(Checksum(ones.data(), n), ReferenceFletcher16(ones.data(), n))
        << "length " << n;
  }
}

TEST_P(ChecksumTest, UnalignedStarts) {
  const std::vector<unsigned char> bytes = RandomBytes(kMaxLength + 64, 11);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t n : {size_t{31}, size_t{32}, size_t{33}, size_t{1000},
                     size_t{40000}, kMaxLength}) {
      ASSERT_EQ(Checksum(bytes.data() + offset, n),
                ReferenceFletcher16(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST_P(ChecksumTest, ResumingAtRandomSplitPointsChangesNothing) {
  const std::vector<unsigned char> bytes = RandomBytes(kMaxLength, 13);
  const std::vector<unsigned char> ones(kMaxLength, 0xFF);
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<unsigned char>& data = trial % 3 == 0 ? ones : bytes;
    const size_t n = static_cast<size_t>(rng.Uniform(kMaxLength + 1));
    // Up to four pieces, split at random points (empty pieces included).
    Fletcher16 f;
    size_t pos = 0;
    for (int piece = 0; piece < 3 && pos < n; ++piece) {
      const size_t len = static_cast<size_t>(rng.Uniform(n - pos + 1));
      f.Mix(data.data() + pos, len);
      pos += len;
    }
    f.Mix(data.data() + pos, n - pos);
    ASSERT_EQ(f.Take(), ReferenceFletcher16(data.data(), n))
        << "trial " << trial << " length " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Dispatch, ChecksumTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "scalar" : "auto";
                         });

}  // namespace
}  // namespace wireframe
