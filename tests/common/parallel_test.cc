// Tests for the thread pool layer: coverage (every index visited exactly
// once), and — the load-bearing property for the kernel layer —
// determinism: identical results whether the work runs on 1, 2, or 8
// threads.

#include "common/parallel.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(1000);
    for (auto& v : visits) v.store(0);
    ParallelOptions options;
    options.num_threads = threads;
    ParallelFor(
        0, visits.size(),
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
        },
        options);
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelForEachTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> visits(237);
    for (auto& v : visits) v.store(0);
    ParallelOptions options;
    options.num_threads = threads;
    ParallelForEach(
        5, 5 + visits.size(), [&](size_t i) { visits[i - 5].fetch_add(1); },
        options);
    for (size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelForEachTest, EmptyRangeIsANoOp) {
  int calls = 0;
  ParallelForEach(3, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(5, 5, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  size_t sum = 0;
  ParallelFor(3, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 3u);
}

TEST(ParallelForTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ParallelOptions options;
  options.num_threads = 4;
  std::vector<std::atomic<int>> visits(64);
  for (auto& v : visits) v.store(0);
  ParallelFor(
      0, 8,
      [&](size_t outer_begin, size_t outer_end) {
        for (size_t outer = outer_begin; outer < outer_end; ++outer) {
          // Inner call from inside a pool task must run inline, not
          // re-enter the (single-job) pool.
          ParallelFor(
              0, 8,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  visits[outer * 8 + i].fetch_add(1);
                }
              },
              options);
        }
      },
      options);
  for (size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MoreThreadsThanItems) {
  ParallelOptions options;
  options.num_threads = 8;
  std::vector<int> visits(3, 0);
  ParallelFor(
      0, visits.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++visits[i];
      },
      options);
  EXPECT_EQ(visits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelKernelTest, BlockedMatMulIsBitwiseIdenticalAcrossThreadCounts) {
  stats::Rng rng(12);
  // Big enough for both the blocked path and the parallel dispatch.
  const linalg::Matrix a = rng.GaussianMatrix(260, 260);
  const linalg::Matrix b = rng.GaussianMatrix(260, 260);
  std::vector<linalg::Matrix> products;
  for (int threads : {1, 2, 8}) {
    ParallelOptions options;
    options.num_threads = threads;
    products.push_back(linalg::kernels::MatMul(a, b, options));
  }
  EXPECT_TRUE(products[0] == products[1]);
  EXPECT_TRUE(products[0] == products[2]);
}

TEST(ParallelKernelTest, GramIsBitwiseIdenticalAcrossThreadCounts) {
  stats::Rng rng(13);
  const linalg::Matrix data = rng.GaussianMatrix(900, 140);
  std::vector<linalg::Matrix> grams;
  for (int threads : {1, 2, 8}) {
    ParallelOptions options;
    options.num_threads = threads;
    grams.push_back(linalg::kernels::GramMatrix(data, 900.0, options));
  }
  EXPECT_TRUE(grams[0] == grams[1]);
  EXPECT_TRUE(grams[0] == grams[2]);
}

TEST(EffectiveThreadCountTest, RespectsForcedCountAndItemCap) {
  ParallelOptions options;
  options.num_threads = 4;
  EXPECT_EQ(EffectiveThreadCount(options, 100), 4u);
  EXPECT_EQ(EffectiveThreadCount(options, 2), 2u);   // Capped by items.
  EXPECT_EQ(EffectiveThreadCount(options, 1), 1u);
  options.num_threads = 1;
  EXPECT_EQ(EffectiveThreadCount(options, 1000), 1u);
}

TEST(EffectiveThreadCountTest, SmallRangesStaySerial) {
  ParallelOptions options;
  options.num_threads = 8;
  options.min_parallel_items = 500;
  EXPECT_EQ(EffectiveThreadCount(options, 499), 1u);
  EXPECT_EQ(EffectiveThreadCount(options, 500), 8u);
}

}  // namespace
}  // namespace randrecon
