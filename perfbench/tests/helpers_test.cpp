// Unit tests of the benchmark's own measurement helpers (src/helpers.hpp).
#include "helpers.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0).tail_denominator, 0u);
  EXPECT_EQ(highest_supported_percentile(19).tail_denominator, 0u);
  EXPECT_EQ(highest_supported_percentile(20).label(), "p50");
  EXPECT_EQ(highest_supported_percentile(99).label(), "p50");
  EXPECT_EQ(highest_supported_percentile(100).label(), "p90");
  // Exactly ten samples beyond p99 at n = 1000; one fewer is not enough.
  EXPECT_EQ(highest_supported_percentile(999).label(), "p90");
  EXPECT_EQ(highest_supported_percentile(1000).label(), "p99");
  EXPECT_EQ(highest_supported_percentile(9999).label(), "p99");
  EXPECT_EQ(highest_supported_percentile(10000).label(), "p99.9");
  EXPECT_EQ(highest_supported_percentile(100000).label(), "p99.99");
  EXPECT_EQ(highest_supported_percentile(10000000).label(), "p99.99");
}

TEST(Percentile, NearestRank) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  EXPECT_DOUBLE_EQ(nearest_rank(v, 2), 500.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 100), 990.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1000), 999.0);
  // Ten samples lie strictly beyond the reported p99.
  const std::size_t beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(),
                    [&](double x) { return x > nearest_rank(v, 100); }));
  EXPECT_EQ(beyond, 10u);
  const std::vector<double> three{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(nearest_rank(three, 2), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(SelfTime, NoChildren) { EXPECT_EQ(self_time(10, 50, {}), 40); }

TEST(SelfTime, NestedChildren) {
  // Parent [0,100) with children [10,20) and [30,60); a grandchild [35,40)
  // lies inside the second child and must not be subtracted twice.
  EXPECT_EQ(self_time(0, 100, {{10, 20}, {30, 60}, {35, 40}}), 60);
}

TEST(SelfTime, OverlappingChildren) {
  // Children from different threads overlap each other: [10,30) and
  // [20,50) cover [10,50) once.
  EXPECT_EQ(self_time(0, 100, {{20, 50}, {10, 30}}), 60);
  // Touching intervals merge; a child sticking out is clipped.
  EXPECT_EQ(self_time(0, 100, {{90, 150}, {-20, 10}, {10, 15}}), 75);
  // A child covering the whole parent leaves no self time.
  EXPECT_EQ(self_time(0, 100, {{-5, 105}}), 0);
  // Children entirely outside do not count.
  EXPECT_EQ(self_time(0, 100, {{100, 120}, {-30, 0}}), 100);
}

TEST(SelfTime, SpanLogTotals) {
  SpanLog log;
  log.begin(0, 7, 0, 0);     // parent, batch 7
  log.begin(1, 7, 2, 10);    // child
  log.end(5, 30);            // 3 allocations in the child
  log.begin(1, 7, 6, 40);    // second child
  log.end(7, 45);            // 1 allocation
  log.end(9, 100);           // 9 allocations in the parent in total
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 0);
  EXPECT_EQ(log.spans()[1].batch, 7u);
  const auto t = totals_by_name(log.spans(), 2);
  EXPECT_EQ(t[0].total_ns, 100);
  EXPECT_EQ(t[0].self_ns, 75);
  EXPECT_EQ(t[0].self_allocs, 5u);
  EXPECT_EQ(t[1].total_ns, 25);
  EXPECT_EQ(t[1].count, 2u);
}

TEST(DueTime, OpenLoopSchedule) {
  // First packet due at wall 5000 for simulated ts 1000: a packet stamped
  // 1250 is due 250 ns later.
  EXPECT_EQ(due_open_loop(5000, 1000, 1250), 5250);
  EXPECT_EQ(due_open_loop(5000, 1000, 1000), 5000);
}

TEST(DueTime, ClosedLoopBatchLookup) {
  const std::vector<std::int64_t> stamps{10, 20, 30, 40, 50};
  EXPECT_EQ(index_of_stamp(stamps, 30), 2u);
  EXPECT_EQ(index_of_stamp(stamps, 35), stamps.size());
  EXPECT_EQ(index_of_stamp(stamps, 60), stamps.size());
  const std::vector<std::size_t> first{0, 2, 3};
  EXPECT_EQ(batch_of(first, 0), 0u);
  EXPECT_EQ(batch_of(first, 1), 0u);
  EXPECT_EQ(batch_of(first, 2), 1u);
  EXPECT_EQ(batch_of(first, 4), 2u);
}

TEST(DueTime, PartsSumToLatency) {
  // Due 100, generator offered it at 130, inject returned at 170, the
  // callback started at 260 and the scan ended at 300.
  const LatencyParts p = split_latency(100, 130, 170, 260, 300);
  EXPECT_EQ(p.lag, 30);
  EXPECT_EQ(p.inject, 40);
  EXPECT_EQ(p.handoff, 90);
  EXPECT_EQ(p.work, 40);
  EXPECT_EQ(p.total(), 200);
  // Inline dispatch: the callback runs inside inject_batch, so the
  // hand-off is negative and the parts still sum to the latency.
  const LatencyParts q = split_latency(0, 0, 100, 40, 60);
  EXPECT_EQ(q.handoff, -60);
  EXPECT_EQ(q.total(), 60);
}

}  // namespace
}  // namespace perfbench
