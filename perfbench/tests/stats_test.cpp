/**
 * @file
 * Self-test of the benchmark's statistics code: the nearest-rank
 * percentile, due-time lateness accounting and the epoch-split check.
 * Build and run with `python3 perfbench/run.py --self-test`.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
expectNear(double actual, double expected, const char *what)
{
    if (std::abs(actual - expected) > 1e-9) {
        std::printf("FAIL %s: got %.12g, want %.12g\n", what, actual,
                    expected);
        ++failures;
    }
}

void
expectTrue(bool value, const char *what)
{
    if (!value) {
        std::printf("FAIL %s\n", what);
        ++failures;
    }
}

void
testNearestRank()
{
    using perfbench::nearestRank;
    // rank = ceil(q * n): for n = 10, p50 is the 5th, p90 the 9th and
    // p99 the 10th smallest value.
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expectNear(nearestRank(ten, 0.5), 5, "p50 of 1..10");
    expectNear(nearestRank(ten, 0.9), 9, "p90 of 1..10");
    expectNear(nearestRank(ten, 0.99), 10, "p99 of 1..10");
    expectNear(nearestRank(ten, 0.0), 1, "rank clamps up to 1");
    expectNear(nearestRank(ten, 1.0), 10, "p100 is the maximum");
    expectNear(nearestRank({42}, 0.99), 42, "single sample");
    expectNear(nearestRank({}, 0.5), 0, "empty sample");
    // 1000 samples: p99 is the 990th value, leaving ten beyond it.
    std::vector<double> thousand;
    for (int i = 1000; i >= 1; --i)
        thousand.push_back(i);
    expectNear(nearestRank(thousand, 0.99), 990, "p99 of 1..1000");
    expectNear(perfbench::median({3, 1, 2, 4}), 2,
               "even-size median is the lower middle");
}

void
testLateness()
{
    using perfbench::latencyFromDueUs;
    using perfbench::latenessUs;
    // Sent 250 us after its due time: the wait counts.
    expectNear(latenessUs(1'000'000, 1'250'000), 250, "late generator");
    expectNear(latenessUs(1'000'000, 1'000'000), 0, "on time");
    expectNear(latenessUs(1'000'000, 900'000), 0, "early is not late");
    expectNear(latencyFromDueUs(40, 1'000'000, 1'250'000), 290,
               "latency adds lateness to the measured latency");
    expectNear(latencyFromDueUs(40, 1'000'000, 1'000'000), 40,
               "on-time latency is the measured latency");
    // A stall delays every later operation of the schedule: each one's
    // latency from due time grows with its wait, which a latency taken
    // from the send time would hide.
    const std::uint64_t stallEnd = 5'000'000;
    double worst = 0;
    for (std::uint64_t due = 1'000'000; due < stallEnd; due += 1'000'000)
        worst = std::max(worst, latencyFromDueUs(10, due, stallEnd));
    expectNear(worst, 4010, "the first op behind a stall waits longest");
}

void
testEpochSplit()
{
    using perfbench::checkEpochSplit;
    const auto exact = checkEpochSplit({0.2, 0.01, 0.15, 0.04}, 0.4);
    expectNear(exact.sum, 0.4, "phase sum");
    expectTrue(exact.ok, "phases that cover the epoch pass");
    expectTrue(checkEpochSplit({0.2, 0.01, 0.15, 0.04}, 0.44).ok,
               "9% short passes");
    expectTrue(!checkEpochSplit({0.2, 0.01, 0.15, 0.04}, 0.46).ok,
               "13% short fails");
    expectTrue(!checkEpochSplit({0.3, 0.01, 0.15, 0.04}, 0.4).ok,
               "25% over fails");
    expectTrue(!checkEpochSplit({0.1}, 0.0).ok, "empty epoch fails");
}

void
testTracer()
{
    perfbench::Tracer tracer(true);
    {
        perfbench::ScopedSpan outer(tracer, "outer");
        perfbench::ScopedSpan inner(tracer, "inner");
    }
    expectTrue(tracer.spans().size() == 2, "two spans recorded");
    expectTrue(tracer.spans()[1].parent == 0, "inner span's parent");
    expectTrue(tracer.durations("inner")[0] <= tracer.durations("outer")[0],
               "a child span lies within its parent");
    perfbench::Tracer off(false);
    {
        perfbench::ScopedSpan span(off, "ignored");
    }
    expectTrue(off.spans().empty(), "disabled tracer records nothing");
}

} // namespace

int
main()
{
    testNearestRank();
    testLateness();
    testEpochSplit();
    testTracer();
    if (failures != 0) {
        std::printf("%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench stats self-test: all checks passed\n");
    return 0;
}
