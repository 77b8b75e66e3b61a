/**
 * @file
 * The benchmark's own statistics and tracing: nearest-rank percentiles,
 * open-loop due-time accounting, the epoch-split consistency check, an
 * in-memory span recorder, and the result record every workload fills.
 *
 * Nothing here depends on the Graphite library, so the self-test
 * (tests/stats_test.cpp) links only this translation unit.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank q-quantile of @p values: the ceil(q * n)-th smallest
 * value, rank clamped to [1, n]. Takes a copy (selection reorders it).
 * Returns 0 for an empty sample.
 */
double nearestRank(std::vector<double> values, double q);

/** nearestRank(values, 0.5). */
double median(std::vector<double> values);

/** Nanoseconds on the steady clock (the serving layer's clock too). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * How late an open-loop generator sent an operation: @p sentNs -
 * @p dueNs in microseconds, 0 when it was on time or early.
 */
double latenessUs(std::uint64_t dueNs, std::uint64_t sentNs);

/**
 * Latency of an operation timed from its due time. @p measuredUs is
 * what the system reported from the moment the operation was sent;
 * the generator's lateness is added so a stalled producer cannot hide
 * its own delay (coordinated omission).
 */
double latencyFromDueUs(double measuredUs, std::uint64_t dueNs,
                        std::uint64_t sentNs);

/** Result of checkEpochSplit. */
struct SplitCheck
{
    double sum = 0.0;
    /** |sum - epoch| / epoch (0 when epoch is 0). */
    double relativeError = 0.0;
    bool ok = false;
};

/**
 * The four traced phases of an epoch (forward, loss, backward, sgd)
 * must add up to the traced epoch time within @p tolerance (a share
 * of @p epochSeconds).
 */
SplitCheck checkEpochSplit(const std::vector<double> &phaseSeconds,
                           double epochSeconds, double tolerance = 0.10);

/**
 * In-memory span recorder: name, start, end and parent of every span,
 * written out as JSON when the run ends. Disabled recorders cost one
 * branch per span. Not thread-safe: each thread that records spans
 * owns its own Tracer.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t endNs;
        /** Index of the enclosing span, or -1. */
        std::int64_t parent;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (or -1 when disabled). */
    std::int64_t open(const char *name);
    /** Close the span @p index returned by open(). */
    void close(std::int64_t index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in seconds of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Append the spans as JSON objects to @p out. */
    void appendJson(std::string &out, const char *thread) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::int64_t current_ = -1;
};

/** RAII span on a Tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::int64_t index_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count @p n operations, @p bad of which were dropped or refused. */
    void
    ops(std::uint64_t n, std::uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    /**
     * Count @p n correctness checks, @p bad of which mismatched; any
     * mismatch makes the run incorrect.
     */
    void
    check(std::uint64_t n, std::uint64_t bad)
    {
        ops(n, bad);
        if (bad != 0)
            correct = false;
    }

    /** The one-line JSON object the benchmark prints last. */
    std::string json() const;
};

} // namespace perfbench
