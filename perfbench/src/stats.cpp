#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
nearestRank(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

double
median(std::vector<double> values)
{
    return nearestRank(std::move(values), 0.5);
}

double
latenessUs(std::uint64_t dueNs, std::uint64_t sentNs)
{
    return sentNs > dueNs ? static_cast<double>(sentNs - dueNs) / 1e3
                            : 0.0;
}

double
latencyFromDueUs(double measuredUs, std::uint64_t dueNs,
                 std::uint64_t sentNs)
{
    return measuredUs + latenessUs(dueNs, sentNs);
}

SplitCheck
checkEpochSplit(const std::vector<double> &phaseSeconds,
                double epochSeconds, double tolerance)
{
    SplitCheck check;
    for (const double s : phaseSeconds)
        check.sum += s;
    check.relativeError =
        epochSeconds > 0.0 ? std::abs(check.sum - epochSeconds) / epochSeconds
                           : 0.0;
    check.ok = epochSeconds > 0.0 && check.relativeError <= tolerance;
    return check;
}

std::int64_t
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, nowNs(), 0, current_});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(std::int64_t index)
{
    if (index < 0)
        return;
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.endNs = nowNs();
    current_ = span.parent;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (span.endNs != 0 && name == span.name)
            out.push_back(static_cast<double>(span.endNs - span.startNs) /
                          1e9);
    }
    return out;
}

void
Tracer::appendJson(std::string &out, const char *thread) const
{
    char line[256];
    for (const Span &span : spans_) {
        if (out.size() > 1)
            out += ",\n";
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"thread\":\"%s\","
                      "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%lld}",
                      span.name, thread,
                      static_cast<unsigned long long>(span.startNs),
                      static_cast<unsigned long long>(span.endNs),
                      static_cast<long long>(span.parent));
        out += line;
    }
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // Non-finite values are not JSON; report them as null so the
        // run is rejected instead of misparsed.
        if (std::isfinite(m.value))
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
