/**
 * @file
 * The benchmark's workloads and shared run parameters.
 *
 * Every untraced run reports the same three end-to-end metrics, each
 * read per workload as README.md lists:
 *
 *   setup_s  set-up time, median of several set-ups in the run
 *   op_us    central cost of the workload's main operation
 *   aux_us   central cost of its auxiliary operation
 *
 * A traced run reports the per-layer metrics of the layers the workload
 * exercises instead.
 */

#pragma once

#include <cstdint>
#include <string>

#include "stats.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its span JSON (empty: nowhere). */
    std::string traceOut;
};

Result runFullbatchTrain(const RunConfig &config);
/** serve-zipf (@p churn false) and ingest-churn (@p churn true). */
Result runServing(const RunConfig &config, bool churn);

/** Host peaks the per-layer rates are read against. */
struct HostPeaks
{
    double streamGbps = 0.0;
    double gemmGflops = 0.0;
};

/** Measure both peaks (STREAM-triad style and the packed GEMM). */
HostPeaks measureHostPeaks();

/** Write @p json to @p path; warns on failure. */
void writeTextFile(const std::string &path, const std::string &json);

} // namespace perfbench
