/**
 * @file
 * perfbench — the repository benchmark program.
 *
 *   perfbench --workload <fullbatch-train|serve-zipf|ingest-churn>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints human-readable lines, then one JSON object as the last line:
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs report
 * the end-to-end metrics, traced runs the per-layer metrics of the
 * layers the workload exercises (run.py reports the others as 0). Exits
 * 1 when an output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fullbatch-train|serve-zipf|ingest-churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 why);
    std::exit(2);
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            config.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--trace-out")
            config.traceOut = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (config.seconds <= 0.0)
        usage("--seconds must be positive");
    return config;
}

} // namespace

void
writeTextFile(const std::string &path, const std::string &json)
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fputs(json.c_str(), file);
    std::fclose(file);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const RunConfig config = parseArgs(argc, argv);
    Result result;
    if (config.workload == "fullbatch-train")
        result = runFullbatchTrain(config);
    else if (config.workload == "serve-zipf")
        result = runServing(config, false);
    else if (config.workload == "ingest-churn")
        result = runServing(config, true);
    else
        usage(("unknown workload " + config.workload).c_str());

    for (const Metric &m : result.metrics)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("ops_attempted %llu\nops_failed %llu\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    std::printf("%s\n", result.json().c_str());
    return result.correct ? 0 : 1;
}
