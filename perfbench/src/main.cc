/**
 * @file
 * perfbench: the end-to-end benchmark of the PhotoFourier simulator.
 *
 *   perfbench --workload serve-fused|cluster-open|optical-offline
 *             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *             [--in-flight N] [--open-rate R]
 *
 * Untraced (--trace 0) runs print the end-to-end metrics; the traced
 * run (--trace 1) prints the per-layer metrics and the
 * measured-versus-modeled conv table, and writes its spans under
 * --trace-dir. --in-flight and --open-rate override the serving
 * workloads' offered load (for the sweep the defaults come from).
 * Every run checks its outputs (the conv oracle and the served/batched
 * bit-identity properties). The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "common/build_info.hh"
#include "oracle.hh"
#include "probes.hh"
#include "signal/fft_plan.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir = ".";
    Traffic traffic = defaultTraffic();
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve-fused|cluster-open|optical-offline --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--in-flight N] [--open-rate R]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            args.trace = value == "1";
        else if (arg == "--trace-dir")
            args.trace_dir = value;
        else if (arg == "--in-flight")
            args.traffic.in_flight = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--open-rate")
            args.traffic.open_rate = std::atof(value.c_str());
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (args.workload != "serve-fused" && args.workload != "cluster-open" &&
        args.workload != "optical-offline")
        usage("unknown workload");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    if (args.traffic.in_flight == 0 || !(args.traffic.open_rate > 0.0))
        usage("--in-flight and --open-rate must be positive");
    return args;
}

/** End-to-end metrics of an untraced run. */
void
endToEnd(const Outcome &o, Metrics &m)
{
    // Throughput and latency are medians over the window's slices, so
    // a few slow seconds on a shared host do not set a run's figures.
    std::vector<double> per_s, p50, tail;
    for (const SliceStats &s : sliceStats(o)) {
        per_s.push_back(s.images_per_s);
        p50.push_back(s.p50_ms);
        tail.push_back(s.tail_ms);
    }
    m.set("setup_s", median(o.setup_s), "s");
    m.set("images_per_s", median(per_s), "images/s");
    m.set("latency_p50_ms", median(p50), "ms");
    m.set("latency_tail_ms", median(tail), "ms");
    m.set("cpu_ms_per_image", 1e3 * o.cpu_s / double(o.images), "ms");
    m.set("peak_rss_mb", o.peak_rss_mb, "MB");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 ||
        std::strcmp(buildType(), "release") != 0) {
        std::fprintf(stderr,
                     "perfbench: built as '%s' (library: %s), not "
                     "Release; refusing to record\n",
                     PERFBENCH_BUILD_TYPE, buildType());
        return 2;
    }
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u simd=%s git=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, numCpus(), simdLevel(), gitSha());

    // One transform-pool thread (see kServingWorkers).
    signal::setDefaultFftThreads(1);

    Checks checks;
    SpanRecorder spans(args.trace);
    Metrics metrics;

    const double seconds =
        args.trace ? std::min(args.seconds, kTracedSeconds) : args.seconds;
    const Outcome outcome = runWorkload(args.workload, args.seed, seconds,
                                        args.traffic, args.trace, spans,
                                        checks);
    reportOutcome(args.workload, outcome, checks);
    if (args.trace)
        perLayer(args.workload, args.seed, args.traffic, outcome, spans,
                 checks, metrics);
    else
        endToEnd(outcome, metrics);
    for (const std::string &name : metrics.nonFinite())
        checks.fail("metric " + name + " is not a finite number");

    const OracleReport oracle =
        checkEnginesAgainstOracle(makeImages(args.seed, 1)[0], checks);
    std::printf("oracle: %zu engine/layer comparisons, max relative error "
                "%.3g (tolerance %.0e)\n",
                oracle.comparisons, oracle.max_rel_error, kOracleTolerance);

    if (args.trace) {
        const std::string path = args.trace_dir + "/spans-" +
                                 args.workload + "-" +
                                 std::to_string(args.seed) + ".jsonl";
        if (spans.write(path))
            std::printf("spans: %zu written to %s\n", spans.size(),
                        path.c_str());
        else
            checks.fail("cannot write spans to " + path);
    }
    if (outcome.attempted == 0)
        checks.fail("no operation attempted");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.ok() ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}
