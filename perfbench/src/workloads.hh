/**
 * @file
 * The three workloads. Each builds its system (timed as set-up,
 * several times), then drives it for a fixed time and checks every
 * output against logits computed on a separately built copy of the
 * model with the same engine configuration.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "obs/metrics.hh"

namespace perfbench {

/** Set-ups per untraced run; set-up time is their median. The optical
 *  set-up costs about twenty times the serving ones, so it runs fewer.
 *  A traced run reports no set-up time and sets up once. */
constexpr size_t kSetupRepeats = 9;
constexpr size_t kOfflineSetupRepeats = 3;

/** Cap on a traced run's own timed phase. Its figures are per layer,
 *  not end to end, and on one thread the optical traced run took 142 s
 *  with the full 30 s phase and three set-ups, too close to the
 *  180 s a run may take. */
constexpr double kTracedSeconds = 10.0;

/** Images per workload pool (each model sees every pool image). The
 *  engines' cost depends on the image (zero-skipping, the Auto
 *  crossover), so the serving pools are large enough that a seed's
 *  mix of images costs about the same as another seed's. */
constexpr size_t kServePool = 64;
/** Pool images each model runs in a set-up's warm-up. */
constexpr size_t kWarmImages = 4;
constexpr size_t kOfflinePool = 4;

/** serve-fused: micro-batch cap. */
constexpr size_t kFusedMaxBatch = 8;

/**
 * serve-fused: serving workers. Every request's compute runs on one
 * thread: main() sets the transform pool to one thread for every
 * workload (cluster-open's shards keep a worker per vCPU, each running
 * one request at a time). On a shared 4-vCPU host the
 * default budget (a worker and a pool thread per vCPU) served
 * serve-fused no faster than one thread (about 100 images/s either
 * way) while its throughput spread 0.44-0.59 of the median between
 * runs; one thread spreads a few percent. Outputs are bit-identical
 * for any thread count.
 */
constexpr size_t kServingWorkers = 1;

/**
 * The offered load of the two serving workloads. The defaults come
 * from the capacity and batch-fill sweep recorded in the README;
 * --open-rate and --in-flight override them to repeat that sweep.
 */
struct Traffic
{
    /** serve-fused: closed-loop requests in flight. */
    size_t in_flight = 0;
    /** cluster-open: Poisson arrival rate, requests/s. */
    double open_rate = 0.0;

    /** p99 generator lateness above which an open-loop run is invalid:
     *  one mean inter-arrival gap (later than that, the generator no
     *  longer offers the scheduled rate). */
    double lateLimitMs() const { return 1000.0 / open_rate; }
};
Traffic defaultTraffic();

/** optical-offline: images per logitsBatch call, and its tail
 *  percentile (see runOpticalOffline). */
constexpr size_t kOfflineBatch = 2;
constexpr int kOfflineTailPct = 75;

/** What one timed phase measured. */
struct Outcome
{
    std::vector<double> setup_s;
    double window_s = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t images = 0;             ///< completed inside the window
    /** Open loop: every scheduled request counts, and the window runs
     *  to the last completion. Closed loop: only requests sent and
     *  completed inside the fixed window count. */
    std::vector<double> latency_ms;  ///< per operation inside the window
    std::vector<double> done_s;      ///< its completion, s into the window
    /** Equal slices the window is summarized over (see sliceStats). */
    size_t slices = 1;
    bool open_loop = false;
    /** Tail percentile, or 0 for the highest with ten samples beyond. */
    int tail_pct = 0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;

    // Serving layers (empty for optical-offline).
    obs::MetricsSnapshot serve_delta;  ///< server registries, window only
    obs::MetricsSnapshot client_delta; ///< client endpoint registry
    uint64_t net_bytes = 0;            ///< all in-process sockets
    std::vector<double> late_ms;       ///< open loop only
    double late_limit_ms = 0.0;        ///< open loop only
    std::vector<double> plain_ms;      ///< untraced half (traced runs)
    std::vector<double> traced_ms;     ///< every-request-traced half

    // Spectrum caches the engines read (hits, lookups, bytes).
    double kernel_hits = 0, kernel_lookups = 0, kernel_bytes = 0;
    double optical_hits = 0, optical_lookups = 0, optical_bytes = 0;
};

/**
 * Run `workload` ("serve-fused", "cluster-open" or "optical-offline")
 * for `seconds`. With `traced`, the timed phase is split: the first
 * half untraced, the second with every request carrying a trace id,
 * and each request is also recorded as a span in `spans`.
 */
Outcome runWorkload(const std::string &workload, uint64_t seed,
                    double seconds, const Traffic &traffic, bool traced,
                    SpanRecorder &spans, Checks &checks);

/** Slices of the serving workloads' timed windows (optical-offline
 *  reports over the whole window: too few samples for slices). */
constexpr size_t kSlices = 4;

/** End-to-end figures of one slice of a timed window. */
struct SliceStats
{
    size_t samples = 0;
    double images_per_s = 0.0;
    double p50_ms = 0.0;
    int tail_pct = 0;
    double tail_ms = 0.0;
};

/**
 * Split `o`'s samples into o.slices slices: closed loop, equal spans of
 * the window by completion time; open loop, equal numbers of requests
 * in schedule order (the schedule fixes the count, so every slice's
 * tail is the same percentile), each reporting the whole window's
 * throughput.
 */
std::vector<SliceStats> sliceStats(const Outcome &o);

/** The engine and batch size a workload's model forward runs at. */
struct EngineChoice
{
    std::shared_ptr<const nn::ConvEngine> engine;
    size_t batch = 1;
};
EngineChoice workloadEngine(const std::string &workload);

/** p50 of a histogram metric in a snapshot, µs (0 when absent). */
double histP50(const obs::MetricsSnapshot &snap, const std::string &name);
/** Mean of a histogram metric in a snapshot (0 when absent). */
double histMean(const obs::MetricsSnapshot &snap, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
