#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

#include "cluster/cluster_client.hh"
#include "cluster/router.hh"
#include "cluster/server.hh"
#include "signal/fft_plan.hh"

namespace perfbench {

namespace {

using Logits = std::vector<double>;
/** refs[model][image]: per-image Network::logits on a separate copy. */
using References = std::vector<std::vector<Logits>>;

/** Per-image logits of every (model, image) pair, each model built
 *  afresh and bound to the engine `bind` gives it (one thread per
 *  model; each owns its copy). */
template <typename Bind>
References
computeReferences(const std::vector<nn::Tensor> &images, Bind bind)
{
    References refs(kModels.size());
    std::vector<std::thread> threads;
    for (size_t m = 0; m < kModels.size(); ++m) {
        threads.emplace_back([&, m] {
            nn::Network net = buildModel(kModels[m]);
            bind(net);
            for (const auto &image : images)
                refs[m].push_back(net.logits(image));
        });
    }
    for (auto &t : threads)
        t.join();
    return refs;
}

/** Trace id for request i (nonzero, distinct). */
uint64_t
traceId(uint64_t i)
{
    return 0x9e3779b97f4a7c15ull * (i + 1) | 1ull;
}

obs::MetricsSnapshot
snapshotDelta(const obs::MetricsSnapshot &after,
              const obs::MetricsSnapshot &before)
{
    obs::MetricsSnapshot out;
    for (obs::MetricValue v : after.metrics) {
        const obs::MetricValue *b = before.find(v.name);
        if (b != nullptr && b->type == v.type) {
            if (v.type == obs::MetricType::Counter) {
                v.counter_value -= std::min(v.counter_value,
                                            b->counter_value);
            } else if (v.type == obs::MetricType::Histogram &&
                       b->histogram.buckets.size() <=
                           v.histogram.buckets.size()) {
                for (size_t i = 0; i < b->histogram.buckets.size(); ++i)
                    v.histogram.buckets[i] -= b->histogram.buckets[i];
                v.histogram.count -= b->histogram.count;
                v.histogram.sum -= b->histogram.sum;
            }
        }
        out.metrics.push_back(std::move(v));
    }
    return out;
}

/** One request the closed or open loop has in flight. */
struct Pending
{
    serve::Completion handle;
    Clock::time_point due;       ///< open loop: scheduled send time
    Clock::time_point submitted;
    size_t model = 0, image = 0;
    bool traced = false;
};

/** Shared tally of a serving loop's completed requests. */
struct Tally
{
    std::mutex mutex;
    Clock::time_point start, end, half;
    /** Open loop: keep every scheduled request, however late it
     *  completes, and track the last completion. */
    bool open_loop = false;
    Clock::time_point last_done;
    uint64_t attempted = 0, failed = 0, images = 0;
    std::vector<double> latency_ms, done_s, plain_ms, traced_ms;
    size_t slices = 1;

    /** Wait for `p`, check its logits, and account it. */
    void finish(Pending &p, const References &refs, SpanRecorder &spans,
                Checks &checks)
    {
        const serve::RequestStatus status = p.handle.wait();
        const double service_us = p.handle.latencyUs();
        const auto done =
            p.submitted + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  service_us));
        // Open loop: from when the request was due, so generator
        // stalls count against the system; closed loop: due ==
        // submitted.
        const double ms =
            std::chrono::duration<double, std::milli>(done - p.due).count();
        const bool ok = status == serve::RequestStatus::Done;
        if (ok && !sameBits(p.handle.logits(), refs[p.model][p.image]))
            checks.fail("served logits of " + kModels[p.model] + " image " +
                        std::to_string(p.image) +
                        " differ from Network::logits");
        spans.add(p.traced ? "serve.request.traced" : "serve.request", -1,
                  p.due, done);
        std::lock_guard<std::mutex> lock(mutex);
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "request failed: %s (%s)\n",
                         serve::statusName(status).c_str(),
                         p.handle.error().c_str());
            return;
        }
        if (open_loop)
            last_done = std::max(last_done, done);
        else if (p.due < start || done > end)
            return;
        ++images;
        latency_ms.push_back(ms);
        done_s.push_back(std::chrono::duration<double>(done - start).count());
        (p.traced ? traced_ms : plain_ms).push_back(ms);
    }
};

/** Warm-up: every model on the first kWarmImages pool images, checked
 *  (enough to run every layer and fill the spectrum caches). */
template <typename Submit>
void
warmUp(Submit submit, const References &refs, Checks &checks)
{
    const size_t pool = kWarmImages;
    std::vector<std::pair<size_t, serve::Completion>> handles;
    for (size_t m = 0; m < kModels.size(); ++m)
        for (size_t i = 0; i < pool; ++i)
            handles.emplace_back(m * pool + i, submit(kModels[m], i));
    for (auto &[key, handle] : handles) {
        const size_t m = key / pool, i = key % pool;
        if (handle.wait() != serve::RequestStatus::Done ||
            !sameBits(handle.logits(), refs[m][i]))
            checks.fail("warm-up request " + kModels[m] + " image " +
                        std::to_string(i) + " failed or differs");
    }
}

void
finishOutcome(Outcome &out, Tally &tally, double cpu0)
{
    out.cpu_s = cpuSeconds() - cpu0;
    out.peak_rss_mb = peakRssMb();
    out.window_s = std::chrono::duration<double>(
                       (tally.open_loop ? tally.last_done : tally.end) -
                       tally.start)
                       .count();
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.images = tally.images;
    out.latency_ms = std::move(tally.latency_ms);
    out.done_s = std::move(tally.done_s);
    out.slices = tally.slices;
    out.open_loop = tally.open_loop;
    out.plain_ms = std::move(tally.plain_ms);
    out.traced_ms = std::move(tally.traced_ms);
}

// ---------------------------------------------------------------------
// serve-fused: closed loop into an in-process InferenceServer.
// ---------------------------------------------------------------------

struct FusedSystem
{
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::shared_ptr<tiling::KernelSpectrumCache> spectra;
    std::unique_ptr<serve::InferenceServer> server;

    /** Join the workers before the registry they record into goes
     *  (a defaulted move-assignment would replace `metrics` first). */
    void stop()
    {
        if (server)
            server->shutdown();
        server.reset();
    }
};

FusedSystem
setUpFused(const std::vector<nn::Tensor> &images, const References &refs,
           Checks &checks)
{
    FusedSystem sys;
    sys.metrics = std::make_unique<obs::MetricsRegistry>();
    sys.spectra = std::make_shared<tiling::KernelSpectrumCache>();
    serve::ServerConfig cfg;
    cfg.batching.max_batch = kFusedMaxBatch;
    cfg.workers = kServingWorkers;
    cfg.metrics = sys.metrics.get();
    cfg.engine_factory = [spectra = sys.spectra](size_t) {
        return std::make_shared<nn::DirectEngine>(spectra,
                                                  nn::ConvPath::Auto);
    };
    sys.server = std::make_unique<serve::InferenceServer>(cfg);
    for (const auto &model : kModels)
        sys.server->registry().add(model, buildModel(model));
    warmUp(
        [&](const std::string &model, size_t i) {
            return sys.server->submit(model, images[i]);
        },
        refs, checks);
    return sys;
}

Outcome
runServeFused(uint64_t seed, double seconds, size_t in_flight, bool traced,
              SpanRecorder &spans, Checks &checks)
{
    const auto images = makeImages(seed, kServePool);
    const References refs =
        computeReferences(images, [](nn::Network &) {});

    Outcome out;
    FusedSystem sys;
    for (size_t r = 0; r < (traced ? 1 : kSetupRepeats); ++r) {
        sys.stop();
        const auto t0 = Clock::now();
        sys = setUpFused(images, refs, checks);
        out.setup_s.push_back(secondsSince(t0));
    }

    const auto before = sys.metrics->snapshot();
    const auto net_before =
        obs::MetricsRegistry::global().snapshot();
    Tally tally;
    tally.slices = kSlices;
    const double cpu0 = cpuSeconds();
    tally.start = Clock::now();
    tally.end = tally.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    tally.half = traced ? tally.start + (tally.end - tally.start) / 2
                        : tally.end;

    // One client thread keeps every request in flight; it waits on the
    // oldest and sends the next as soon as one completes.
    std::deque<Pending> inflight;
    for (uint64_t i = 0;;) {
        const auto now = Clock::now();
        if (now < tally.end && inflight.size() < in_flight) {
            Pending p;
            p.model = i % kModels.size();
            p.image = (i / kModels.size()) % images.size();
            p.traced = now >= tally.half;
            serve::SubmitOptions opts;
            if (p.traced)
                opts.trace_id = traceId(i);
            ++i;
            p.submitted = p.due = Clock::now();
            p.handle =
                sys.server->submit(kModels[p.model], images[p.image], opts);
            inflight.push_back(std::move(p));
            continue;
        }
        if (inflight.empty())
            break;
        tally.finish(inflight.front(), refs, spans, checks);
        inflight.pop_front();
    }
    finishOutcome(out, tally, cpu0);

    out.serve_delta = snapshotDelta(sys.metrics->snapshot(), before);
    const auto net_after = obs::MetricsRegistry::global().snapshot();
    const auto net = snapshotDelta(net_after, net_before);
    out.net_bytes = net.counterValue("pf_net_bytes_sent_total") +
                    net.counterValue("pf_net_bytes_recv_total");
    const auto k = sys.spectra->stats();
    const auto o = sys.spectra->opticalPlaneCache()->stats();
    out.kernel_hits = double(k.hits);
    out.kernel_lookups = double(k.hits + k.misses);
    out.kernel_bytes = double(k.bytes);
    out.optical_hits = double(o.hits);
    out.optical_lookups = double(o.hits + o.misses);
    out.optical_bytes = double(o.bytes);
    sys.stop();
    return out;
}

// ---------------------------------------------------------------------
// cluster-open: seeded Poisson arrivals through ClusterClient → an
// in-process Router (behind its ProtocolServer) → two loopback shards.
// ---------------------------------------------------------------------

struct ClusterSystem
{
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_metrics;
    std::unique_ptr<obs::MetricsRegistry> router_metrics, client_metrics;
    std::vector<std::unique_ptr<cluster::ShardServer>> shards;
    std::unique_ptr<cluster::Router> router;
    std::unique_ptr<cluster::ProtocolServer> front;
    std::unique_ptr<cluster::ClusterClient> client;

    obs::MetricsSnapshot shardSnapshot() const
    {
        obs::MetricsSnapshot merged;
        for (const auto &m : shard_metrics)
            merged.merge(m->snapshot());
        return merged;
    }

    void stop()
    {
        if (client)
            client->close();
        if (front)
            front->stop();
        if (router)
            router->close();
        for (auto &shard : shards)
            shard->stop();
    }
};

std::unique_ptr<ClusterSystem>
setUpCluster(const std::vector<nn::Tensor> &images, const References &refs,
             Checks &checks)
{
    auto sys = std::make_unique<ClusterSystem>();
    serve::BatchingConfig batching;
    batching.max_batch = 1;
    cluster::RouterConfig rc;
    for (const char *name : {"shard-a", "shard-b"}) {
        sys->shard_metrics.push_back(
            std::make_unique<obs::MetricsRegistry>());
        cluster::ShardServerConfig sc;
        sc.name = name;
        sc.serving = accelerator().servingConfig(batching,
                                                 /*with_noise=*/true);
        sc.serving.metrics = sys->shard_metrics.back().get();
        // What workers = 0 resolves to without the one-thread pool that
        // main() sets: each shard serves a request per vCPU at a time.
        sc.serving.workers = std::max(1u, std::thread::hardware_concurrency());
        auto shard = std::make_unique<cluster::ShardServer>(sc);
        if (!shard->start()) {
            checks.fail(std::string("cannot start ") + name);
            return sys;
        }
        rc.shards.push_back({name, "127.0.0.1", shard->port()});
        sys->shards.push_back(std::move(shard));
    }
    sys->router_metrics = std::make_unique<obs::MetricsRegistry>();
    rc.metrics = sys->router_metrics.get();
    sys->router = std::make_unique<cluster::Router>(rc);
    if (sys->router->connect() != rc.shards.size())
        checks.fail("router did not reach both shards");
    sys->front = std::make_unique<cluster::ProtocolServer>(*sys->router);
    if (!sys->front->start())
        checks.fail("cannot start the router's protocol server");

    sys->client_metrics = std::make_unique<obs::MetricsRegistry>();
    cluster::EndpointConfig ec;
    ec.client_name = "perfbench";
    ec.metrics = sys->client_metrics.get();
    sys->client = std::make_unique<cluster::ClusterClient>(
        "127.0.0.1", sys->front->port(), ec);
    if (!sys->client->connect()) {
        checks.fail("client cannot connect to the router");
        return sys;
    }
    for (const auto &model : kModels) {
        std::string error;
        if (!sys->client->registerModel(model, zooSpec(model), {},
                                        std::nullopt, &error))
            checks.fail("cannot register " + model + ": " + error);
    }
    warmUp(
        [&](const std::string &model, size_t i) {
            return sys->client->submit(model, images[i]);
        },
        refs, checks);
    return sys;
}

Outcome
runClusterOpen(uint64_t seed, double seconds, const Traffic &traffic,
               bool traced, SpanRecorder &spans, Checks &checks)
{
    const auto images = makeImages(seed, kServePool);
    const References refs = computeReferences(images, [](nn::Network &net) {
        accelerator().attach(net, /*with_noise=*/true);
    });

    Outcome out;
    std::unique_ptr<ClusterSystem> sys;
    for (size_t r = 0; r < (traced ? 1 : kSetupRepeats); ++r) {
        if (sys)
            sys->stop();
        sys.reset();
        const auto t0 = Clock::now();
        sys = setUpCluster(images, refs, checks);
        out.setup_s.push_back(secondsSince(t0));
    }
    if (!checks.ok()) {
        sys->stop();
        return out;
    }

    const auto shard_before = sys->shardSnapshot();
    const auto client_before = sys->client_metrics->snapshot();
    const auto net_before = obs::MetricsRegistry::global().snapshot();

    Tally tally;
    tally.open_loop = true;
    tally.slices = kSlices;
    out.late_limit_ms = traffic.lateLimitMs();
    std::mutex queue_mutex;
    std::condition_variable queue_cv;
    std::deque<Pending> queue;
    bool generating = true;
    // One collector, first in first out: latencies are recorded in
    // schedule order (sliceStats relies on it).
    std::thread collector([&] {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lock(queue_mutex);
                queue_cv.wait(lock,
                              [&] { return !queue.empty() || !generating; });
                if (queue.empty())
                    return;
                p = std::move(queue.front());
                queue.pop_front();
            }
            tally.finish(p, refs, spans, checks);
        }
    });

    // The arrival schedule is a pure function of the seed: a Poisson
    // process at the open-loop rate conditioned on its count, i.e.
    // rate x seconds arrival times drawn uniformly over the window and
    // sorted. Every run offers the same number of requests, so runs
    // differ only in when they arrive, and every one of them counts:
    // the collector waits for the last, and the window runs to it.
    Rng rng(seed ^ 0x5eedf00dull);
    std::vector<double> offsets(
        static_cast<size_t>(std::llround(traffic.open_rate * seconds)));
    for (double &t : offsets)
        t = rng.uniform() * seconds;
    std::sort(offsets.begin(), offsets.end());
    const double cpu0 = cpuSeconds();
    tally.start = Clock::now();
    tally.end = tally.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    tally.half = traced ? tally.start + (tally.end - tally.start) / 2
                        : tally.end;
    for (uint64_t i = 0; i < offsets.size(); ++i) {
        Pending p;
        p.due = tally.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offsets[i]));
        std::this_thread::sleep_until(p.due);
        p.model = i % kModels.size();
        p.image = (i / kModels.size()) % images.size();
        p.traced = p.due >= tally.half;
        serve::SubmitOptions opts;
        if (p.traced)
            opts.trace_id = traceId(i);
        p.submitted = Clock::now();
        out.late_ms.push_back(
            std::chrono::duration<double, std::milli>(p.submitted - p.due)
                .count());
        p.handle = sys->client->submit(kModels[p.model], images[p.image],
                                       opts);
        std::lock_guard<std::mutex> lock(queue_mutex);
        queue.push_back(std::move(p));
        queue_cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(queue_mutex);
        generating = false;
        queue_cv.notify_one();
    }
    collector.join();
    finishOutcome(out, tally, cpu0);

    out.serve_delta = snapshotDelta(sys->shardSnapshot(), shard_before);
    out.client_delta =
        snapshotDelta(sys->client_metrics->snapshot(), client_before);
    const auto net =
        snapshotDelta(obs::MetricsRegistry::global().snapshot(), net_before);
    out.net_bytes = net.counterValue("pf_net_bytes_sent_total") +
                    net.counterValue("pf_net_bytes_recv_total");
    const auto &snap = out.serve_delta;
    out.kernel_hits = snap.gaugeValue("pf_cache_kernel_hits");
    out.kernel_lookups =
        out.kernel_hits + snap.gaugeValue("pf_cache_kernel_misses");
    out.kernel_bytes = snap.gaugeValue("pf_cache_kernel_bytes");
    out.optical_hits = snap.gaugeValue("pf_cache_optical_hits");
    out.optical_lookups =
        out.optical_hits + snap.gaugeValue("pf_cache_optical_misses");
    out.optical_bytes = snap.gaugeValue("pf_cache_optical_bytes");
    sys->stop();
    return out;
}

// ---------------------------------------------------------------------
// optical-offline: Network::logitsBatch on the field-level JTC.
// ---------------------------------------------------------------------

struct OfflineSystem
{
    std::vector<nn::Network> nets;
    std::vector<std::shared_ptr<tiling::KernelSpectrumCache>> spectra;
};

OfflineSystem
setUpOffline(const std::vector<nn::Tensor> &images, const References &refs,
             Checks &checks)
{
    OfflineSystem sys;
    for (size_t m = 0; m < kModels.size(); ++m) {
        sys.spectra.push_back(std::make_shared<tiling::KernelSpectrumCache>());
        sys.nets.push_back(buildModel(kModels[m]));
        sys.nets.back().setConvEngine(std::make_shared<nn::PhotoFourierEngine>(
            opticalConfig(), sys.spectra.back()));
        // Warm-up: one batch per model fills the joint-plane caches.
        const std::vector<nn::Tensor> batch(images.begin(),
                                            images.begin() + kOfflineBatch);
        const auto outs = sys.nets.back().logitsBatch(batch);
        for (size_t j = 0; j < outs.size(); ++j)
            if (!sameBits(outs[j], refs[m][j]))
                checks.fail("warm-up logitsBatch of " + kModels[m] +
                            " differs from Network::logits");
    }
    return sys;
}

Outcome
runOpticalOffline(uint64_t seed, double seconds, bool traced,
                  SpanRecorder &spans, Checks &checks)
{
    const auto images = makeImages(seed, kOfflinePool);
    const References refs = computeReferences(images, [](nn::Network &net) {
        net.setConvEngine(
            std::make_shared<nn::PhotoFourierEngine>(opticalConfig()));
    });

    Outcome out;
    // Calls fall in three clusters (one per model, resnet slowest). The
    // highest percentile with ten calls beyond it would drop to the
    // boundary of the resnet cluster (p66) when a slow host allows only
    // 30 calls, so the tail is fixed at p75: ten beyond from 40 calls.
    out.tail_pct = kOfflineTailPct;
    OfflineSystem sys;
    for (size_t r = 0; r < (traced ? 1 : kOfflineSetupRepeats); ++r) {
        sys = OfflineSystem{};
        const auto t0 = Clock::now();
        sys = setUpOffline(images, refs, checks);
        out.setup_s.push_back(secondsSince(t0));
    }

    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    // Whole rounds: every model runs the same number of batches.
    for (size_t round = 0; Clock::now() < end; ++round) {
        for (size_t m = 0; m < kModels.size(); ++m) {
            std::vector<nn::Tensor> batch;
            std::vector<size_t> which;
            for (size_t j = 0; j < kOfflineBatch; ++j) {
                which.push_back((round * kOfflineBatch + j) % images.size());
                batch.push_back(images[which.back()]);
            }
            const auto t0 = Clock::now();
            const auto outs = sys.nets[m].logitsBatch(batch);
            const auto t1 = Clock::now();
            spans.add("nn." + kModels[m] + ".logitsBatch", -1, t0, t1);
            out.latency_ms.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
            out.done_s.push_back(
                std::chrono::duration<double>(t1 - start).count());
            out.attempted += batch.size();
            out.images += batch.size();
            for (size_t j = 0; j < outs.size(); ++j)
                if (!sameBits(outs[j], refs[m][which[j]]))
                    checks.fail("logitsBatch of " + kModels[m] + " image " +
                                std::to_string(which[j]) +
                                " differs from Network::logits");
        }
    }
    out.window_s = secondsSince(start);
    out.cpu_s = cpuSeconds() - cpu0;
    out.peak_rss_mb = peakRssMb();
    for (const auto &cache : sys.spectra) {
        const auto k = cache->stats();
        const auto o = cache->opticalPlaneCache()->stats();
        out.kernel_hits += double(k.hits);
        out.kernel_lookups += double(k.hits + k.misses);
        out.kernel_bytes += double(k.bytes);
        out.optical_hits += double(o.hits);
        out.optical_lookups += double(o.hits + o.misses);
        out.optical_bytes += double(o.bytes);
    }
    return out;
}

} // namespace

Traffic
defaultTraffic()
{
    // Measured on a 4-vCPU host (README, "Offered load"): with one
    // serving worker, 48 in flight is the fewest that fill
    // serve-fused's micro-batches (mean 7.90 of 8; 6.19 at 24), and
    // 40 requests/s is about a quarter of cluster-open's capacity.
    Traffic t;
    t.in_flight = 48;
    t.open_rate = 40.0;
    return t;
}

Outcome
runWorkload(const std::string &workload, uint64_t seed, double seconds,
            const Traffic &traffic, bool traced, SpanRecorder &spans,
            Checks &checks)
{
    if (workload == "serve-fused")
        return runServeFused(seed, seconds, traffic.in_flight, traced, spans,
                             checks);
    if (workload == "cluster-open")
        return runClusterOpen(seed, seconds, traffic, traced, spans, checks);
    return runOpticalOffline(seed, seconds, traced, spans, checks);
}

EngineChoice
workloadEngine(const std::string &workload)
{
    if (workload == "serve-fused")
        return {std::make_shared<nn::DirectEngine>(nullptr,
                                                   nn::ConvPath::Auto),
                kFusedMaxBatch};
    if (workload == "cluster-open")
        return {std::make_shared<nn::PhotoFourierEngine>(photonicConfig(true)),
                1};
    return {std::make_shared<nn::PhotoFourierEngine>(opticalConfig()),
            kOfflineBatch};
}

std::vector<SliceStats>
sliceStats(const Outcome &o)
{
    const size_t k = std::max<size_t>(o.slices, 1);
    const double len = o.window_s / double(k);
    const size_t n = o.latency_ms.size();
    std::vector<std::vector<double>> lat(k);
    for (size_t i = 0; i < n; ++i)
        lat[o.open_loop ? i * k / n
                        : std::min(k - 1, static_cast<size_t>(o.done_s[i] /
                                                              len))]
            .push_back(o.latency_ms[i]);
    // Each sample is one image (serving) or one batch (offline).
    const double images_per_sample =
        o.latency_ms.empty() ? 0.0
                             : double(o.images) / double(o.latency_ms.size());
    std::vector<SliceStats> out;
    for (const auto &v : lat) {
        SliceStats s;
        s.samples = v.size();
        s.images_per_s = o.open_loop ? double(o.images) / o.window_s
                                     : double(v.size()) *
                                           images_per_sample / len;
        s.p50_ms = median(v);
        s.tail_pct = o.tail_pct > 0 ? o.tail_pct : tailPercentile(v.size());
        s.tail_ms = percentile(v, s.tail_pct);
        out.push_back(s);
    }
    return out;
}

double
histP50(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    if (v == nullptr || v->type != obs::MetricType::Histogram ||
        v->histogram.count == 0)
        return 0.0;
    return Histogram::fromData(v->histogram).percentile(50.0);
}

double
histMean(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const obs::MetricValue *v = snap.find(name);
    if (v == nullptr || v->type != obs::MetricType::Histogram ||
        v->histogram.count == 0)
        return 0.0;
    return v->histogram.sum / double(v->histogram.count);
}

} // namespace perfbench
