#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <set>
#include <tuple>

#include "arch/dataflow.hh"
#include "conv_capture.hh"
#include "jtc/jtc_system.hh"
#include "signal/fft.hh"
#include "signal/fft_plan.hh"
#include "tiling/tiled_convolution.hh"

namespace perfbench {

namespace {

/** Images per path/tiling probe call (small: the optical leg is slow). */
constexpr size_t kPathBatch = 2;

/**
 * Repeat `body` until `budget_s` has passed and at least `min_reps`
 * runs were made; returns each run's seconds.
 */
std::vector<double>
repeatTimed(size_t min_reps, double budget_s,
            const std::function<void()> &body)
{
    std::vector<double> times;
    const auto start = Clock::now();
    while (times.size() < min_reps || secondsSince(start) < budget_s) {
        const auto t0 = Clock::now();
        body();
        times.push_back(secondsSince(t0));
    }
    return times;
}

double
ratio(double hits, double lookups)
{
    return lookups > 0.0 ? hits / lookups : 0.0;
}

/** Serving-layer metrics from a served outcome. */
void
servingMetrics(const Outcome &serve, const Outcome &clus, Metrics &m)
{
    const auto &s = serve.serve_delta;
    double stage_mean_ms = 0.0;
    for (const char *stage : {"queue", "batch", "engine", "complete"}) {
        const std::string hist =
            std::string("pf_serve_stage_") + stage + "_us";
        m.set(std::string("serve.") + stage + "_ms",
              histP50(s, hist) / 1e3, "ms");
        stage_mean_ms += histMean(s, hist) / 1e3;
    }
    m.set("serve.unaccounted_ms", mean(serve.latency_ms) - stage_mean_ms,
          "ms");
    m.set("serve.batch_size", histMean(s, "pf_serve_batch_size"), "count");
    m.set("serve.fused_batches",
          1e3 * double(s.counterValue("pf_serve_fused_batch_total")) /
              double(std::max<uint64_t>(serve.images, 1)),
          "count");

    m.set("cluster.network_ms",
          histP50(clus.client_delta, "pf_client_network_us") / 1e3, "ms");
    m.set("cluster.rtt_ms", histP50(clus.client_delta, "pf_client_rtt_us") / 1e3,
          "ms");
    m.set("net.bytes_per_image",
          double(clus.net_bytes) / double(std::max<uint64_t>(clus.images, 1)),
          "B");
}

/** Per-model forward / per-layer / measured-vs-modeled probe. */
void
modelProbe(const std::string &workload, const std::string &model,
           const std::vector<nn::Tensor> &batch, SpanRecorder &spans,
           Checks &checks, Metrics &m, std::vector<std::string> &table)
{
    const EngineChoice choice = workloadEngine(workload);
    auto capture = std::make_shared<CapturingEngine>(choice.engine, false);
    nn::Network net = buildModel(model);
    net.setConvEngine(capture);
    net.logitsBatch(batch); // warm caches
    capture->clear();

    const size_t layers = net.layerCount();
    const double per_image = 1e3 / double(batch.size());
    std::vector<double> forward;
    std::vector<std::vector<double>> self(layers);
    std::vector<double> stepped_total;
    const bool slow = workload == "optical-offline";
    const auto start = Clock::now();
    auto whole = [&] {
        Span span(spans, "nn." + model + ".logitsBatch");
        const auto t0 = Clock::now();
        net.logitsBatch(batch);
        forward.push_back(secondsSince(t0));
    };
    auto stepped = [&] {
        Span step(spans, "nn." + model + ".step");
        std::vector<nn::Tensor> acts = batch;
        double total = 0.0;
        for (size_t i = 0; i < layers; ++i) {
            char name[96];
            std::snprintf(name, sizeof(name), "nn.%s.L%02zu.%s",
                          model.c_str(), i, net.layer(i).name().c_str());
            Span layer(spans, name, step.index());
            const auto t0 = Clock::now();
            acts = net.layer(i).forwardBatch(acts);
            self[i].push_back(secondsSince(t0));
            total += self[i].back();
        }
        stepped_total.push_back(total);
    };
    // Interleaved, alternating which goes first, so drift on a shared
    // machine lands on both sides of the layer-sum comparison.
    while (forward.size() < (slow ? 5u : 8u) || secondsSince(start) < 3.0) {
        if (forward.size() % 2 == 0) {
            whole();
            stepped();
        } else {
            stepped();
            whole();
        }
    }

    // Each repeat is a pair, one whole forward beside one stepped
    // pass. Both sides are means over the middle half of the pairs,
    // ranked by the pair's total time, so a burst of host load drops
    // out of both sides at once; and a mean over one set of passes
    // sums exactly to the mean of their totals, where per-layer
    // medians (right-skewed on a shared host) would sum to less than
    // the median total.
    std::vector<size_t> pairs(forward.size());
    for (size_t k = 0; k < pairs.size(); ++k)
        pairs[k] = k;
    std::sort(pairs.begin(), pairs.end(), [&](size_t a, size_t b) {
        return forward[a] + stepped_total[a] < forward[b] + stepped_total[b];
    });
    const size_t drop = pairs.size() / 4;
    const std::vector<size_t> kept(pairs.begin() + drop, pairs.end() - drop);
    auto keptMeanMs = [&](const std::vector<double> &seconds) {
        double sum = 0.0;
        for (size_t k : kept)
            sum += seconds[k];
        return sum / double(kept.size()) * per_image;
    };
    const double fwd_ms = keptMeanMs(forward);
    m.set("nn." + model + ".forward_ms", fwd_ms, "ms");
    double sum_ms = 0.0;
    for (size_t i = 0; i < layers; ++i) {
        char name[64];
        std::snprintf(name, sizeof(name), "nn.%s.L%02zu_ms", model.c_str(), i);
        const double ms = keptMeanMs(self[i]);
        sum_ms += ms;
        m.set(name, ms, "ms");
    }
    const double gap = std::fabs(sum_ms - fwd_ms) / fwd_ms;
    std::printf("layer sum %-14s forward %9.3f ms/img  sum of L self "
                "%9.3f ms/img  gap %5.1f%% (%s %.0f%%)\n",
                model.c_str(), fwd_ms, sum_ms, 100.0 * gap,
                gap <= kLayerSumTolerance ? "within" : "OUTSIDE",
                100.0 * kLayerSumTolerance);
    if (!(gap <= kLayerSumTolerance))
        checks.fail("layer self times of " + model + " sum to " +
                    std::to_string(sum_ms) + " ms/image, forward is " +
                    std::to_string(fwd_ms) + " ms/image");

    // Conv calls of the stepped and whole forwards, in layer order.
    const auto calls = capture->calls();
    // One warm-up forward was cleared; each repeat made two forwards.
    const size_t convs = calls.size() / (2 * forward.size());
    const arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    for (size_t c = 0; c < convs; ++c) {
        std::vector<double> t;
        for (size_t k = c; k < calls.size(); k += convs)
            t.push_back(calls[k].seconds);
        const ConvCall &call = calls[c];
        nn::ConvLayerSpec spec{model + ".conv" + std::to_string(c),
                               call.in_channels, call.out_channels,
                               call.input_size, call.kernel, call.stride};
        const arch::LayerPerformance perf = mapper.mapLayer(spec);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%-22s %3zu->%-3zu %2zux%-2zu k%zu s%zu  %10.4f  "
                      "%12.0f  %12.1f  %10.1f",
                      spec.name.c_str(), spec.in_channels,
                      spec.out_channels, spec.input_size, spec.input_size,
                      spec.kernel, spec.stride, median(t) * per_image,
                      perf.cycles, perf.energy_pj / 1e3, perf.latency_ns);
        table.push_back(row);
    }
}

/** Every conv layer of `model` through each forced engine path. */
void
pathProbe(const std::string &model, const std::vector<nn::Tensor> &batch,
          SpanRecorder &spans, Metrics &m)
{
    const auto layers = captureConvLayers(model, batch);
    const std::vector<std::pair<std::string,
                                std::shared_ptr<const nn::ConvEngine>>>
        paths = {
            {"direct", std::make_shared<nn::DirectEngine>(
                           nullptr, nn::ConvPath::Direct)},
            {"fft_rows",
             std::make_shared<nn::DirectEngine>(nullptr, nn::ConvPath::Fft)},
            {"photonic",
             std::make_shared<nn::PhotoFourierEngine>(photonicConfig(false))},
            {"optical",
             std::make_shared<nn::PhotoFourierEngine>(opticalConfig())},
        };
    for (const auto &[path, engine] : paths) {
        auto pass = [&, &engine = engine] {
            Span span(spans, "nn." + model + ".path." + path);
            for (const ConvCall &call : layers)
                engine->convolveBatch(call.inputs, call.weights, call.bias,
                                      call.stride, call.mode);
        };
        pass(); // warm the engine's spectrum caches
        const bool slow = path == "optical";
        const auto t = repeatTimed(slow ? 2 : 5, slow ? 0.0 : 0.5, pass);
        m.set("nn." + model + ".path." + path + "_ms",
              median(t) * 1e3 / double(batch.size()), "ms");
    }
}

/** One distinct (input size, kernel, stride) conv plane shape. */
using PlaneShape = std::tuple<size_t, size_t, size_t>;
/** One 1D backend call shape: (input length, kernel length, count). */
using CallShape = std::tuple<size_t, size_t, size_t>;

std::set<PlaneShape>
planeShapes(const std::vector<nn::Tensor> &images)
{
    std::set<PlaneShape> shapes;
    for (const auto &model : kModels)
        for (const ConvCall &c : captureConvLayers(model, {images[0]}))
            shapes.insert({c.input_size, c.kernel, c.stride});
    return shapes;
}

/**
 * TiledConvolution::execute over every plane shape with each backend.
 * Also returns the 1D call shapes the tiled executor hands its
 * backends, for the signal probes.
 */
std::set<CallShape>
tilingProbe(const std::set<PlaneShape> &shapes, uint64_t seed,
            SpanRecorder &spans, Metrics &m)
{
    std::set<CallShape> calls;
    std::mutex calls_mutex;
    const size_t n_conv = photonicConfig(false).n_conv;
    const std::vector<std::pair<std::string, tiling::Conv1dBackend>>
        backends = {
            {"cpu", tiling::cpuBackend()},
            {"fft", tiling::fftBackend(
                        std::make_shared<tiling::KernelSpectrumCache>())},
            {"jtc", tiling::jtcBackend(
                        jtc::JtcConfig{},
                        std::make_shared<signal::PlaneSpectrumCache>())},
        };
    Rng rng(seed);
    std::vector<std::pair<signal::Matrix, signal::Matrix>> operands;
    for (const auto &[size, k, stride] : shapes) {
        signal::Matrix in(size, size), ker(k, k);
        for (double &v : in.data)
            v = rng.uniform();
        for (double &v : ker.data)
            v = rng.normal();
        operands.emplace_back(std::move(in), std::move(ker));
    }
    for (const auto &[name, backend] : backends) {
        std::deque<tiling::TiledConvolution> convs; // not movable
        for (const auto &[size, k, stride] : shapes) {
            tiling::TilingParams p{size, k, n_conv, signal::ConvMode::Same,
                                   stride, false};
            tiling::Conv1dBackend run = backend;
            if (name == "cpu") // the executor tiles alike for every backend
                run = [&, inner = backend](const std::vector<double> &input,
                                           const std::vector<double> &kernel,
                                           long start, size_t count,
                                           std::vector<double> &out) {
                    {
                        std::lock_guard<std::mutex> lock(calls_mutex);
                        calls.insert({input.size(), kernel.size(), count});
                    }
                    inner(input, kernel, start, count, out);
                };
            convs.emplace_back(p, run);
        }
        tiling::ConvWorkspace ws;
        signal::Matrix out;
        auto pass = [&, &name = name] {
            Span span(spans, "tiling.execute." + name);
            for (size_t i = 0; i < convs.size(); ++i)
                convs[i].execute(operands[i].first, operands[i].second, out,
                                 ws);
        };
        pass();
        const auto t = repeatTimed(3, 0.4, pass);
        m.set("tiling.backend." + name + "_ms", median(t) * 1e3, "ms");
    }
    return calls;
}

/** photonics: per-image Network::logits with sensing noise on vs off. */
void
noiseProbe(const std::vector<nn::Tensor> &images, SpanRecorder &spans,
           Metrics &m)
{
    double total = 0.0;
    for (const auto &model : kModels) {
        nn::Network noisy = buildModel(model), quiet = buildModel(model);
        accelerator().attach(noisy, /*with_noise=*/true);
        accelerator().attach(quiet, /*with_noise=*/false);
        std::vector<double> t_noisy, t_quiet;
        for (size_t rep = 0; rep < 3 * images.size(); ++rep) {
            const nn::Tensor &image = images[rep % images.size()];
            for (int which = 0; which < 2; ++which) {
                nn::Network &net = which == 0 ? noisy : quiet;
                Span span(spans, "photonics.logits." +
                                     std::string(which == 0 ? "noise"
                                                            : "quiet"));
                const auto t0 = Clock::now();
                net.logits(image);
                (which == 0 ? t_noisy : t_quiet).push_back(secondsSince(t0));
            }
        }
        total += median(t_noisy) - median(t_quiet);
    }
    m.set("photonics.noise_ms", 1e3 * total / double(kModels.size()), "ms");
}

/** Median seconds of `body` run `inner` times, over several repeats. */
double
microTime(size_t inner, const std::function<void()> &body)
{
    body();
    const auto t = repeatTimed(7, 0.05, [&] {
        for (size_t i = 0; i < inner; ++i)
            body();
    });
    return median(t) / double(inner);
}

/** signal (with arch/simd underneath): real FFT pairs and sliding dots
 *  at the sizes the workload's conv layers use. */
void
signalProbe(const std::string &workload, const std::set<PlaneShape> &planes,
            const std::set<CallShape> &tiled, SpanRecorder &spans, Metrics &m)
{
    std::set<size_t> fft_sizes;
    std::set<CallShape> dots;
    if (workload == "serve-fused") {
        // DirectEngine's frequency row path: one real FFT per row of
        // next_pow2(cols + k - 1); its direct path slides k taps along
        // each row.
        for (const auto &[size, k, stride] : planes) {
            fft_sizes.insert(signal::nextPowerOfTwo(size + k - 1));
            dots.insert({size, k, size});
        }
    } else {
        for (const auto &[in, k, count] : tiled) {
            fft_sizes.insert(
                workload == "optical-offline"
                    ? jtc::JtcPlaneLayout::design(in, k).plane_size
                    : signal::nextPowerOfTwo(in + k - 1));
            dots.insert({in, k, count});
        }
    }

    Span span(spans, "signal.probe");
    Rng rng(7);
    double fft_us = 0.0;
    for (size_t n : fft_sizes) {
        const auto plan = signal::fftPlanFor(n);
        std::vector<double> x(n), y(n);
        for (double &v : x)
            v = rng.normal();
        std::vector<signal::Complex> spec(plan->halfSpectrumSize());
        fft_us += 1e6 * microTime(64, [&] {
            plan->executeReal(x.data(), spec.data());
            plan->executeRealInverse(spec.data(), y.data());
        });
    }
    double dot_us = 0.0;
    for (const auto &[in, k, count] : dots) {
        std::vector<double> s(in), ker(k), out;
        for (double &v : s)
            v = rng.uniform();
        for (double &v : ker)
            v = rng.normal();
        dot_us += 1e6 * microTime(16, [&] {
            jtc::slidingCorrelationInto(s, ker, count, 0, out);
        });
    }
    m.set("signal.fft_real_us", fft_us, "us");
    m.set("signal.sliding_dot_us", dot_us, "us");
}

} // namespace

void
reportOutcome(const std::string &workload, const Outcome &o, Checks &checks,
              bool brief)
{
    std::printf("%s: %llu attempted, %llu failed, %llu images in %.2f s\n",
                workload.c_str(),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.images), o.window_s);
    for (const SliceStats &s : sliceStats(o)) {
        const double beyond =
            std::floor(double(s.samples) * (100.0 - s.tail_pct) / 100.0);
        std::printf("  slice: %5zu samples  %8.2f images/s  p50 %9.3f ms  "
                    "p%d %9.3f ms (%.0f beyond)%s\n",
                    s.samples, s.images_per_s, s.p50_ms, s.tail_pct,
                    s.tail_ms, beyond,
                    beyond < 10 ? " -- FEWER THAN TEN BEYOND THE TAIL" : "");
    }
    std::printf("setup: ");
    for (double s : o.setup_s)
        std::printf("%.3f s ", s);
    std::printf("(median %.3f s); cpu %.1f ms/image; peak rss %.1f MB\n",
                median(o.setup_s), 1e3 * o.cpu_s / double(o.images),
                o.peak_rss_mb);
    const double batch = histMean(o.serve_delta, "pf_serve_batch_size");
    if (batch > 0.0)
        std::printf("serving: mean batch %.2f\n", batch);
    if (!o.late_ms.empty()) {
        const double late = percentile(o.late_ms, 99.0);
        std::printf("open loop: %zu arrivals, generator p99 late %.3f ms "
                    "(limit %.1f ms)\n",
                    o.late_ms.size(), late, o.late_limit_ms);
        if (!(late <= o.late_limit_ms) && brief)
            std::printf("open loop: behind schedule (a brief run: not "
                        "checked)\n");
        else if (!(late <= o.late_limit_ms))
            checks.fail(workload + ": open-loop generator behind schedule");
    }
    if (o.failed != 0)
        checks.fail(workload + ": " + std::to_string(o.failed) + " of " +
                    std::to_string(o.attempted) + " requests failed");
    if (o.images == 0)
        checks.fail(workload + ": no image completed");
}

void
perLayer(const std::string &workload, uint64_t seed, const Traffic &traffic,
         const Outcome &outcome, SpanRecorder &spans, Checks &checks,
         Metrics &m)
{
    // Serving layers come from this workload's own run when it serves;
    // otherwise a short run of the workload that exercises them.
    Outcome brief_serve, brief_cluster;
    const Outcome *serve = &outcome, *clus = &outcome;
    if (workload == "optical-offline") {
        brief_serve = runWorkload("serve-fused", seed, kBriefSeconds,
                                  traffic, true, spans, checks);
        reportOutcome("serve-fused", brief_serve, checks, true);
        serve = &brief_serve;
    }
    if (workload != "cluster-open") {
        brief_cluster = runWorkload("cluster-open", seed, kBriefSeconds,
                                    traffic, true, spans, checks);
        reportOutcome("cluster-open", brief_cluster, checks, true);
        clus = &brief_cluster;
    }
    servingMetrics(*serve, *clus, m);
    m.set("obs.trace_overhead_ms",
          median(serve->traced_ms) - median(serve->plain_ms), "ms");
    m.set("loadgen.late_ms", percentile(clus->late_ms, 99.0), "ms");

    m.set("tiling.kernel_cache_hit_ratio",
          ratio(outcome.kernel_hits, outcome.kernel_lookups), "ratio");
    m.set("tiling.optical_cache_hit_ratio",
          ratio(outcome.optical_hits, outcome.optical_lookups), "ratio");
    m.set("tiling.cache_mb",
          (outcome.kernel_bytes + outcome.optical_bytes) / (1024.0 * 1024.0),
          "MB");

    const EngineChoice choice = workloadEngine(workload);
    const auto images = makeImages(seed, std::max(choice.batch, kPathBatch));
    const std::vector<nn::Tensor> batch(images.begin(),
                                        images.begin() + choice.batch);
    const std::vector<nn::Tensor> path_batch(images.begin(),
                                             images.begin() + kPathBatch);
    std::vector<std::string> table;
    for (const auto &model : kModels) {
        modelProbe(workload, model, batch, spans, checks, m, table);
        pathProbe(model, path_batch, spans, m);
    }
    const auto planes = planeShapes(images);
    const auto tiled = tilingProbe(planes, seed, spans, m);
    noiseProbe(path_batch, spans, m);
    signalProbe(workload, planes, tiled, spans, m);

    std::printf("\nconv layers at the %s engine (batch %zu): measured host "
                "time beside the modeled PhotoFourier-CG cost\n",
                workload.c_str(), choice.batch);
    std::printf("%-22s %-18s %10s  %12s  %12s  %10s\n", "layer", "shape",
                "ms/image", "cycles", "energy_nJ", "latency_ns");
    for (const auto &row : table)
        std::printf("%s\n", row.c_str());
    std::printf("\n");
}

} // namespace perfbench
