/**
 * @file
 * Tests for the serving runtime: registry replica mechanics,
 * micro-batching correctness (batched == sequential, bit-identical),
 * per-request-deterministic photonic noise across worker counts,
 * admission control + graceful drain (exactly-once delivery), and a
 * multi-submitter stress aimed at the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.hh"
#include "core/photofourier.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "nn/serialization.hh"
#include "serve/inference_server.hh"

namespace pf = photofourier;
namespace nn = photofourier::nn;
namespace sig = photofourier::signal;
namespace obs = photofourier::obs;
namespace serve = photofourier::serve;

namespace {

/** Tiny CNN (1x8x8 input): fast enough to serve hundreds of requests. */
nn::Network
tinyNet(uint64_t seed = 21, size_t classes = 3)
{
    pf::Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(1, 4, 3, 1,
                                         sig::ConvMode::Same, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::GlobalAvgPool>());
    net.add(std::make_unique<nn::Linear>(4, classes, rng));
    return net;
}

std::vector<nn::Tensor>
tinyInputs(size_t n, uint64_t seed = 77)
{
    pf::Rng rng(seed);
    std::vector<nn::Tensor> inputs;
    for (size_t i = 0; i < n; ++i) {
        nn::Tensor t(1, 8, 8);
        t.data() = rng.uniformVector(64, 0.0, 1.0);
        inputs.push_back(std::move(t));
    }
    return inputs;
}

/** Sequential reference logits through a private clone. */
std::vector<std::vector<double>>
referenceLogits(const nn::Network &proto,
                const std::vector<nn::Tensor> &inputs)
{
    nn::Network replica = proto.clone();
    std::vector<std::vector<double>> out;
    for (const auto &input : inputs)
        out.push_back(replica.logits(input));
    return out;
}

} // namespace

TEST(Completion, UnboundHandleAndStatusNames)
{
    serve::Completion handle;
    EXPECT_FALSE(handle.valid());
    EXPECT_EQ(serve::statusName(serve::RequestStatus::Pending),
              "pending");
    EXPECT_EQ(serve::statusName(serve::RequestStatus::Done), "done");
    EXPECT_EQ(serve::statusName(serve::RequestStatus::Failed), "failed");
    EXPECT_EQ(serve::statusName(serve::RequestStatus::Rejected),
              "rejected");
}

TEST(ModelRegistry, ReplicasAreIndependentAndSnapshotsRoundTrip)
{
    serve::ModelRegistry registry;
    EXPECT_FALSE(registry.has("tiny"));
    registry.add("tiny", tinyNet());
    ASSERT_TRUE(registry.has("tiny"));
    EXPECT_EQ(registry.names(), std::vector<std::string>{"tiny"});

    const auto inputs = tinyInputs(1);
    auto a = registry.instantiate("tiny");
    auto b = registry.instantiate("tiny");
    const auto logits_a = a.logits(inputs[0]);
    EXPECT_EQ(logits_a, b.logits(inputs[0]));

    // Perturbing one replica must not leak into the other or into
    // future replicas from the prototype.
    auto &conv = dynamic_cast<nn::Conv2d &>(a.layer(0));
    conv.bias()[0] += 1.0;
    EXPECT_NE(a.logits(inputs[0]), logits_a);
    EXPECT_EQ(b.logits(inputs[0]), logits_a);
    EXPECT_EQ(registry.instantiate("tiny").logits(inputs[0]), logits_a);

    // Snapshot (serialized weights) loads into a differently
    // initialized twin architecture and reproduces the prototype.
    std::istringstream snapshot(registry.snapshot("tiny"));
    auto twin = tinyNet(/*seed=*/999);
    EXPECT_NE(twin.logits(inputs[0]), logits_a);
    ASSERT_TRUE(nn::loadNetwork(twin, snapshot));
    EXPECT_EQ(twin.logits(inputs[0]), logits_a);
}

TEST(ModelRegistry, VersionsBumpOnEveryMutation)
{
    serve::ModelRegistry registry;
    EXPECT_EQ(registry.version("tiny"), 0u);
    registry.add("tiny", tinyNet(1));
    EXPECT_EQ(registry.version("tiny"), 1u);
    registry.add("tiny", tinyNet(2));
    EXPECT_EQ(registry.version("tiny"), 2u);
    registry.setEngineOverride("tiny",
                               photofourier::nn::PhotoFourierEngineConfig{});
    EXPECT_EQ(registry.version("tiny"), 3u);
    registry.setEngineOverride("tiny", std::nullopt);
    EXPECT_EQ(registry.version("tiny"), 4u);
    EXPECT_EQ(registry.namesWithVersions(),
              (std::vector<std::pair<std::string, uint64_t>>{
                  {"tiny", 4}}));

    // A replica records the version it was cloned under.
    const auto replica = registry.instantiateReplica("tiny");
    EXPECT_EQ(replica.version, 4u);
    EXPECT_FALSE(replica.engine_override.has_value());

    // Plain add() clears a standing override (the override belongs
    // to the registration).
    registry.setEngineOverride("tiny", nn::PhotoFourierEngineConfig{});
    registry.add("tiny", tinyNet(3));
    EXPECT_FALSE(registry.engineOverride("tiny").has_value());
}

TEST(InferenceServer, ReRegistrationRefreshesWorkerReplicas)
{
    // ROADMAP open item "replica refresh on re-registration": a
    // worker that already cloned a replica must pick up newly
    // registered weights on the next batch, without a restart.
    const auto inputs = tinyInputs(4);
    auto old_proto = tinyNet(/*seed=*/5);
    auto new_proto = tinyNet(/*seed=*/6);
    const auto old_expected = referenceLogits(old_proto, inputs);
    const auto new_expected = referenceLogits(new_proto, inputs);
    ASSERT_NE(old_expected, new_expected);

    serve::ServerConfig cfg;
    cfg.workers = 1; // one worker: the same replica cache serves both
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(old_proto));
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(server.submit("tiny", inputs[i]).logits(),
                  old_expected[i]);

    server.registry().add("tiny", std::move(new_proto));
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(server.submit("tiny", inputs[i]).logits(),
                  new_expected[i]);
}

TEST(InferenceServer, PerModelEngineOverrideWinsOverFactory)
{
    // ROADMAP open item "per-model engine overrides": one server,
    // two models — one on the worker factory's digital engine, one
    // forced onto photonic numerics by its registry override.
    const auto inputs = tinyInputs(3);
    nn::PhotoFourierEngineConfig photonic;
    photonic.n_conv = 64;

    auto digital_expected = referenceLogits(tinyNet(1), inputs);
    nn::Network photonic_reference = tinyNet(1);
    photonic_reference.setConvEngine(
        std::make_shared<nn::PhotoFourierEngine>(photonic));
    std::vector<std::vector<double>> photonic_expected;
    for (const auto &input : inputs)
        photonic_expected.push_back(photonic_reference.logits(input));
    ASSERT_NE(photonic_expected, digital_expected);

    serve::ServerConfig cfg;
    cfg.workers = 2;
    serve::InferenceServer server(cfg);
    server.registry().add("digital", tinyNet(1));
    server.registry().add("photonic", tinyNet(1), photonic);

    for (size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(server.submit("digital", inputs[i]).logits(),
                  digital_expected[i]);
        EXPECT_EQ(server.submit("photonic", inputs[i]).logits(),
                  photonic_expected[i]);
    }

    // Clearing the override (a version bump) reverts live replicas.
    server.registry().setEngineOverride("photonic", std::nullopt);
    for (size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(server.submit("photonic", inputs[i]).logits(),
                  digital_expected[i]);
}

namespace {

/** A pushable request with a controlled enqueue timestamp. */
serve::QueuedRequest
stampedRequest(const std::string &model, serve::Priority priority,
               std::chrono::steady_clock::time_point enqueued)
{
    serve::QueuedRequest request;
    request.model = model;
    request.input = nn::Tensor(1, 1, 1);
    request.completion =
        std::make_shared<serve::detail::CompletionState>();
    request.completion->enqueued = enqueued;
    request.priority = priority;
    return request;
}

} // namespace

TEST(BatchQueue, PriorityNames)
{
    EXPECT_EQ(serve::priorityName(serve::Priority::Interactive),
              "interactive");
    EXPECT_EQ(serve::priorityName(serve::Priority::Batch), "batch");
}

TEST(BatchQueue, InteractiveClassIsServedFirstWithinABatch)
{
    serve::BatchingConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_window = std::chrono::microseconds(0); // dispatchable now
    cfg.priority_aging = std::chrono::seconds(10);   // nobody ages
    serve::BatchQueue queue(cfg);

    const auto now = std::chrono::steady_clock::now();
    using std::chrono::microseconds;
    // Batch-class requests arrive *first* (older)...
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Batch, now - microseconds(400))));
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Batch, now - microseconds(300))));
    // ...then interactive ones.
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Interactive, now - microseconds(200))));
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Interactive, now - microseconds(100))));

    const auto batch = queue.popBatch();
    ASSERT_EQ(batch.size(), 4u);
    // Interactive jumps ahead of older, un-aged batch work.
    EXPECT_EQ(batch[0].priority, serve::Priority::Interactive);
    EXPECT_EQ(batch[1].priority, serve::Priority::Interactive);
    EXPECT_EQ(batch[2].priority, serve::Priority::Batch);
    EXPECT_EQ(batch[3].priority, serve::Priority::Batch);
    // FIFO within each class.
    EXPECT_LT(batch[0].completion->enqueued,
              batch[1].completion->enqueued);
    EXPECT_LT(batch[2].completion->enqueued,
              batch[3].completion->enqueued);
    queue.markDone(batch.size());
}

TEST(BatchQueue, AgedBatchRequestsStopYielding)
{
    serve::BatchingConfig cfg;
    cfg.max_batch = 3;
    cfg.batch_window = std::chrono::microseconds(0);
    cfg.priority_aging = std::chrono::milliseconds(5);
    serve::BatchQueue queue(cfg);

    const auto now = std::chrono::steady_clock::now();
    using std::chrono::milliseconds;
    // A batch-class request older than priority_aging beats younger
    // interactive work — starvation-free aging.
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Batch, now - milliseconds(50))));
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Interactive, now - milliseconds(1))));
    // A *younger-than-aging* batch request still yields.
    ASSERT_TRUE(queue.push(stampedRequest(
        "m", serve::Priority::Batch, now)));

    const auto batch = queue.popBatch();
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].priority, serve::Priority::Batch); // aged
    EXPECT_EQ(batch[1].priority, serve::Priority::Interactive);
    EXPECT_EQ(batch[2].priority, serve::Priority::Batch);
    queue.markDone(batch.size());
}

TEST(InferenceServer, SubmitOptionsCarryPriorityEndToEnd)
{
    // Both classes execute correctly (scheduling differs, results
    // must not): a smoke over the SubmitOptions plumbing.
    auto proto = tinyNet();
    const auto inputs = tinyInputs(6);
    const auto expected = referenceLogits(proto, inputs);

    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.batching.max_batch = 4;
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(proto));

    std::vector<serve::Completion> handles;
    for (size_t i = 0; i < inputs.size(); ++i) {
        serve::SubmitOptions options;
        options.priority = i % 2 == 0 ? serve::Priority::Interactive
                                      : serve::Priority::Batch;
        handles.push_back(server.submit("tiny", inputs[i], options));
    }
    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done);
        EXPECT_EQ(handles[i].logits(), expected[i]);
    }
}

TEST(InferenceServer, BatchedMatchesSequentialDigitalBitExact)
{
    auto proto = tinyNet();
    const auto inputs = tinyInputs(24);
    const auto expected = referenceLogits(proto, inputs);

    serve::ServerConfig cfg;
    cfg.workers = 3;
    cfg.batching.max_batch = 4;
    cfg.batching.batch_window = std::chrono::microseconds(500);
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(proto));

    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));
    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done);
        // Bit-identical, not approximately equal: replicas carry the
        // same weights and the digital engine is deterministic.
        EXPECT_EQ(handles[i].logits(), expected[i]) << "request " << i;
        EXPECT_GT(handles[i].latencyUs(), 0.0);
    }
}

TEST(InferenceServer, PhotonicNoiseDeterministicAcrossWorkerCounts)
{
    // ISSUE acceptance (b): with sensing noise on and a fixed seed,
    // results must not depend on how many workers served the requests
    // (the noise stream is derived per call, not consumed from shared
    // engine state).
    const pf::PhotoFourierAccelerator accel(
        pf::arch::AcceleratorConfig::currentGen());
    const auto inputs = tinyInputs(6);

    serve::BatchingConfig batching;
    batching.max_batch = 2;
    batching.batch_window = std::chrono::microseconds(200);

    auto run = [&](size_t workers) {
        auto cfg = accel.servingConfig(batching, /*with_noise=*/true,
                                       /*snr_db=*/20.0);
        cfg.workers = workers;
        serve::InferenceServer server(cfg);
        server.registry().add("tiny", tinyNet());
        std::vector<serve::Completion> handles;
        for (const auto &input : inputs)
            handles.push_back(server.submit("tiny", input));
        std::vector<std::vector<double>> out;
        for (auto &handle : handles)
            out.push_back(handle.logits());
        return out;
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial, parallel);

    // And the noise is real: a noiseless server disagrees.
    auto clean_cfg = accel.servingConfig(batching, /*with_noise=*/false);
    clean_cfg.workers = 1;
    serve::InferenceServer clean(clean_cfg);
    clean.registry().add("tiny", tinyNet());
    EXPECT_NE(clean.submit("tiny", inputs[0]).logits(), serial[0]);
}

TEST(InferenceServer, QueueFullRejectionAndDrainDeliverExactlyOnce)
{
    // ISSUE acceptance (c): admission rejects beyond capacity, and a
    // graceful drain delivers every accepted request exactly once
    // (double delivery would panic in CompletionState::fulfill).
    auto proto = tinyNet();
    const auto inputs = tinyInputs(16);
    const auto expected = referenceLogits(proto, inputs);

    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.start_workers = false; // fill the queue before serving begins
    cfg.batching.max_batch = 4;
    cfg.batching.queue_capacity = 6;
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(proto));

    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));

    size_t accepted = 0, rejected = 0;
    for (const auto &handle : handles) {
        if (handle.status() == serve::RequestStatus::Rejected) {
            ++rejected;
            EXPECT_FALSE(handle.error().empty());
        } else {
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 6u);
    EXPECT_EQ(rejected, 10u);

    server.start();
    server.drain();

    for (size_t i = 0; i < handles.size(); ++i) {
        if (handles[i].status() == serve::RequestStatus::Rejected)
            continue;
        ASSERT_EQ(handles[i].status(), serve::RequestStatus::Done);
        EXPECT_EQ(handles[i].logits(), expected[i]) << "request " << i;
    }

    const auto report = server.report();
    ASSERT_EQ(report.models.size(), 1u);
    EXPECT_EQ(report.models[0].accepted, 6u);
    EXPECT_EQ(report.models[0].rejected, 10u);
    EXPECT_EQ(report.models[0].completed, 6u);

    // Admission stays closed after drain.
    EXPECT_EQ(server.submit("tiny", inputs[0]).wait(),
              serve::RequestStatus::Rejected);
}

TEST(InferenceServer, ShutdownWithoutStartStillDeliversAccepted)
{
    auto proto = tinyNet();
    const auto inputs = tinyInputs(5);
    const auto expected = referenceLogits(proto, inputs);

    serve::ServerConfig cfg;
    cfg.start_workers = false;
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(proto));

    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));
    server.shutdown(); // inline delivery on the calling thread
    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].status(), serve::RequestStatus::Done);
        EXPECT_EQ(handles[i].logits(), expected[i]);
    }
}

TEST(InferenceServer, UnknownModelFailsImmediately)
{
    serve::InferenceServer server;
    auto handle = server.submit("nope", nn::Tensor(1, 4, 4));
    EXPECT_EQ(handle.status(), serve::RequestStatus::Failed);
    EXPECT_NE(handle.error().find("nope"), std::string::npos);
    // Arbitrary unregistered names must not mint per-model stats rows.
    const auto report = server.report();
    EXPECT_EQ(report.unknown_model_failures, 1u);
    EXPECT_TRUE(report.models.empty());
}

TEST(InferenceServer, FullBatchOvertakesOlderOpenWindow)
{
    // One lone request of model "slow" sits in a long batch window;
    // a full batch of model "fast" arriving later must dispatch
    // immediately instead of waiting behind it.
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.batching.max_batch = 4;
    cfg.batching.batch_window = std::chrono::milliseconds(400);
    serve::InferenceServer server(cfg);
    server.registry().add("slow", tinyNet(1));
    server.registry().add("fast", tinyNet(2));

    const auto inputs = tinyInputs(5);
    auto lone = server.submit("slow", inputs[0]);
    std::vector<serve::Completion> burst;
    for (size_t i = 1; i < 5; ++i)
        burst.push_back(server.submit("fast", inputs[i]));
    for (auto &handle : burst)
        ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    // The full "fast" batch finished while "slow"'s window is still
    // open (a tiny forward takes far less than the 400 ms window).
    EXPECT_EQ(lone.status(), serve::RequestStatus::Pending);
    EXPECT_LT(burst.front().latencyUs(), 400.0 * 1000.0);
    EXPECT_EQ(lone.wait(), serve::RequestStatus::Done);
}

TEST(InferenceServer, WindowTimeoutDispatchesPartialBatches)
{
    // Fewer requests than max_batch: only the batch window can
    // release them.
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.batching.max_batch = 64;
    cfg.batching.batch_window = std::chrono::microseconds(1000);
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", tinyNet());

    const auto inputs = tinyInputs(3);
    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));
    for (auto &handle : handles)
        EXPECT_EQ(handle.wait(), serve::RequestStatus::Done);

    const auto report = server.report();
    ASSERT_EQ(report.models.size(), 1u);
    EXPECT_EQ(report.models[0].completed, 3u);
    EXPECT_GE(report.models[0].batches, 1u);
}

TEST(InferenceServer, ReportPercentilesOrderedAndTableRenders)
{
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.batching.max_batch = 4;
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", tinyNet());

    const auto inputs = tinyInputs(20);
    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));
    for (auto &handle : handles)
        ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);

    const auto report = server.report();
    ASSERT_EQ(report.models.size(), 1u);
    const auto &m = report.models[0];
    EXPECT_EQ(m.completed, 20u);
    EXPECT_GT(m.latency_p50_us, 0.0);
    EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
    EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
    EXPECT_GE(m.mean_batch, 1.0);
    EXPECT_LE(m.mean_batch, 4.0);
    EXPECT_GT(report.throughput_rps, 0.0);
    EXPECT_NE(report.table().find("tiny"), std::string::npos);
    EXPECT_NE(report.table().find("p99_us"), std::string::npos);
}

TEST(InferenceServer, ConcurrentSubmittersTwoModelsStress)
{
    // The TSan workload: multiple submitter threads, two models,
    // concurrent report() polling, then drain. Counts must balance:
    // every submission is exactly one of completed/rejected.
    serve::ServerConfig cfg;
    cfg.workers = 4;
    cfg.batching.max_batch = 4;
    cfg.batching.batch_window = std::chrono::microseconds(200);
    cfg.batching.queue_capacity = 64;
    serve::InferenceServer server(cfg);
    server.registry().add("a", tinyNet(1, 3));
    server.registry().add("b", tinyNet(2, 5));

    constexpr size_t kPerThread = 50;
    std::atomic<uint64_t> done{0}, rejected{0};
    auto submitter = [&](const std::string &model, uint64_t seed) {
        const auto inputs = tinyInputs(kPerThread, seed);
        for (const auto &input : inputs) {
            auto handle = server.submit(model, input);
            const auto status = handle.wait();
            if (status == serve::RequestStatus::Done) {
                done.fetch_add(1);
                EXPECT_EQ(handle.logits().size(),
                          model == "a" ? 3u : 5u);
            } else {
                ASSERT_EQ(status, serve::RequestStatus::Rejected);
                rejected.fetch_add(1);
            }
        }
    };

    std::thread t1(submitter, "a", 11);
    std::thread t2(submitter, "b", 22);
    std::thread poller([&] {
        for (int i = 0; i < 20; ++i)
            (void)server.report();
    });
    t1.join();
    t2.join();
    poller.join();
    server.drain();

    EXPECT_EQ(done.load() + rejected.load(), 2 * kPerThread);
    const auto report = server.report();
    uint64_t completed = 0, admitted = 0;
    for (const auto &m : report.models) {
        completed += m.completed;
        admitted += m.accepted;
        EXPECT_EQ(m.failed, 0u);
    }
    EXPECT_EQ(completed, admitted);
    EXPECT_EQ(completed, done.load());
}

TEST(Facade, EngineConfigMatchesAcceleratorNumerics)
{
    const pf::PhotoFourierAccelerator accel(
        pf::arch::AcceleratorConfig::currentGen());
    const auto engine_cfg = accel.engineConfig();
    EXPECT_EQ(engine_cfg.n_conv, accel.config().n_input_waveguides);
    EXPECT_EQ(engine_cfg.dac_bits, accel.config().dac_bits);
    EXPECT_EQ(engine_cfg.adc_bits, accel.config().adc_bits);
    EXPECT_FALSE(engine_cfg.noise);

    const auto server_cfg = accel.servingConfig();
    ASSERT_TRUE(static_cast<bool>(server_cfg.engine_factory));
    auto engine = server_cfg.engine_factory(0);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "photofourier");
    // Distinct engine instances per worker.
    EXPECT_NE(engine.get(), server_cfg.engine_factory(1).get());
}

// --- Kernel-spectrum cache through the serving stack ---------------------

TEST(ModelRegistry, SpectrumCacheSwapsOnEveryVersionBump)
{
    serve::ModelRegistry registry;
    EXPECT_EQ(registry.spectrumCache("absent"), nullptr);

    registry.add("m", tinyNet());
    const auto v1_cache = registry.spectrumCache("m");
    ASSERT_NE(v1_cache, nullptr);
    EXPECT_EQ(registry.instantiateReplica("m").spectra.get(),
              v1_cache.get())
        << "replicas must share the registration's cache";

    // Re-registration bumps the version and swaps in a fresh cache —
    // new weights can never read spectra transformed from old ones.
    registry.add("m", tinyNet(99));
    const auto v2_cache = registry.spectrumCache("m");
    ASSERT_NE(v2_cache, nullptr);
    EXPECT_NE(v2_cache.get(), v1_cache.get());

    // Engine-override changes are version bumps too.
    nn::PhotoFourierEngineConfig override_cfg;
    registry.setEngineOverride("m", override_cfg);
    EXPECT_NE(registry.spectrumCache("m").get(), v2_cache.get());
}

TEST(InferenceServer, OverrideReplicasPopulateTheSharedCache)
{
    // Force the FFT path so serving traffic populates the registry's
    // cache; 2 workers x many requests must still transform each
    // tiled kernel exactly once (content-addressed shared entries).
    serve::ServerConfig cfg;
    cfg.workers = 2;
    serve::InferenceServer server(cfg);

    nn::PhotoFourierEngineConfig fft_cfg;
    fft_cfg.conv_path = nn::ConvPath::Fft;
    server.registry().add("m", tinyNet(), fft_cfg);
    const auto cache = server.registry().spectrumCache("m");
    ASSERT_NE(cache, nullptr);

    const auto inputs = tinyInputs(24);
    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("m", input));
    for (auto &h : handles)
        ASSERT_EQ(h.wait(), serve::RequestStatus::Done);
    server.shutdown();

    const auto stats = cache->stats();
    EXPECT_GT(stats.entries, 0u) << "serving never reached the cache";
    // Entries are per distinct (kernel, fft size); concurrent first
    // touches may each count a miss, but the steady state is hits.
    EXPECT_GE(stats.misses, stats.entries);
    EXPECT_GT(stats.hits, stats.misses);
}

TEST(InferenceServer, FftPathServesBitExactAcrossWorkerCounts)
{
    // The batched==sequential equivalence, on the forced-FFT engine:
    // worker count and batching must not change a single bit.
    nn::PhotoFourierEngineConfig fft_cfg;
    fft_cfg.conv_path = nn::ConvPath::Fft;
    auto proto = tinyNet();
    proto.setConvEngine(
        std::make_shared<nn::PhotoFourierEngine>(fft_cfg));
    const auto inputs = tinyInputs(16);
    const auto expected = referenceLogits(proto, inputs);

    for (size_t workers : {1u, 3u}) {
        serve::ServerConfig cfg;
        cfg.workers = workers;
        serve::InferenceServer server(cfg);
        server.registry().add("m", proto.clone());
        std::vector<serve::Completion> handles;
        for (const auto &input : inputs)
            handles.push_back(server.submit("m", input));
        for (size_t i = 0; i < handles.size(); ++i) {
            ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done);
            EXPECT_EQ(handles[i].logits(), expected[i])
                << "workers=" << workers << " request=" << i;
        }
        server.shutdown();
    }
}

TEST(KernelSpectrumCacheTsan, ConcurrentSharedReadsAndInserts)
{
    // Aimed at the TSan CI job: many threads hammering one cache with
    // a mix of repeated (hit path, shared lock) and fresh (miss path,
    // unique lock) kernels, while readers use the returned spectra.
    pf::tiling::KernelSpectrumCache cache;
    pf::Rng seed_rng(404);
    std::vector<std::vector<double>> kernels;
    for (size_t i = 0; i < 8; ++i)
        kernels.push_back(seed_rng.uniformVector(33, -1.0, 1.0));

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (size_t round = 0; round < 50; ++round) {
                const auto &k = kernels[(t + round) % kernels.size()];
                const auto spec = cache.correlationSpectrum(k, 128);
                if (spec->size() != 65)
                    failures.fetch_add(1);
                // A fresh kernel every few rounds exercises insertion
                // racing the shared-lock readers.
                if (round % 9 == 0) {
                    auto fresh = k;
                    fresh[0] += static_cast<double>(t * 1000 + round);
                    (void)cache.correlationSpectrum(fresh, 128);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(InferenceServer, FusedBatchesAreCountedAndBitIdenticalWithNoise)
{
    // The fused micro-batch path: a dequeued batch of N > 1 runs as
    // one Network::logitsBatch call. Results must be bit-identical to
    // solo Network::logits — including photonic sensing noise, whose
    // stream derives from (seed, activations, weights), never from
    // batch position — and every fused dispatch must tick
    // pf_serve_fused_batch_total.
    nn::PhotoFourierEngineConfig ecfg;
    ecfg.n_conv = 64;
    ecfg.noise = true;
    ecfg.snr_db = 20.0;
    ecfg.noise_seed = 5;
    auto proto = tinyNet();
    proto.setConvEngine(std::make_shared<nn::PhotoFourierEngine>(ecfg));

    const auto inputs = tinyInputs(6);
    const auto expected = referenceLogits(proto, inputs);

    // start_workers = false: all submissions queue first, shutdown()
    // delivers inline — so the batches are full (max_batch, then the
    // remainder) and deterministically fused.
    obs::MetricsRegistry reg;
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.start_workers = false;
    cfg.batching.max_batch = 4;
    cfg.metrics = &reg;
    serve::InferenceServer server(cfg);
    server.registry().add("tiny", std::move(proto));

    std::vector<serve::Completion> handles;
    for (const auto &input : inputs)
        handles.push_back(server.submit("tiny", input));
    server.shutdown();

    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done);
        EXPECT_EQ(handles[i].logits(), expected[i])
            << "fused request " << i
            << " diverged from the solo path";
    }
    // 6 requests at max_batch 4 -> two dequeues, both of size > 1.
    EXPECT_GE(reg.counter("pf_serve_fused_batch_total").value(), 2u);
    EXPECT_EQ(reg.counter("pf_serve_completed_total").value(), 6u);
}

TEST(InferenceServer, CacheGaugesCountFactoryEngineCachesOnce)
{
    // Engines made by an EngineFactory keep their own kernel-spectrum
    // cache (the accelerator's serving config shares one across every
    // worker). The pf_cache_* gauges must see it, and count it once
    // however many workers share it.
    auto spectra = std::make_shared<pf::tiling::KernelSpectrumCache>();
    obs::MetricsRegistry reg;
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.metrics = &reg;
    cfg.engine_factory = [spectra](size_t) {
        return std::make_shared<nn::DirectEngine>(spectra,
                                                  nn::ConvPath::Fft);
    };
    serve::InferenceServer server(cfg);
    server.registry().add("m", tinyNet());

    std::vector<serve::Completion> handles;
    for (const auto &input : tinyInputs(16))
        handles.push_back(server.submit("m", input));
    for (auto &h : handles)
        ASSERT_EQ(h.wait(), serve::RequestStatus::Done);
    server.shutdown();

    const auto stats = spectra->stats();
    ASSERT_GT(stats.hits, 0u) << "serving never reached the cache";
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_GT(snap.gaugeValue("pf_cache_kernel_hits"), 0.0);
    // The registry's own cache for "m" saw no traffic, so the gauges
    // are exactly the shared factory cache, counted once.
    EXPECT_EQ(snap.gaugeValue("pf_cache_kernel_hits"),
              static_cast<double>(stats.hits));
    EXPECT_EQ(snap.gaugeValue("pf_cache_kernel_entries"),
              static_cast<double>(stats.entries));
}
