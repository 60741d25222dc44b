/**
 * @file
 * One shard of the sharded serving tier: an InferenceServer behind
 * the cluster wire protocol on a TCP port.
 *
 * Preloads model-zoo networks (so a router can rely on every shard
 * holding the fleet's models without a registration round) and then
 * serves until SIGINT/SIGTERM, printing the per-model serving report
 * on the way out. Additional models can be pushed at runtime with
 * RegisterModel messages (e.g. ClusterClient::registerModel through a
 * router).
 *
 * Usage: cluster_shard [options]
 *   --name NAME      shard identity for placement (default shard-<port>)
 *   --port P         listen port; 0 = ephemeral, printed (default 0)
 *   --models LIST    comma list of zoo families to preload
 *                    (small-vgg | small-alexnet | small-resnet)
 *   --width W        zoo width multiplier            (default 8)
 *   --seed S         zoo weight-init seed            (default 4242)
 *   --workers N      serving worker threads          (default 2)
 *   --max-batch B    micro-batch cap                 (default 8)
 *   --window-us U    batch window in us              (default 2000)
 *   --capacity Q     admission queue capacity        (default 4096)
 *   --photonic       serve on PhotoFourier numerics  (default digital)
 *   --noise          photonic with sensing noise
 *   --slo-queue-p99-us X  override the queue_p99_us SLO threshold
 *                    (smoke tests set it tiny to force `degraded`)
 *
 * With PF_FLIGHT_RECORDER=<path> in the environment the shard arms
 * the crash flight recorder: a pf_fatal, panic, fatal signal, or
 * sanitizer death dumps the last log events + trace spans to <path>,
 * and the graceful shutdown path writes one too (reason=shutdown) so
 * a shard killed externally still leaves a parseable artifact.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cluster/server.hh"
#include "common/logging.hh"
#include "core/photofourier.hh"
#include "obs/log.hh"

using namespace photofourier;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

struct Options
{
    std::string name;
    uint16_t port = 0;
    std::vector<std::string> models;
    size_t width = 8;
    uint64_t seed = 4242;
    size_t workers = 2;
    size_t max_batch = 8;
    long window_us = 2000;
    size_t capacity = 4096;
    bool photonic = false;
    bool noise = false;
    double slo_queue_p99_us = 0.0; ///< 0 = keep the default rule
};

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t next = text.find(',', pos);
        if (next == std::string::npos)
            next = text.size();
        if (next > pos)
            out.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                pf_fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--name")
            opt.name = value();
        else if (arg == "--port")
            opt.port = static_cast<uint16_t>(std::atoi(value().c_str()));
        else if (arg == "--models")
            opt.models = splitList(value());
        else if (arg == "--width")
            opt.width = static_cast<size_t>(std::atol(value().c_str()));
        else if (arg == "--seed")
            opt.seed = static_cast<uint64_t>(
                std::strtoull(value().c_str(), nullptr, 10));
        else if (arg == "--workers")
            opt.workers =
                static_cast<size_t>(std::atol(value().c_str()));
        else if (arg == "--max-batch")
            opt.max_batch =
                static_cast<size_t>(std::atol(value().c_str()));
        else if (arg == "--window-us")
            opt.window_us = std::atol(value().c_str());
        else if (arg == "--capacity")
            opt.capacity =
                static_cast<size_t>(std::atol(value().c_str()));
        else if (arg == "--photonic")
            opt.photonic = true;
        else if (arg == "--noise")
            opt.photonic = opt.noise = true;
        else if (arg == "--slo-queue-p99-us")
            opt.slo_queue_p99_us = std::atof(value().c_str());
        else
            pf_fatal("unknown argument ", arg);
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    // Arm the crash flight recorder before anything can fail.
    const char *recorder_path = std::getenv("PF_FLIGHT_RECORDER");
    if (recorder_path != nullptr && recorder_path[0] != '\0') {
        obs::FlightRecorderConfig recorder;
        recorder.path = recorder_path;
        obs::installFlightRecorder(recorder);
    }

    cluster::ShardServerConfig config;
    config.listen.port = opt.port;
    config.serving.workers = opt.workers;
    config.serving.batching.max_batch = opt.max_batch;
    config.serving.batching.batch_window =
        std::chrono::microseconds(opt.window_us);
    config.serving.batching.queue_capacity = opt.capacity;
    if (opt.photonic) {
        const PhotoFourierAccelerator accel(
            arch::AcceleratorConfig::currentGen());
        auto serving =
            accel.servingConfig(config.serving.batching, opt.noise);
        serving.workers = opt.workers;
        config.serving = serving;
    }
    // Placement identity must be stable and unique across the fleet;
    // default to the port (unique per host) when no --name is given.
    config.name = !opt.name.empty()
                      ? opt.name
                      : "shard-" + std::to_string(opt.port);
    if (opt.slo_queue_p99_us > 0.0) {
        for (auto &rule : config.slo_rules)
            if (rule.name == "queue_p99_us")
                rule.threshold = opt.slo_queue_p99_us;
    }

    cluster::ShardServer shard(std::move(config));

    for (const std::string &family : opt.models) {
        const std::string spec = "zoo:" + family + ":" +
                                 std::to_string(opt.width) + ":" +
                                 std::to_string(opt.seed);
        auto network = cluster::buildModelFromSpec(spec);
        if (!network)
            pf_fatal("unknown model family '", family,
                     "' (small-vgg | small-alexnet | small-resnet)");
        shard.registry().add(family, std::move(*network));
    }

    if (!shard.start())
        pf_fatal("cannot listen on port ", opt.port);
    std::printf("shard %s listening on 127.0.0.1:%u (%zu models, %s)\n",
                shard.backendName().c_str(),
                static_cast<unsigned>(shard.port()),
                shard.registry().size(),
                opt.photonic
                    ? (opt.noise ? "photofourier+noise" : "photofourier")
                    : "direct");
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    shard.stop();
    // Graceful exits leave an artifact too: an externally SIGTERM'd
    // shard should be debuggable from the same file a crash writes.
    if (recorder_path != nullptr && recorder_path[0] != '\0')
        obs::dumpFlightRecorder("shutdown");
    std::printf("%s\n", shard.server().report().table().c_str());
    return 0;
}
