#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "cluster/protocol.hh"

namespace perfbench {

std::string
zooSpec(const std::string &model)
{
    return "zoo:" + model + ":" + std::to_string(kZooWidth) + ":" +
           std::to_string(kZooSeed);
}

nn::Network
buildModel(const std::string &model)
{
    auto net = cluster::buildModelFromSpec(zooSpec(model));
    if (!net) {
        std::fprintf(stderr, "perfbench: unknown model %s\n",
                     model.c_str());
        std::exit(2);
    }
    return std::move(*net);
}

std::vector<nn::Tensor>
makeImages(uint64_t seed, size_t n)
{
    nn::SyntheticCifar generator(nn::SyntheticCifarConfig{}, seed);
    std::vector<nn::Tensor> images;
    for (auto &sample : generator.generate(n))
        images.push_back(std::move(sample.image));
    return images;
}

const PhotoFourierAccelerator &
accelerator()
{
    static const PhotoFourierAccelerator accel(
        arch::AcceleratorConfig::currentGen());
    return accel;
}

nn::PhotoFourierEngineConfig
photonicConfig(bool noise)
{
    return accelerator().engineConfig(noise);
}

nn::PhotoFourierEngineConfig
opticalConfig()
{
    nn::PhotoFourierEngineConfig cfg = photonicConfig(false);
    cfg.optical_backend = true;
    return cfg;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

int
tailPercentile(size_t n)
{
    if (n <= 20)
        return 50;
    const double p = std::floor(100.0 * (1.0 - 10.0 / double(n)));
    return static_cast<int>(std::min(99.0, p));
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

namespace {

uint64_t
toNs(Clock::time_point t)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

} // namespace

int
SpanRecorder::open(const std::string &name, int parent)
{
    if (!enabled_)
        return -1;
    const uint64_t now = toNs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, now, 0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::close(int index)
{
    if (index < 0)
        return;
    const uint64_t now = toNs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRec &span = spans_[static_cast<size_t>(index)];
    span.duration_ns = now - span.start_ns;
}

void
SpanRecorder::add(const std::string &name, int parent,
                  Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, toNs(start), toNs(end) - toNs(start)});
}

bool
SpanRecorder::write(const std::string &path) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                     "\"start_ns\": %llu, \"duration_ns\": %llu}\n",
                     i, s.parent, s.name.c_str(),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.duration_ns));
    }
    return std::fclose(out) == 0;
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    if (!values_.count(name))
        order_.push_back(name);
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < order_.size(); ++i) {
        const auto &[value, unit] = values_.at(order_[i]);
        // %.17g keeps every digit the measurement has.
        if (std::isfinite(value))
            std::snprintf(buf, sizeof(buf), "%.17g", value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        out += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf +
               ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
}

std::vector<std::string>
Metrics::nonFinite() const
{
    std::vector<std::string> out;
    for (const auto &name : order_)
        if (!std::isfinite(values_.at(name).first))
            out.push_back(name);
    return out;
}

void
Checks::fail(const std::string &what)
{
    failures_.fetch_add(1);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

} // namespace perfbench
