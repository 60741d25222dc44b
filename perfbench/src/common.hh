/**
 * @file
 * Shared pieces of the end-to-end benchmark: the fixed workload
 * inputs (model mix, images, engine configurations), timing and
 * statistics helpers, the in-memory span recorder, and the metric
 * sink that becomes the final JSON line.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/photofourier.hh"

namespace perfbench {

using namespace photofourier;
using Clock = std::chrono::steady_clock;

/** The three zoo models every workload serves, in mix order. */
inline const std::vector<std::string> kModels = {
    "small-alexnet", "small-vgg", "small-resnet"};

/** Zoo width (= class count) and init seed of every model. */
constexpr size_t kZooWidth = 8;
constexpr uint64_t kZooSeed = 4242;

/** "zoo:<family>:<width>:<seed>" for a model of the mix. */
std::string zooSpec(const std::string &model);

/** A freshly built copy of a mix model (weights from kZooSeed). */
nn::Network buildModel(const std::string &model);

/** `n` synthetic-CIFAR images drawn from `seed`. */
std::vector<nn::Tensor> makeImages(uint64_t seed, size_t n);

/** The accelerator whose numerics the photonic workloads run. */
const PhotoFourierAccelerator &accelerator();

/** PhotoFourier digital numerics (8-bit converters), noise optional. */
nn::PhotoFourierEngineConfig photonicConfig(bool noise);

/** The optical-offline engine: photonic numerics on the field JTC. */
nn::PhotoFourierEngineConfig opticalConfig();

/** Seconds since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user + system CPU seconds so far. */
double cpuSeconds();

/** Peak resident set size of the process, MB. */
double peakRssMb();

/** Median of `v` (0 for empty). */
double median(std::vector<double> v);

/** Arithmetic mean (0 for empty). */
double mean(const std::vector<double> &v);

/**
 * The highest whole percentile with at least ten of `n` samples
 * beyond it: floor(100 * (1 - 10 / n)), at most 99 (50, the median,
 * with 20 samples or fewer).
 */
int tailPercentile(size_t n);

/** The `p`-th percentile of `v` (nearest rank). */
double percentile(std::vector<double> v, double p);

/** One recorded span: a timed call into a module's public function. */
struct SpanRec
{
    std::string name;
    int parent = -1; ///< index of the enclosing span, -1 = root
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
};

/**
 * Spans kept in memory during a traced run and written out once at
 * the end, so recording costs a vector push and no I/O. Disabled
 * recorders (untraced runs) record nothing.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (or -1 when disabled). */
    int open(const std::string &name, int parent = -1);

    /** Close the span opened as `index`. */
    void close(int index);

    /** Record a finished span from explicit times. */
    void add(const std::string &name, int parent, Clock::time_point start,
             Clock::time_point end);

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

    size_t size() const { return spans_.size(); }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<SpanRec> spans_;
};

/** RAII span around one call. */
class Span
{
  public:
    Span(SpanRecorder &rec, const std::string &name, int parent = -1)
        : rec_(rec), index_(rec.open(name, parent))
    {
    }
    ~Span() { rec_.close(index_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder &rec_;
    int index_;
};

/** Named metric values (with units) for the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    /** `"metrics": {...}` body, names in insertion order; a value that
     *  is not finite is written as null. */
    std::string json() const;
    /** Names of the metrics whose value is not finite. */
    std::vector<std::string> nonFinite() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Outcome of the correctness checks of one run. */
class Checks
{
  public:
    /** Record a failed check (printed to stderr immediately). */
    void fail(const std::string &what);
    bool ok() const { return failures() == 0; }
    size_t failures() const { return failures_.load(); }

  private:
    std::atomic<size_t> failures_{0};
};

/** Bit-identity of two logit vectors (memcmp, so -0 != +0). */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
