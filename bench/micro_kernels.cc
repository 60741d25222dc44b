/**
 * @file
 * Google-benchmark microbenchmarks for the computational kernels the
 * simulator is built on: FFTs (radix-2 and Bluestein), the field-level
 * JTC evaluation, direct vs FFT 1D convolution, and row-tiled 2D
 * convolution on both backends.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/simd.hh"
#include "common/build_info.hh"
#include "common/rng.hh"
#include "fourier4f/system4f.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "jtc/jtc_system.hh"
#include "nn/conv_engine.hh"
#include "signal/convolution.hh"
#include "signal/fft.hh"
#include "signal/fft2d.hh"
#include "signal/fft2d_plan.hh"
#include "signal/fft_plan.hh"
#include "tiling/spectrum_cache.hh"
#include "tiling/tiled_convolution.hh"

namespace pf = photofourier;
namespace sig = photofourier::signal;
namespace jtc = photofourier::jtc;
namespace tl = photofourier::tiling;

namespace {

sig::ComplexVector
randomComplex(size_t n)
{
    pf::Rng rng(n);
    sig::ComplexVector v(n);
    for (auto &c : v)
        c = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return v;
}

} // namespace

static void
BM_FftRadix2(benchmark::State &state)
{
    auto data = randomComplex(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        auto copy = data;
        sig::fftRadix2(copy, false);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftRadix2)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

static void
BM_FftBluestein(benchmark::State &state)
{
    // Non-power-of-two sizes exercise the chirp-z path.
    auto data = randomComplex(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        auto out = sig::fft(data);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FftBluestein)->Arg(63)->Arg(257)->Arg(1000)->Arg(4093);

// --- Plan cache: repeated same-size FFTs with a cached plan vs paying
// --- plan construction (twiddle tables, chirp spectra) on every call,
// --- and vs the pre-plan seed algorithms (per-call twiddle recurrence,
// --- three-FFT Bluestein). The ratios are the plan-cache speedup
// --- recorded in BENCH_micro.json.

namespace seed_baseline {

// The repository's original fftRadix2: no tables, twiddles generated
// by a per-stage recurrence on every call. Kept here (bench-local)
// as the fixed baseline the plan path is measured against.
void
fftRadix2(sig::ComplexVector &data, bool inverse)
{
    const size_t n = data.size();
    for (size_t i = 1, j = 0; i < n; ++i) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }
    for (size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
        const sig::Complex wlen(std::cos(angle), std::sin(angle));
        for (size_t i = 0; i < n; i += len) {
            sig::Complex w(1.0, 0.0);
            for (size_t k = 0; k < len / 2; ++k) {
                const sig::Complex u = data[i + k];
                const sig::Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &value : data)
            value *= scale;
    }
}

// The original Bluestein: chirp rebuilt and three full-size FFTs run
// on every call (the plan precomputes the chirp spectra, leaving two).
sig::ComplexVector
bluestein(const sig::ComplexVector &input)
{
    const size_t n = input.size();
    sig::ComplexVector chirp(n);
    for (size_t k = 0; k < n; ++k) {
        const uintmax_t k2 =
            (static_cast<uintmax_t>(k) * k) % (2 * static_cast<uintmax_t>(n));
        const double angle =
            -M_PI * static_cast<double>(k2) / static_cast<double>(n);
        chirp[k] = sig::Complex(std::cos(angle), std::sin(angle));
    }
    const size_t m = sig::nextPowerOfTwo(2 * n - 1);
    sig::ComplexVector a(m, sig::Complex(0.0, 0.0));
    sig::ComplexVector b(m, sig::Complex(0.0, 0.0));
    for (size_t k = 0; k < n; ++k)
        a[k] = input[k] * chirp[k];
    b[0] = std::conj(chirp[0]);
    for (size_t k = 1; k < n; ++k)
        b[k] = b[m - k] = std::conj(chirp[k]);
    fftRadix2(a, false);
    fftRadix2(b, false);
    for (size_t k = 0; k < m; ++k)
        a[k] *= b[k];
    fftRadix2(a, true);
    sig::ComplexVector out(n);
    for (size_t k = 0; k < n; ++k)
        out[k] = a[k] * chirp[k];
    return out;
}

} // namespace seed_baseline

static void
BM_FftSeedRadix2(benchmark::State &state)
{
    const auto input = randomComplex(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        auto copy = input;
        seed_baseline::fftRadix2(copy, false);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftSeedRadix2)->Arg(256)->Arg(1024)->Arg(4096);

static void
BM_FftSeedBluestein(benchmark::State &state)
{
    const auto input = randomComplex(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        auto out = seed_baseline::bluestein(input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FftSeedBluestein)->Arg(1000)->Arg(4093);

static void
BM_FftPlanCached(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const auto input = randomComplex(n);
    const auto plan = sig::fftPlanFor(n);
    for (auto _ : state) {
        auto copy = input;
        plan->execute(copy, false);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftPlanCached)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(4093);

static void
BM_FftPlanConstructEachCall(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const auto input = randomComplex(n);
    for (auto _ : state) {
        sig::FftPlan plan(n);
        auto copy = input;
        plan.execute(copy, false);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftPlanConstructEachCall)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(4093);

// --- batchFft scaling: 64 rows of 1024 fanned across the worker pool.
// --- Thread counts 1/2/4 chart the scaling curve (bounded by the
// --- machine's available cores).

static void
BM_BatchFft(benchmark::State &state)
{
    const size_t threads = static_cast<size_t>(state.range(0));
    const size_t batch = 64, n = 1024;
    const auto input = randomComplex(batch * n);
    for (auto _ : state) {
        auto copy = input;
        sig::batchFft(copy.data(), batch, n, false, threads);
        benchmark::DoNotOptimize(copy.data());
    }
    state.counters["threads"] =
        static_cast<double>(std::min<size_t>(threads, batch));
}
BENCHMARK(BM_BatchFft)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

static void
BM_Convolve1dDirect(benchmark::State &state)
{
    pf::Rng rng(1);
    const auto a =
        rng.uniformVector(static_cast<size_t>(state.range(0)), -1, 1);
    const auto b = rng.uniformVector(25, -1, 1);
    for (auto _ : state) {
        auto out = sig::convolve1d(a, b);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Convolve1dDirect)->Arg(256)->Arg(1024)->Arg(4096);

static void
BM_Convolve1dFft(benchmark::State &state)
{
    pf::Rng rng(2);
    const auto a =
        rng.uniformVector(static_cast<size_t>(state.range(0)), -1, 1);
    const auto b = rng.uniformVector(25, -1, 1);
    for (auto _ : state) {
        auto out = sig::convolve1dFft(a, b);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Convolve1dFft)->Arg(256)->Arg(1024)->Arg(4096);

static void
BM_JtcCorrelationWindow(benchmark::State &state)
{
    pf::Rng rng(3);
    const auto s =
        rng.uniformVector(static_cast<size_t>(state.range(0)), 0, 1);
    const auto k = rng.uniformVector(67, 0, 0.3);
    jtc::JtcSystem optics;
    for (auto _ : state) {
        auto out = optics.correlationWindow(s, k, s.size());
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_JtcCorrelationWindow)->Arg(64)->Arg(256)->Arg(512);

static void
BM_TiledConv2dCpu(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(4);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::cpuBackend());
    for (auto _ : state) {
        auto out = conv.execute(input, kernel);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dCpu)->Arg(14)->Arg(28)->Arg(56);

static void
BM_TiledConv2dOptical(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(5);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, 0, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::jtcBackend());
    for (auto _ : state) {
        auto out = conv.execute(input, kernel);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dOptical)->Arg(14)->Arg(28);

static void
BM_Conv2dDirectReference(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(6);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    for (auto _ : state) {
        auto out = sig::conv2d(input, kernel, sig::ConvMode::Same);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_Conv2dDirectReference)->Arg(14)->Arg(28)->Arg(56);

// --- Real-FFT path: r2c/c2r vs the full complex transform, and the
// --- seed complex-FFT convolution vs the real-path rewrite. The
// --- RealVsComplex ratio is the two-for-one packing; the Convolve1d
// --- ratio is what convolve1dFft gained end to end.

static void
BM_FftRealR2C(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(7);
    const auto input = rng.uniformVector(n, -1.0, 1.0);
    const auto plan = sig::fftPlanFor(n);
    sig::ComplexVector half(plan->halfSpectrumSize());
    for (auto _ : state) {
        plan->executeReal(input.data(), half.data());
        benchmark::DoNotOptimize(half.data());
    }
}
BENCHMARK(BM_FftRealR2C)->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000);

static void
BM_FftRealOnComplexPlan(benchmark::State &state)
{
    // The pre-r2c way to transform real data: zero imaginary parts and
    // run the full complex plan (what signal::fftReal used to do).
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(7);
    const auto input = rng.uniformVector(n, -1.0, 1.0);
    const auto plan = sig::fftPlanFor(n);
    sig::ComplexVector data(n);
    for (auto _ : state) {
        for (size_t i = 0; i < n; ++i)
            data[i] = sig::Complex(input[i], 0.0);
        plan->execute(data, false);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_FftRealOnComplexPlan)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000);

static void
BM_Convolve1dFftSeedComplex(benchmark::State &state)
{
    // The seed implementation of convolve1dFft: three full complex
    // power-of-two FFTs per call (kept bench-local as the fixed
    // baseline the real-path rewrite is measured against).
    pf::Rng rng(2);
    const auto a =
        rng.uniformVector(static_cast<size_t>(state.range(0)), -1, 1);
    const auto b = rng.uniformVector(25, -1, 1);
    for (auto _ : state) {
        const size_t out_size = a.size() + b.size() - 1;
        const size_t n = sig::nextPowerOfTwo(out_size);
        sig::ComplexVector fa(n, sig::Complex(0.0, 0.0));
        sig::ComplexVector fb(n, sig::Complex(0.0, 0.0));
        for (size_t i = 0; i < a.size(); ++i)
            fa[i] = sig::Complex(a[i], 0.0);
        for (size_t i = 0; i < b.size(); ++i)
            fb[i] = sig::Complex(b[i], 0.0);
        sig::fftRadix2(fa, false);
        sig::fftRadix2(fb, false);
        for (size_t i = 0; i < n; ++i)
            fa[i] *= fb[i];
        sig::fftRadix2(fa, true);
        std::vector<double> out(out_size);
        for (size_t i = 0; i < out_size; ++i)
            out[i] = fa[i].real();
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Convolve1dFftSeedComplex)->Arg(256)->Arg(1024)->Arg(4096);

// --- 1D conv backends: the zero-skip sliding reference vs the FFT
// --- backend (cold = kernel transformed per call, cached = the
// --- serving steady state). Shapes are n_conv=256-class tiled rows
// --- (sparse taps) and dense correlations where the FFT path wins;
// --- the crossover constant in fftConvProfitable was fitted to these.

namespace {

struct BackendShape
{
    size_t n, k, taps, count;
};

/** (input, kernel, window) shapes: {256-row tile with a 3x3 tiled
 *  kernel (9 active taps)}, {dense 25-tap conv}, {dense mid}, {dense
 *  large} — spanning both sides of the crossover. */
const BackendShape kBackendShapes[] = {
    {256, 67, 9, 192},     // CIFAR-scale tiled row (sparse)
    {256, 25, 25, 232},    // dense 25-tap, n_conv=256 row
    {1024, 129, 129, 896},  // dense mid
    {4096, 511, 511, 3586}, // dense large
};

void
backendArgs(benchmark::internal::Benchmark *bench)
{
    for (int i = 0; i < 4; ++i)
        bench->Arg(i);
}

std::pair<std::vector<double>, std::vector<double>>
backendOperands(const BackendShape &shape)
{
    pf::Rng rng(shape.n * 31 + shape.k);
    auto input = rng.uniformVector(shape.n, -1.0, 1.0);
    std::vector<double> kernel(shape.k, 0.0);
    // First `taps` positions spread across the kernel are active —
    // mimics tiled kernels' zero spacing when taps < k.
    const size_t stride = shape.k / shape.taps;
    for (size_t t = 0; t < shape.taps; ++t)
        kernel[std::min(shape.k - 1, t * std::max<size_t>(1, stride))] =
            rng.uniform(-1.0, 1.0);
    return {std::move(input), std::move(kernel)};
}

} // namespace

static void
BM_Conv1dBackendCpu(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto backend = tl::cpuBackend();
    std::vector<double> out;
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendCpu)->Apply(backendArgs);

static void
BM_Conv1dBackendFftCold(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto backend = tl::fftBackend(); // no cache: kernel FFT every call
    std::vector<double> out;
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendFftCold)->Apply(backendArgs);

static void
BM_Conv1dBackendFftCached(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto cache = std::make_shared<tl::KernelSpectrumCache>();
    auto backend = tl::fftBackend(cache);
    std::vector<double> out;
    backend(input, kernel, 0, shape.count, out); // warm the cache
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendFftCached)->Apply(backendArgs);

// --- Tiled 2D convolution on the FFT backend (vs BM_TiledConv2dCpu
// --- above) and through the workspace API (vs the returning overload)
// --- at a large-kernel geometry where the FFT side of the crossover
// --- is exercised.

static void
BM_TiledConv2dFftLargeKernel(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(8);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(13, 13);
    kernel.data = rng.uniformVector(169, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 13,
                            .n_conv = 4096};
    auto cache = std::make_shared<tl::KernelSpectrumCache>();
    tl::TiledConvolution conv(params, tl::fftBackend(cache), 1);
    sig::Matrix out;
    tl::ConvWorkspace ws;
    for (auto _ : state) {
        conv.execute(input, kernel, out, ws);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dFftLargeKernel)->Arg(56)->Arg(112);

static void
BM_TiledConv2dCpuLargeKernel(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(8);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(13, 13);
    kernel.data = rng.uniformVector(169, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 13,
                            .n_conv = 4096};
    tl::TiledConvolution conv(params, tl::cpuBackend(), 1);
    sig::Matrix out;
    tl::ConvWorkspace ws;
    for (auto _ : state) {
        conv.execute(input, kernel, out, ws);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dCpuLargeKernel)->Arg(56)->Arg(112);

static void
BM_TiledConv2dWorkspaceApi(benchmark::State &state)
{
    // The allocation-free executor path the serving workers run:
    // caller-provided output + workspace, sequential tiles.
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(4);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::cpuBackend(), 1);
    sig::Matrix out;
    tl::ConvWorkspace ws;
    for (auto _ : state) {
        conv.execute(input, kernel, out, ws);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dWorkspaceApi)->Arg(14)->Arg(28)->Arg(56);

// --- DirectEngine conv layers: the sliding window vs the frequency-
// --- domain row path with cached kernel-row spectra (large kernels
// --- are where the row path wins; Auto picks per geometry).

namespace {

void
engineLayerBench(benchmark::State &state, pf::nn::ConvPath path)
{
    const size_t k = static_cast<size_t>(state.range(0));
    pf::Rng rng(9);
    pf::nn::Tensor input(8, 32, 32);
    input.data() = rng.uniformVector(8 * 32 * 32, 0.0, 1.0);
    std::vector<pf::nn::Tensor> weights;
    for (size_t oc = 0; oc < 8; ++oc) {
        pf::nn::Tensor w(8, k, k);
        w.data() = rng.uniformVector(8 * k * k, -0.3, 0.3);
        weights.push_back(std::move(w));
    }
    const std::vector<double> bias(8, 0.1);
    pf::nn::DirectEngine engine(nullptr, path);
    // Populate the spectrum cache outside the timed loop (the serving
    // steady state; cold spectra are a per-registration one-off).
    auto warm = engine.convolve(input, weights, bias, 1,
                                sig::ConvMode::Same);
    benchmark::DoNotOptimize(warm.data().data());
    for (auto _ : state) {
        auto out = engine.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
        benchmark::DoNotOptimize(out.data().data());
    }
}

} // namespace

static void
BM_DirectEngineSliding(benchmark::State &state)
{
    engineLayerBench(state, pf::nn::ConvPath::Direct);
}
BENCHMARK(BM_DirectEngineSliding)->Arg(3)->Arg(7)->Arg(13);

static void
BM_DirectEngineFftRows(benchmark::State &state)
{
    engineLayerBench(state, pf::nn::ConvPath::Fft);
}
BENCHMARK(BM_DirectEngineFftRows)->Arg(3)->Arg(7)->Arg(13);

// --- 2D transforms: the seed complex path (full complex plane, two
// --- allocating transposes) vs the real half-spectrum path, and the
// --- allocation-free plan Into form — the optical comparators' hot
// --- loop. BM_Fft2dRealInto vs BM_Fft2dComplex is the recorded
// --- optical fast-path speedup.

static void
BM_Fft2dComplex(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(10);
    sig::Matrix m(n, n);
    m.data = rng.uniformVector(n * n, -1.0, 1.0);
    const auto field = sig::toComplex(m);
    for (auto _ : state) {
        auto out = sig::fft2d(field);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_Fft2dComplex)->Arg(28)->Arg(64)->Arg(256);

static void
BM_Fft2dReal(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(10);
    sig::Matrix m(n, n);
    m.data = rng.uniformVector(n * n, -1.0, 1.0);
    for (auto _ : state) {
        auto half = sig::forward2dReal(m);
        benchmark::DoNotOptimize(half.data.data());
    }
}
BENCHMARK(BM_Fft2dReal)->Arg(28)->Arg(64)->Arg(256);

static void
BM_Fft2dRealInto(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(10);
    sig::Matrix m(n, n);
    m.data = rng.uniformVector(n * n, -1.0, 1.0);
    const auto plan = sig::fft2dPlanFor(n, n);
    sig::ComplexMatrix half;
    plan->forwardRealInto(m, half); // warm plan tables + scratch
    for (auto _ : state) {
        plan->forwardRealInto(m, half);
        benchmark::DoNotOptimize(half.data.data());
    }
}
BENCHMARK(BM_Fft2dRealInto)->Arg(28)->Arg(64)->Arg(256);

// --- Optical comparators, serving steady state: the static operand
// --- (programmed 4F filter / JTC joint-plane kernel field) comes out
// --- of a warm spectrum cache and only the activations move.

static void
BM_System4fCached(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(11);
    sig::Matrix image(n, n);
    image.data = rng.uniformVector(n * n, 0.0, 1.0);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    pf::fourier4f::System4f system;
    sig::Matrix out;
    system.apply(image, kernel, out); // program the filter once
    for (auto _ : state) {
        system.apply(image, kernel, out);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_System4fCached)->Arg(14)->Arg(28)->Arg(56);

static void
BM_JtcCorrelateCached(benchmark::State &state)
{
    // Same geometry as BM_JtcCorrelationWindow (256-sample tiled row,
    // 67-sample tiled kernel); the delta against it is the cached
    // kernel field + r2c path.
    pf::Rng rng(3);
    const auto s =
        rng.uniformVector(static_cast<size_t>(state.range(0)), 0, 1);
    const auto k = rng.uniformVector(67, 0, 0.3);
    jtc::JtcSystem optics;
    std::vector<double> out;
    optics.correlationWindowInto(s, k, s.size(), 0, out); // warm
    for (auto _ : state) {
        optics.correlationWindowInto(s, k, s.size(), 0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_JtcCorrelateCached)->Arg(64)->Arg(256)->Arg(512);

// --- Batched optics (ROADMAP item 2): k planes/kernels fused into one
// --- Fourier pass. The Arg is k and items = planes (or kernels, or
// --- requests), so items_per_second is per-kernel throughput — compare
// --- each row against its own k=1 row for the amortization factor.

static void
BM_Fft2dRealBatch(benchmark::State &state)
{
    const size_t k = static_cast<size_t>(state.range(0));
    const size_t n = 32;
    pf::Rng rng(12);
    const auto planes = rng.uniformVector(k * n * n, -1.0, 1.0);
    const auto plan = sig::fft2dPlanFor(n, n);
    sig::ComplexVector half(k * n * plan->halfCols());
    plan->forwardRealBatchInto(planes.data(), k, half.data()); // warm
    for (auto _ : state) {
        plan->forwardRealBatchInto(planes.data(), k, half.data());
        benchmark::DoNotOptimize(half.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * k));
}
BENCHMARK(BM_Fft2dRealBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void
BM_System4fTiled(benchmark::State &state)
{
    // One input-lens pass + one cached filter-bank entry for all k
    // kernels of a conv layer (32x32 activations, 5x5 kernels).
    const size_t k = static_cast<size_t>(state.range(0));
    const size_t n = 32;
    pf::Rng rng(13);
    sig::Matrix image(n, n);
    image.data = rng.uniformVector(n * n, 0.0, 1.0);
    std::vector<sig::Matrix> kernels(k, sig::Matrix(5, 5));
    for (auto &kern : kernels)
        kern.data = rng.uniformVector(25, -0.3, 0.3);
    pf::fourier4f::System4f system;
    std::vector<sig::Matrix> outs;
    system.applyBatchInto(image, kernels, outs); // program the bank
    for (auto _ : state) {
        system.applyBatchInto(image, kernels, outs);
        benchmark::DoNotOptimize(outs.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * k));
}
BENCHMARK(BM_System4fTiled)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void
BM_JtcBatchedCorrelate(benchmark::State &state)
{
    // k kernels tiled into ONE joint plane (guard-banded designBatch
    // layout): one r2c + |.|^2 + c2r serves every kernel's window.
    // 16-tap kernels on a 256-sample row keep the tiled plane inside
    // the same pow2 envelope as the per-kernel planes — the regime
    // where tiling wins (long kernels round the plane up; see the
    // layout notes in jtc_system.hh).
    const size_t k = static_cast<size_t>(state.range(0));
    pf::Rng rng(14);
    const auto s = rng.uniformVector(256, 0.0, 1.0);
    std::vector<std::vector<double>> kernels;
    for (size_t j = 0; j < k; ++j)
        kernels.push_back(rng.uniformVector(16, 0.0, 0.3));
    jtc::JtcSystem optics;
    std::vector<double> out;
    optics.correlationWindowBatchInto(s, kernels, s.size(), 0, out);
    for (auto _ : state) {
        optics.correlationWindowBatchInto(s, kernels, s.size(), 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * k));
}
BENCHMARK(BM_JtcBatchedCorrelate)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void
BM_ConvEngineBatch(benchmark::State &state)
{
    // N same-shape requests through one convolveBatch call (the fused
    // serving path): per-layer weight prep and kernel-spectrum fetches
    // happen once for the whole micro-batch.
    const size_t batch = static_cast<size_t>(state.range(0));
    pf::Rng rng(15);
    std::vector<pf::nn::Tensor> inputs;
    for (size_t b = 0; b < batch; ++b) {
        pf::nn::Tensor t(8, 32, 32);
        t.data() = rng.uniformVector(8 * 32 * 32, 0.0, 1.0);
        inputs.push_back(std::move(t));
    }
    std::vector<pf::nn::Tensor> weights;
    for (size_t oc = 0; oc < 8; ++oc) {
        pf::nn::Tensor w(8, 7, 7);
        w.data() = rng.uniformVector(8 * 7 * 7, -0.3, 0.3);
        weights.push_back(std::move(w));
    }
    const std::vector<double> bias(8, 0.1);
    pf::nn::DirectEngine engine(nullptr, pf::nn::ConvPath::Fft);
    auto warm = engine.convolveBatch(inputs, weights, bias, 1,
                                     sig::ConvMode::Same);
    benchmark::DoNotOptimize(warm.data());
    for (auto _ : state) {
        auto outs = engine.convolveBatch(inputs, weights, bias, 1,
                                         sig::ConvMode::Same);
        benchmark::DoNotOptimize(outs.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_ConvEngineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- observability hot paths: the acceptance bar is that recording a
// metric or span costs a vanishing fraction of a DirectEngine-class
// workload (microseconds), so serve-path instrumentation stays on in
// production. Compare against BM_DirectConv/BM_DirectEngine rows.

static void
BM_ObsCounterInc(benchmark::State &state)
{
    pf::obs::MetricsRegistry registry;
    pf::obs::Counter &counter = registry.counter("bench_events_total");
    for (auto _ : state) {
        counter.inc();
        benchmark::DoNotOptimize(&counter);
    }
}
BENCHMARK(BM_ObsCounterInc);

static void
BM_ObsHistogramRecord(benchmark::State &state)
{
    pf::obs::MetricsRegistry registry;
    pf::obs::HistogramMetric &hist =
        registry.histogram("bench_latency_us");
    double v = 1.0;
    for (auto _ : state) {
        hist.record(v);
        v = v < 1e6 ? v * 1.1 : 1.0; // walk the buckets, no allocs
        benchmark::DoNotOptimize(&hist);
    }
}
BENCHMARK(BM_ObsHistogramRecord);

static void
BM_ObsSpanInactive(benchmark::State &state)
{
    // No TraceBinding on this thread: the untraced fast path every
    // request without a trace id takes through instrumented code.
    for (auto _ : state) {
        pf::obs::ScopedSpan span("bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanInactive);

static void
BM_ObsSpanActive(benchmark::State &state)
{
    pf::obs::TraceSink sink(4096);
    pf::obs::TraceBinding binding(0x5eed, &sink);
    for (auto _ : state) {
        pf::obs::ScopedSpan span("bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanActive);

static void
BM_ObsLogEvent(benchmark::State &state)
{
    // The per-event record path every pf_inform/pf_warn takes after
    // its message is built: stamp time and trace id, copy the message
    // into a fixed-size slot of the ring, bump the severity counter.
    pf::obs::LogSink sink(4096);
    for (auto _ : state) {
        pf::obs::logEvent(pf::LogSeverity::Info, "benchmark log event",
                          &sink);
        benchmark::DoNotOptimize(&sink);
    }
}
BENCHMARK(BM_ObsLogEvent);

// --- SIMD kernel families, scalar vs best-supported dispatch level.
// --- Each pair times the same dispatched kernel table entry with the
// --- level forced, so the ratio BM_XScalar / BM_XVector is the pure
// --- vectorization speedup for that family on this machine (on a
// --- host with no vector ISA both legs resolve to the scalar table
// --- and the ratio is ~1). The recorded simd_level context says
// --- which case a JSON file captured.

namespace {

/** Forces a dispatch level for the lifetime of one benchmark body and
 *  restores the previous level on exit, so row order cannot leak one
 *  row's level into another's. */
class ScopedSimdLevel {
  public:
    explicit ScopedSimdLevel(pf::simd::Level lvl)
        : prev_(pf::simd::activeLevel())
    {
        pf::simd::forceLevel(lvl);
    }
    ~ScopedSimdLevel() { pf::simd::forceLevel(prev_); }
    ScopedSimdLevel(const ScopedSimdLevel &) = delete;
    ScopedSimdLevel &operator=(const ScopedSimdLevel &) = delete;

  private:
    pf::simd::Level prev_;
};

pf::simd::Level
benchLevel(bool scalar)
{
    return scalar ? pf::simd::Level::Scalar
                  : pf::simd::bestSupportedLevel();
}

void
butterflyBench(benchmark::State &state, bool scalar)
{
    // Full radix-2 stage sweep over split-complex (SoA) buffers: the
    // exact sequence executeRadix2's vector path issues, minus the
    // bit-reversal and (de)interleave bookends. Twiddles use the
    // plan's pre-splatted layout (stage with half-length h starts at
    // offset h-1).
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(n);
    const std::vector<double> re0 = rng.uniformVector(n, -1.0, 1.0);
    const std::vector<double> im0 = rng.uniformVector(n, -1.0, 1.0);
    std::vector<double> re(n), im(n);
    std::vector<double> twre(n - 1), twim(n - 1);
    for (size_t h = 1; h * 2 <= n; h *= 2)
        for (size_t k = 0; k < h; ++k) {
            const double ang = -M_PI * static_cast<double>(k)
                               / static_cast<double>(h);
            twre[h - 1 + k] = std::cos(ang);
            twim[h - 1 + k] = std::sin(ang);
        }
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        std::copy(re0.begin(), re0.end(), re.begin());
        std::copy(im0.begin(), im0.end(), im.begin());
        for (size_t half = 1; half * 2 <= n; half *= 2)
            kern.butterflyStage(re.data(), im.data(), n, half,
                                twre.data() + (half - 1),
                                twim.data() + (half - 1));
        benchmark::DoNotOptimize(re.data());
        benchmark::DoNotOptimize(im.data());
    }
    state.SetComplexityN(state.range(0));
}

void
realPackBench(benchmark::State &state, bool scalar)
{
    // One forward + one inverse Hermitian untangle at half-length h:
    // the r2c/c2r pack cost of a real transform of size n = 2h.
    // Values are random — the untangle's arithmetic cost does not
    // depend on the data being a real spectrum.
    const size_t h = static_cast<size_t>(state.range(0));
    pf::Rng rng(h);
    const std::vector<double> z = rng.uniformVector(2 * h, -1.0, 1.0);
    const std::vector<double> tw = rng.uniformVector(2 * h, -1.0, 1.0);
    std::vector<double> spec(2 * (h + 1), 0.0);
    std::vector<double> zout(2 * h, 0.0);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.realUntangleForward(z.data(), tw.data(), spec.data(), h);
        kern.realUntangleInverse(spec.data(), tw.data(), zout.data(),
                                 h);
        benchmark::DoNotOptimize(spec.data());
        benchmark::DoNotOptimize(zout.data());
    }
}

void
slidingDotBench(benchmark::State &state, bool scalar)
{
    // Dense 13-tap sliding dot product over the full signal — the
    // DirectEngine row shape (13 is its largest benchmarked kernel
    // width). start=0, count=n covers both edge handling and the
    // vectorized interior.
    const size_t n = static_cast<size_t>(state.range(0));
    const size_t n_taps = 13;
    pf::Rng rng(n);
    const std::vector<double> s = rng.uniformVector(n, -1.0, 1.0);
    const std::vector<double> tap_val =
        rng.uniformVector(n_taps, -1.0, 1.0);
    std::vector<size_t> tap_idx(n_taps);
    for (size_t t = 0; t < n_taps; ++t)
        tap_idx[t] = t;
    std::vector<double> out(n, 0.0);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.slidingDot(s.data(), n, tap_idx.data(), tap_val.data(),
                        n_taps, 0, n, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetComplexityN(state.range(0));
}

void
transposeIntoBench(benchmark::State &state, bool scalar)
{
    // Cache-blocked complex matrix transpose, the fft2d_plan
    // column-pass primitive. n x n square, the plan's common case.
    const size_t n = static_cast<size_t>(state.range(0));
    const auto in = randomComplex(n * n);
    sig::ComplexVector out(n * n);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.transposeComplex(
            reinterpret_cast<const double *>(in.data()), n, n,
            reinterpret_cast<double *>(out.data()));
        benchmark::DoNotOptimize(out.data());
    }
}

} // namespace

static void
BM_ButterflyScalar(benchmark::State &state)
{
    butterflyBench(state, true);
}
BENCHMARK(BM_ButterflyScalar)->Arg(1024)->Arg(4096);

static void
BM_ButterflyVector(benchmark::State &state)
{
    butterflyBench(state, false);
}
BENCHMARK(BM_ButterflyVector)->Arg(1024)->Arg(4096);

static void
BM_FftRealPackScalar(benchmark::State &state)
{
    realPackBench(state, true);
}
BENCHMARK(BM_FftRealPackScalar)->Arg(512)->Arg(2048);

static void
BM_FftRealPackVector(benchmark::State &state)
{
    realPackBench(state, false);
}
BENCHMARK(BM_FftRealPackVector)->Arg(512)->Arg(2048);

static void
BM_SlidingDotScalar(benchmark::State &state)
{
    slidingDotBench(state, true);
}
BENCHMARK(BM_SlidingDotScalar)->Arg(4096)->Arg(16384);

static void
BM_SlidingDotVector(benchmark::State &state)
{
    slidingDotBench(state, false);
}
BENCHMARK(BM_SlidingDotVector)->Arg(4096)->Arg(16384);

static void
BM_TransposeIntoScalar(benchmark::State &state)
{
    transposeIntoBench(state, true);
}
BENCHMARK(BM_TransposeIntoScalar)->Arg(64)->Arg(256);

static void
BM_TransposeIntoVector(benchmark::State &state)
{
    transposeIntoBench(state, false);
}
BENCHMARK(BM_TransposeIntoVector)->Arg(64)->Arg(256);

int
main(int argc, char **argv)
{
    // Stamp the repo's own build type into the JSON context:
    // google-benchmark's "library_build_type" describes the *system
    // benchmark library*, which says nothing about our -O level.
    // bench/run_benches.sh refuses to record debug numbers, and
    // bench/compare_bench.py refuses to diff runs whose provenance
    // (build type, core count, SIMD level, FFT pool size) differs.
    benchmark::AddCustomContext("photofourier_build_type",
                                pf::buildType());
    benchmark::AddCustomContext("photofourier_git_sha", pf::gitSha());
    benchmark::AddCustomContext("photofourier_num_cpus",
                                std::to_string(pf::numCpus()));
    benchmark::AddCustomContext("photofourier_simd_level",
                                pf::simdLevel());
    benchmark::AddCustomContext(
        "photofourier_fft_threads",
        std::to_string(pf::signal::defaultFftThreads()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
