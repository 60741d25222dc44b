/**
 * @file
 * Tests for the 2D Fourier substrate and the free-space comparators:
 * 2D FFT correctness, the Fft2dPlan real path vs the complex
 * reference, the 4F convolution engine and its cached filter
 * spectra, Fourier-filter quantization behaviour, the 2D JTC and its
 * cached kernel-plane spectra (including a TSan-stressable shared-
 * cache test), and the Section VIII claims (filter size = input
 * size, complex modulation) in quantified form.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "counting_alloc.hh"

#include "common/rng.hh"
#include "common/stats.hh"
#include "fourier4f/jtc2d.hh"
#include "fourier4f/system4f.hh"
#include "jtc/jtc_system.hh"
#include "signal/fft2d.hh"
#include "signal/fft2d_plan.hh"
#include "tiling/backends.hh"
#include "tiling/tiled_convolution.hh"

namespace pf = photofourier;
namespace sig = photofourier::signal;
namespace f4 = photofourier::fourier4f;
namespace jtc = photofourier::jtc;

namespace {

sig::Matrix
randomMatrix(pf::Rng &rng, size_t rows, size_t cols, double lo = 0.0,
             double hi = 1.0)
{
    sig::Matrix m(rows, cols);
    m.data = rng.uniformVector(rows * cols, lo, hi);
    return m;
}

// ---------------------------------------------------------------------------
// Pre-refactor references: the seed complex-path implementations of
// the optical comparators, kept verbatim (over the complex
// fft2d/ifft2d facade) so the real-path rewrite stays pinned to them.
// ---------------------------------------------------------------------------

sig::Matrix
reference4fConvolve(const f4::System4f &system, const sig::Matrix &image,
                    const sig::Matrix &kernel)
{
    const size_t rows = image.rows + kernel.rows - 1;
    const size_t cols = image.cols + kernel.cols - 1;
    sig::ComplexMatrix field(rows, cols);
    for (size_t r = 0; r < image.rows; ++r)
        for (size_t c = 0; c < image.cols; ++c)
            field.at(r, c) = sig::Complex(image.at(r, c), 0.0);
    auto spectrum = sig::fft2d(field);
    const auto filter = system.programFilter(kernel, rows, cols);
    for (size_t i = 0; i < spectrum.data.size(); ++i)
        spectrum.data[i] *= filter.data[i];
    return sig::realPart(sig::ifft2d(spectrum));
}

sig::Matrix
referenceJtc2dOutputPlane(const sig::Matrix &s, const sig::Matrix &k)
{
    const auto layout =
        f4::Jtc2dLayout::design(s.rows, s.cols, k.rows, k.cols);
    sig::ComplexMatrix plane(layout.plane_rows, layout.plane_cols);
    for (size_t r = 0; r < s.rows; ++r)
        for (size_t c = 0; c < s.cols; ++c)
            plane.at(r, c) = sig::Complex(s.at(r, c), 0.0);
    for (size_t r = 0; r < k.rows; ++r)
        for (size_t c = 0; c < k.cols; ++c)
            plane.at(layout.kernel_row_pos + r, c) =
                sig::Complex(k.at(r, c), 0.0);
    auto spectrum = sig::fft2d(plane);
    for (auto &value : spectrum.data)
        value = sig::Complex(std::norm(value), 0.0);
    return sig::realPart(sig::ifft2d(spectrum));
}

} // namespace

TEST(Fft2d, InverseRecoversInput)
{
    pf::Rng rng(1);
    sig::ComplexMatrix m(6, 10);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto roundtrip = sig::ifft2d(sig::fft2d(m));
    for (size_t i = 0; i < m.data.size(); ++i)
        EXPECT_LT(std::abs(roundtrip.data[i] - m.data[i]), 1e-9);
}

TEST(Fft2d, SeparableAgainstNaiveDft)
{
    // Small 2D DFT vs direct double sum.
    pf::Rng rng(2);
    sig::ComplexMatrix m(4, 5);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto fast = sig::fft2d(m);
    for (size_t kr = 0; kr < 4; ++kr) {
        for (size_t kc = 0; kc < 5; ++kc) {
            sig::Complex acc(0, 0);
            for (size_t r = 0; r < 4; ++r) {
                for (size_t c = 0; c < 5; ++c) {
                    const double angle =
                        -2.0 * M_PI *
                        (static_cast<double>(kr * r) / 4.0 +
                         static_cast<double>(kc * c) / 5.0);
                    acc += m.at(r, c) * sig::Complex(std::cos(angle),
                                                     std::sin(angle));
                }
            }
            EXPECT_LT(std::abs(fast.at(kr, kc) - acc), 1e-9);
        }
    }
}

TEST(Fft2d, ParsevalHolds)
{
    pf::Rng rng(3);
    sig::ComplexMatrix m(8, 12);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto spectrum = sig::fft2d(m);
    double et = 0.0, ef = 0.0;
    for (const auto &v : m.data)
        et += std::norm(v);
    for (const auto &v : spectrum.data)
        ef += std::norm(v);
    EXPECT_NEAR(ef / (8.0 * 12.0), et, 1e-8 * et);
}

TEST(Fft2d, Convolve2dFftMatchesDirectFull)
{
    pf::Rng rng(4);
    const auto a = randomMatrix(rng, 7, 9, -1, 1);
    const auto b = randomMatrix(rng, 3, 4, -1, 1);
    const auto fast = sig::convolve2dFft(a, b);
    ASSERT_EQ(fast.rows, 9u);
    ASSERT_EQ(fast.cols, 12u);
    // Direct full 2D convolution.
    for (size_t r = 0; r < fast.rows; ++r) {
        for (size_t c = 0; c < fast.cols; ++c) {
            double acc = 0.0;
            for (size_t i = 0; i < a.rows; ++i)
                for (size_t j = 0; j < a.cols; ++j) {
                    const long kr = static_cast<long>(r) -
                                    static_cast<long>(i);
                    const long kc = static_cast<long>(c) -
                                    static_cast<long>(j);
                    if (kr >= 0 && kr < static_cast<long>(b.rows) &&
                        kc >= 0 && kc < static_cast<long>(b.cols))
                        acc += a.at(i, j) *
                               b.at(static_cast<size_t>(kr),
                                    static_cast<size_t>(kc));
                }
            EXPECT_NEAR(fast.at(r, c), acc, 1e-9);
        }
    }
}

TEST(System4f, IdealFilterMatchesFftConvolution)
{
    pf::Rng rng(5);
    const auto image = randomMatrix(rng, 12, 12);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    f4::System4f system;
    const auto out = system.convolve(image, kernel);
    const auto ref = sig::convolve2dFft(image, kernel);
    EXPECT_LT(sig::matrixMaxAbsDiff(out, ref), 1e-9);
}

TEST(System4f, FilterIsInputSizedAndComplex)
{
    // Section VIII: "4F systems require filter sizes to match input
    // activation sizes" and complex modulation.
    f4::System4f system;
    const auto filter = system.programFilter(
        sig::Matrix(3, 3), 16, 16);
    EXPECT_EQ(filter.rows, 16u);
    EXPECT_EQ(filter.cols, 16u);
    // A generic 3x3 kernel's spectrum has nonzero imaginary parts.
    pf::Rng rng(6);
    sig::Matrix k(3, 3);
    k.data = rng.uniformVector(9, -1, 1);
    const auto f2 = system.programFilter(k, 16, 16);
    double max_imag = 0.0;
    for (const auto &h : f2.data)
        max_imag = std::max(max_imag, std::abs(h.imag()));
    EXPECT_GT(max_imag, 0.01);
}

TEST(System4f, QuantizedFilterDegradesGracefully)
{
    pf::Rng rng(7);
    const auto image = randomMatrix(rng, 16, 16);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    const auto exact = sig::convolve2dFft(image, kernel);

    double prev = 1e300;
    for (int bits : {4, 6, 8, 10}) {
        f4::System4fConfig cfg;
        cfg.amplitude_bits = bits;
        cfg.phase_bits = bits;
        f4::System4f system(cfg);
        const auto out = system.convolve(image, kernel);
        const double err = pf::relativeRmse(exact.data, out.data);
        EXPECT_LT(err, prev) << bits;
        prev = err;
    }
    // 8-bit amplitude+phase should be within a few percent.
    f4::System4fConfig cfg8;
    cfg8.amplitude_bits = 8;
    cfg8.phase_bits = 8;
    const auto out8 = f4::System4f(cfg8).convolve(image, kernel);
    EXPECT_LT(pf::relativeRmse(exact.data, out8.data), 0.05);
}

TEST(System4f, RequirementsQuantifySectionViii)
{
    // 3x3 kernel on a 32x32 input: the 4F filter needs 1024 complex
    // pixels (2048 DOFs) vs 9 real JTC taps — a ~228x weight
    // bandwidth waste.
    const auto req = f4::System4f::requirements(32, 3);
    EXPECT_EQ(req.modulators, 1024u);
    EXPECT_EQ(req.dofs, 2048u);
    EXPECT_EQ(req.jtc_weight_taps, 9u);
    EXPECT_NEAR(req.bandwidthWasteFactor(), 2048.0 / 9.0, 1e-12);
}

TEST(Jtc2d, LayoutSeparatesTerms)
{
    const auto layout = f4::Jtc2dLayout::design(8, 8, 3, 3);
    const size_t longest = 8;
    EXPECT_GT(layout.kernel_row_pos - (8 - 1), longest - 1);
    EXPECT_GE(layout.plane_rows,
              2 * layout.kernel_row_pos + 2 * 3);
    EXPECT_GE(layout.plane_cols, 8u + 3u);
}

TEST(Jtc2d, CorrelateMatchesConv2dValid)
{
    pf::Rng rng(8);
    for (auto shape : {std::pair<size_t, size_t>{8, 3},
                       std::pair<size_t, size_t>{12, 5},
                       std::pair<size_t, size_t>{9, 1}}) {
        const auto s = randomMatrix(rng, shape.first, shape.first);
        const auto k = randomMatrix(rng, shape.second, shape.second);
        f4::Jtc2d jtc;
        const auto optical = jtc.correlate(s, k);
        const auto ref = sig::conv2d(s, k, sig::ConvMode::Valid);
        ASSERT_EQ(optical.rows, ref.rows);
        ASSERT_EQ(optical.cols, ref.cols);
        EXPECT_LT(sig::matrixMaxAbsDiff(optical, ref), 1e-7)
            << shape.first << "x" << shape.second;
    }
}

TEST(Jtc2d, OnChipRowTilingMatchesFreeSpace2dInValidMode)
{
    // The central cross-validation: the on-chip pipeline (1D lenses +
    // row tiling) computes the same convolution a free-space 2D JTC
    // computes natively.
    pf::Rng rng(9);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3, 0.0, 0.5);

    f4::Jtc2d free_space;
    const auto native_2d = free_space.correlate(s, k);

    pf::tiling::TilingParams params{.input_size = 10, .kernel_size = 3,
                                    .n_conv = 256,
                                    .mode = sig::ConvMode::Valid};
    pf::tiling::TiledConvolution on_chip(params,
                                         pf::tiling::jtcBackend());
    const auto tiled_1d = on_chip.execute(s, k);

    ASSERT_EQ(native_2d.rows, tiled_1d.rows);
    ASSERT_EQ(native_2d.cols, tiled_1d.cols);
    EXPECT_LT(sig::matrixMaxAbsDiff(native_2d, tiled_1d), 1e-7);
}

// ---------------------------------------------------------------------------
// Fft2dPlan: the real path against the complex reference.
// ---------------------------------------------------------------------------

/** Geometries spanning pow2/pow2, even Bluestein, odd Bluestein, odd
 *  columns (half width (c+1)/2), degenerate single row/column. */
const std::pair<size_t, size_t> kRealPathGeometries[] = {
    {8, 8},  {6, 10}, {7, 9},  {12, 15}, {30, 30},
    {1, 16}, {16, 1}, {5, 21}, {9, 16},  {13, 13},
};

TEST(Fft2dPlan, RealForwardMatchesComplexAcrossGeometries)
{
    pf::Rng rng(31);
    for (auto [rows, cols] : kRealPathGeometries) {
        sig::Matrix m(rows, cols);
        m.data = rng.uniformVector(rows * cols, -1.0, 1.0);

        const auto half = sig::forward2dReal(m);
        const auto full = sig::fft2d(sig::toComplex(m));
        ASSERT_EQ(half.rows, rows);
        ASSERT_EQ(half.cols, cols / 2 + 1);

        // Stored bins match the complex transform...
        for (size_t kr = 0; kr < rows; ++kr)
            for (size_t kc = 0; kc < half.cols; ++kc)
                EXPECT_LT(std::abs(half.at(kr, kc) - full.at(kr, kc)),
                          1e-9)
                    << rows << "x" << cols << " bin " << kr << ","
                    << kc;
        // ...and the mirrored bins are recoverable by Hermitian
        // symmetry, so the half representation is lossless.
        for (size_t kr = 0; kr < rows; ++kr)
            for (size_t kc = half.cols; kc < cols; ++kc) {
                const auto mirrored = std::conj(
                    half.at((rows - kr) % rows, cols - kc));
                EXPECT_LT(std::abs(mirrored - full.at(kr, kc)), 1e-9)
                    << rows << "x" << cols << " bin " << kr << ","
                    << kc;
            }
    }
}

TEST(Fft2dPlan, RealInverseRoundTripsAcrossGeometries)
{
    pf::Rng rng(32);
    for (auto [rows, cols] : kRealPathGeometries) {
        sig::Matrix m(rows, cols);
        m.data = rng.uniformVector(rows * cols, -1.0, 1.0);
        const auto roundtrip =
            sig::inverse2dReal(sig::forward2dReal(m), cols);
        ASSERT_EQ(roundtrip.rows, rows);
        ASSERT_EQ(roundtrip.cols, cols);
        EXPECT_LT(sig::matrixMaxAbsDiff(roundtrip, m), 1e-9)
            << rows << "x" << cols;
    }
}

TEST(Fft2dPlan, CircularAutocorrelationMatchesComplexPipeline)
{
    pf::Rng rng(33);
    for (auto [rows, cols] : {std::pair<size_t, size_t>{16, 16},
                              {12, 10}, {9, 15}}) {
        sig::Matrix plane(rows, cols);
        plane.data = rng.uniformVector(rows * cols, 0.0, 1.0);

        const auto plan = sig::fft2dPlanFor(rows, cols);
        sig::Matrix fast;
        plan->circularAutocorrelationInto(plane, fast);

        auto spectrum = sig::fft2d(sig::toComplex(plane));
        for (auto &v : spectrum.data)
            v = sig::Complex(std::norm(v), 0.0);
        const auto ref = sig::realPart(sig::ifft2d(spectrum));
        EXPECT_LT(sig::matrixMaxAbsDiff(fast, ref), 1e-7)
            << rows << "x" << cols;
    }
}

TEST(Fft2dPlan, TransposeIntoMatchesNaive)
{
    pf::Rng rng(34);
    // Shapes straddling the 32x32 blocking: sub-block, exact
    // multiple, ragged edges, extreme aspect ratio.
    for (auto [rows, cols] : {std::pair<size_t, size_t>{5, 7},
                              {32, 32}, {33, 65}, {70, 3}, {1, 100}}) {
        sig::ComplexVector in(rows * cols);
        for (auto &v : in)
            v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        sig::ComplexVector out(rows * cols);
        sig::transposeInto(in.data(), rows, cols, out.data());
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                EXPECT_EQ(out[c * rows + r], in[r * cols + c]);
    }
}

TEST(Fft2dPlan, PlanCacheReturnsSharedInstances)
{
    const auto a = sig::fft2dPlanFor(24, 18);
    const auto b = sig::fft2dPlanFor(24, 18);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), sig::fft2dPlanFor(18, 24).get());
    EXPECT_GE(sig::fft2dPlanCacheSize(), 2u);
}

TEST(Fft2d, ComplexFacadeStillExact)
{
    // The complex facade (now a thin wrapper over the plan) keeps its
    // contract: executeInto == execute-on-copy, any geometry.
    pf::Rng rng(35);
    sig::ComplexMatrix m(11, 6);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto plan = sig::fft2dPlanFor(11, 6);
    auto in_place = m;
    plan->execute(in_place, false);
    sig::ComplexMatrix out;
    plan->executeInto(m, out, false);
    for (size_t i = 0; i < m.data.size(); ++i)
        EXPECT_EQ(in_place.data[i], out.data[i]);
}

// ---------------------------------------------------------------------------
// The refactored comparators against the pre-refactor references.
// ---------------------------------------------------------------------------

TEST(System4f, ApplyMatchesPreRefactorReference)
{
    pf::Rng rng(36);
    const auto image = randomMatrix(rng, 12, 14);
    for (int bits : {0, 6}) {
        f4::System4fConfig cfg;
        cfg.amplitude_bits = bits;
        cfg.phase_bits = bits;
        f4::System4f system(cfg);
        const auto kernel = randomMatrix(rng, 3, 5, -0.5, 0.5);
        const auto fast = system.convolve(image, kernel);
        const auto ref = reference4fConvolve(system, image, kernel);
        ASSERT_EQ(fast.rows, ref.rows);
        ASSERT_EQ(fast.cols, ref.cols);
        EXPECT_LT(sig::matrixMaxAbsDiff(fast, ref), 1e-9)
            << bits << " bits";
    }
}

TEST(System4f, FilterSpectrumIsCachedPerKernel)
{
    pf::Rng rng(37);
    const auto image = randomMatrix(rng, 10, 10);
    const auto k1 = randomMatrix(rng, 3, 3, -0.5, 0.5);
    const auto k2 = randomMatrix(rng, 3, 3, -0.5, 0.5);

    f4::System4f system;
    const auto &cache = *system.spectrumCache();
    (void)system.convolve(image, k1);
    EXPECT_EQ(cache.stats().misses, 1u);
    (void)system.convolve(image, k1);
    (void)system.convolve(image, k1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 2u);
    // A different kernel is a different entry, never a stale hit.
    (void)system.convolve(image, k2);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Two systems sharing one cache transform each kernel once.
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4f a({}, shared), b({}, shared);
    (void)a.convolve(image, k1);
    (void)b.convolve(image, k1);
    EXPECT_EQ(shared->stats().misses, 1u);
    EXPECT_EQ(shared->stats().hits, 1u);
}

TEST(System4f, QuantizationBitsKeyTheFilterCache)
{
    // Same kernel bytes, different modulator resolution: must be
    // distinct entries (the programmed filter differs).
    pf::Rng rng(38);
    const auto image = randomMatrix(rng, 8, 8);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4fConfig q;
    q.amplitude_bits = 6;
    q.phase_bits = 6;
    f4::System4f ideal({}, shared), quantized(q, shared);
    const auto out_ideal = ideal.convolve(image, kernel);
    const auto out_q = quantized.convolve(image, kernel);
    EXPECT_EQ(shared->stats().misses, 2u);
    EXPECT_GT(sig::matrixMaxAbsDiff(out_ideal, out_q), 0.0);
}

TEST(System4f, SteadyStateApplyIsAllocationFree)
{
    pf::Rng rng(39);
    const auto image = randomMatrix(rng, 12, 12);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    f4::System4f system;
    sig::Matrix out;
    // Warm the filter cache, the 2D plan, and every scratch buffer.
    system.apply(image, kernel, out);
    system.apply(image, kernel, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        system.apply(image, kernel, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "System4f::apply allocated in steady state";
}

TEST(Jtc2d, OutputPlaneAndCorrelateMatchPreRefactorReference)
{
    pf::Rng rng(40);
    for (auto shape : {std::pair<size_t, size_t>{8, 3},
                       std::pair<size_t, size_t>{12, 5}}) {
        const auto s = randomMatrix(rng, shape.first, shape.first);
        const auto k = randomMatrix(rng, shape.second, shape.second);
        f4::Jtc2d jtc;
        const auto plane = jtc.outputPlane(s, k);
        const auto ref = referenceJtc2dOutputPlane(s, k);
        ASSERT_EQ(plane.rows, ref.rows);
        ASSERT_EQ(plane.cols, ref.cols);
        EXPECT_LT(sig::matrixMaxAbsDiff(plane, ref), 1e-8)
            << shape.first << "x" << shape.second;
    }
}

TEST(Jtc2d, KernelPlaneSpectrumIsCached)
{
    pf::Rng rng(41);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3);
    f4::Jtc2d jtc;
    (void)jtc.correlate(s, k);
    (void)jtc.correlate(s, k);
    (void)jtc.correlate(s, k);
    EXPECT_EQ(jtc.spectrumCache()->stats().misses, 1u);
    EXPECT_EQ(jtc.spectrumCache()->stats().hits, 2u);
}

TEST(Jtc2d, SteadyStateCorrelateIsAllocationFree)
{
    pf::Rng rng(42);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3);
    f4::Jtc2d jtc;
    sig::Matrix out;
    jtc.correlateInto(s, k, out);
    jtc.correlateInto(s, k, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        jtc.correlateInto(s, k, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "Jtc2d::correlateInto allocated in steady state";
}

TEST(OpticalSpectrumCache, SharedCacheIsRaceFreeAndExact)
{
    // TSan stress (this suite runs under -fsanitize=thread in CI):
    // many threads hammer one shared PlaneSpectrumCache through both
    // comparators, racing misses, inserts, and hits. Results must be
    // bit-identical to the single-threaded warm path.
    pf::Rng rng(43);
    const auto image = randomMatrix(rng, 10, 10);
    std::vector<sig::Matrix> kernels;
    for (int i = 0; i < 4; ++i)
        kernels.push_back(randomMatrix(rng, 3, 3, -0.5, 0.5));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4f warm_system({}, shared);
    f4::Jtc2d warm_jtc(shared);
    std::vector<sig::Matrix> expect_4f, expect_jtc;
    for (const auto &k : kernels) {
        expect_4f.push_back(warm_system.convolve(image, k));
        sig::Matrix abs_k = k;
        for (auto &v : abs_k.data)
            v = std::abs(v);
        expect_jtc.push_back(warm_jtc.correlate(image, abs_k));
    }
    shared->clear(); // restart cold so the threads race the misses

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            f4::System4f system({}, shared);
            f4::Jtc2d jtc(shared);
            sig::Matrix out;
            for (int iter = 0; iter < 8; ++iter) {
                const size_t ki =
                    static_cast<size_t>(t + iter) % kernels.size();
                system.apply(image, kernels[ki], out);
                if (sig::matrixMaxAbsDiff(out, expect_4f[ki]) != 0.0)
                    mismatches.fetch_add(1);
                sig::Matrix abs_k = kernels[ki];
                for (auto &v : abs_k.data)
                    v = std::abs(v);
                jtc.correlateInto(image, abs_k, out);
                if (sig::matrixMaxAbsDiff(out, expect_jtc[ki]) != 0.0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Every kernel was transformed at least once; hits dominate.
    const auto stats = shared->stats();
    EXPECT_GE(stats.entries, 2 * kernels.size());
    EXPECT_GT(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// Batched optics: fused multi-plane transforms, filter banks, tiled
// joint planes (the multi-channel trick — one Fourier pass serves k
// kernels/planes).
// ---------------------------------------------------------------------------

TEST(Fft2dPlan, BatchRealMatchesSoloAcrossGeometries)
{
    // A batch of k planes against k one-plane calls (bit-exact: the
    // per-plane arithmetic does not depend on the batch) and against
    // the complex fft2d reference (independent of the real path).
    pf::Rng rng(40);
    for (auto [rows, cols] : kRealPathGeometries) {
        const auto plan = sig::fft2dPlanFor(rows, cols);
        const size_t hc = plan->halfCols();
        for (size_t count : {size_t(1), size_t(3), size_t(4)}) {
            const std::vector<double> planes =
                rng.uniformVector(count * rows * cols, -1.0, 1.0);
            sig::ComplexVector half(count * rows * hc);
            plan->forwardRealBatchInto(planes.data(), count,
                                       half.data());

            // Forward: bit-exact per plane vs a one-plane transform,
            // and within 1e-9 of the complex transform's stored bins.
            sig::ComplexVector solo_half(rows * hc);
            for (size_t i = 0; i < count; ++i) {
                plan->forwardReal(&planes[i * rows * cols],
                                  solo_half.data());
                sig::Matrix plane(rows, cols);
                std::copy(planes.begin() + i * rows * cols,
                          planes.begin() + (i + 1) * rows * cols,
                          plane.data.begin());
                const auto full = sig::fft2d(sig::toComplex(plane));
                for (size_t j = 0; j < rows * hc; ++j) {
                    EXPECT_EQ(half[i * rows * hc + j], solo_half[j])
                        << rows << "x" << cols << " plane " << i
                        << " bin " << j;
                    EXPECT_LT(std::abs(half[i * rows * hc + j] -
                                       full.at(j / hc, j % hc)),
                              1e-9)
                        << rows << "x" << cols << " plane " << i
                        << " bin " << j;
                }
            }

            // Inverse: bit-exact per plane, and round-trips.
            std::vector<double> batch_out(count * rows * cols);
            plan->inverseRealBatchInto(half.data(), count,
                                       batch_out.data());
            std::vector<double> solo_out(rows * cols);
            for (size_t i = 0; i < count; ++i) {
                plan->inverseReal(&half[i * rows * hc],
                                  solo_out.data());
                for (size_t j = 0; j < rows * cols; ++j)
                    EXPECT_EQ(batch_out[i * rows * cols + j],
                              solo_out[j])
                        << rows << "x" << cols << " plane " << i;
                for (size_t j = 0; j < rows * cols; ++j)
                    EXPECT_NEAR(batch_out[i * rows * cols + j],
                                planes[i * rows * cols + j], 1e-9);
            }
        }
    }
}

TEST(System4f, ApplyBatchMatchesSoloBitExact)
{
    // A bank of k filters against k one-filter applies (bit-exact)
    // and against the complex-path reference4fConvolve.
    pf::Rng rng(41);
    const auto image = randomMatrix(rng, 12, 12, -1.0, 1.0);
    // Quantized modulators too: the filter bank must program each
    // filter exactly as a bank of one does.
    for (const f4::System4fConfig config :
         {f4::System4fConfig{}, f4::System4fConfig{6, 6}}) {
        f4::System4f system(config);
        for (size_t count : {size_t(1), size_t(4)}) {
            std::vector<sig::Matrix> kernels;
            for (size_t j = 0; j < count; ++j)
                kernels.push_back(
                    randomMatrix(rng, 5, 5, -0.5, 0.5));
            std::vector<sig::Matrix> outs;
            system.applyBatchInto(image, kernels, outs);
            ASSERT_EQ(outs.size(), count);
            sig::Matrix solo;
            for (size_t j = 0; j < count; ++j) {
                system.apply(image, kernels[j], solo);
                EXPECT_EQ(sig::matrixMaxAbsDiff(outs[j], solo), 0.0)
                    << "bits=" << config.amplitude_bits << " kernel "
                    << j;
                const auto ref =
                    reference4fConvolve(system, image, kernels[j]);
                EXPECT_LT(sig::matrixMaxAbsDiff(outs[j], ref), 1e-9)
                    << "bits=" << config.amplitude_bits << " kernel "
                    << j;
            }
        }
    }
}

TEST(System4f, FilterBankIsOneCacheEntry)
{
    pf::Rng rng(42);
    const auto image = randomMatrix(rng, 10, 10);
    std::vector<sig::Matrix> kernels;
    for (size_t j = 0; j < 4; ++j)
        kernels.push_back(randomMatrix(rng, 3, 3, -0.5, 0.5));
    f4::System4f system;

    std::vector<sig::Matrix> outs;
    system.applyBatchInto(image, kernels, outs);
    const auto after_first = system.spectrumCache()->stats();
    EXPECT_EQ(after_first.entries, 1u)
        << "k filters should land in ONE bank entry";

    system.applyBatchInto(image, kernels, outs);
    const auto after_second = system.spectrumCache()->stats();
    EXPECT_EQ(after_second.entries, 1u);
    EXPECT_GT(after_second.hits, after_first.hits)
        << "second batch should hit the cached bank";
}

TEST(Jtc2d, DesignBatchGeometry)
{
    // kernel_count == 1 must be the classic layout (a lone kernel is
    // a bank of one: same plane, same cached spectra).
    const auto classic = f4::Jtc2dLayout::design(9, 9, 3, 3);
    const auto batch1 = f4::Jtc2dLayout::designBatch(9, 9, 3, 3, 1);
    EXPECT_EQ(batch1.kernel_row_pos, classic.kernel_row_pos);
    EXPECT_EQ(batch1.plane_rows, classic.plane_rows);
    EXPECT_EQ(batch1.plane_cols, classic.plane_cols);
    EXPECT_EQ(batch1.kernel_count, 1u);

    // Batched layouts keep every block in bounds and the mirror terms
    // clear: plane_rows >= 2*q_last + 2*Kr.
    for (size_t count : {size_t(2), size_t(4), size_t(7)}) {
        const auto l = f4::Jtc2dLayout::designBatch(9, 9, 3, 3, count);
        EXPECT_EQ(l.kernel_count, count);
        EXPECT_EQ(l.kernel_row_step, 9 + 3 * 3 - 2);
        const size_t q_last =
            l.kernel_row_pos + (count - 1) * l.kernel_row_step;
        EXPECT_GE(l.plane_rows, 2 * q_last + 2 * l.kernel_rows);
        EXPECT_LE(q_last + l.kernel_rows, l.plane_rows);
    }
}

TEST(Jtc2d, RowAxisLayoutIsTheOneDimensionalDesign)
{
    // The 2D row axis is the 1D joint plane with Ls -> Sr and
    // Lk -> Kr; columns only pad the correlation support.
    for (size_t sr : {size_t(1), size_t(3), size_t(9), size_t(16),
                      size_t(33)})
        for (size_t kr : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(7)})
            for (size_t count : {size_t(1), size_t(2), size_t(3),
                                 size_t(8)})
                for (auto [sc, kc] : {std::pair<size_t, size_t>{9, 3},
                                      std::pair<size_t, size_t>{4, 1},
                                      std::pair<size_t, size_t>{20, 7}}) {
                    const auto l2 = f4::Jtc2dLayout::designBatch(
                        sr, sc, kr, kc, count);
                    const auto l1 =
                        jtc::JtcPlaneLayout::designBatch(sr, kr, count);
                    EXPECT_EQ(l2.kernel_row_pos, l1.kernel_pos);
                    EXPECT_EQ(l2.kernel_row_step, l1.kernel_step);
                    EXPECT_EQ(l2.plane_rows, l1.plane_size);
                    EXPECT_EQ(l2.kernel_count, l1.kernel_count);
                    EXPECT_EQ(l2.plane_cols,
                              sig::nextPowerOfTwo(sc + kc));
                }
}

TEST(Jtc2d, CorrelateBatchMatchesPerKernel)
{
    // k tiled kernels against k one-kernel correlations (within FFT
    // rounding of the larger plane) and against the readout of the
    // complex-path referenceJtc2dOutputPlane.
    pf::Rng rng(43);
    const auto s = randomMatrix(rng, 12, 12);
    f4::Jtc2d system;
    for (size_t count : {size_t(1), size_t(3), size_t(5)}) {
        std::vector<sig::Matrix> kernels;
        for (size_t j = 0; j < count; ++j)
            kernels.push_back(randomMatrix(rng, 3, 3));
        std::vector<sig::Matrix> outs;
        system.correlateBatchInto(s, kernels, outs);
        ASSERT_EQ(outs.size(), count);
        sig::Matrix solo;
        for (size_t j = 0; j < count; ++j) {
            system.correlateInto(s, kernels[j], solo);
            ASSERT_EQ(outs[j].rows, solo.rows);
            ASSERT_EQ(outs[j].cols, solo.cols);
            if (count == 1) {
                // Same layout, same cache entry: bit-identical.
                EXPECT_EQ(sig::matrixMaxAbsDiff(outs[j], solo), 0.0);
            } else {
                // The tiled plane is larger, so FFT rounding differs
                // (documented tolerance; values are O(10)).
                EXPECT_LT(sig::matrixMaxAbsDiff(outs[j], solo), 1e-9)
                    << "count " << count << " kernel " << j;
            }

            const auto layout = f4::Jtc2dLayout::design(
                s.rows, s.cols, kernels[j].rows, kernels[j].cols);
            const auto plane = referenceJtc2dOutputPlane(s, kernels[j]);
            sig::Matrix ref(solo.rows, solo.cols);
            for (size_t r = 0; r < ref.rows; ++r)
                for (size_t c = 0; c < ref.cols; ++c)
                    ref.at(r, c) = plane.at(
                        (layout.kernel_row_pos - r) % layout.plane_rows,
                        (layout.plane_cols - c) % layout.plane_cols);
            EXPECT_LT(sig::matrixMaxAbsDiff(outs[j], ref), 1e-8)
                << "count " << count << " kernel " << j;
        }
    }
}

TEST(Jtc2d, BatchSharedTiledPlaneCacheIsRaceFree)
{
    // TSan leg for the tiled-plane bank entries: many threads, one
    // shared PlaneSpectrumCache, all running batched correlations
    // with the same kernel set. The batched path is deterministic, so
    // every thread must reproduce the single-threaded result bit for
    // bit while hitting one shared bank entry.
    pf::Rng rng(44);
    const auto s = randomMatrix(rng, 10, 10);
    std::vector<sig::Matrix> kernels;
    for (size_t j = 0; j < 3; ++j)
        kernels.push_back(randomMatrix(rng, 3, 3));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    std::vector<sig::Matrix> expected;
    {
        f4::Jtc2d warm(shared);
        warm.correlateBatchInto(s, kernels, expected);
    }

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            f4::Jtc2d jtc(shared);
            std::vector<sig::Matrix> outs;
            for (int iter = 0; iter < 8; ++iter) {
                jtc.correlateBatchInto(s, kernels, outs);
                for (size_t j = 0; j < kernels.size(); ++j)
                    if (sig::matrixMaxAbsDiff(outs[j], expected[j]) !=
                        0.0)
                        mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    const auto stats = shared->stats();
    EXPECT_GT(stats.hits, 0u);
}
