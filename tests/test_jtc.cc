/**
 * @file
 * Tests for the JTC optical simulation and the PFCU functional model.
 *
 * The central property: the optically computed correlation equals the
 * direct sliding dot product (the convolution the CNN needs), and the
 * three output-plane terms are spatially separated (paper Figure 2).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "counting_alloc.hh"

#include "common/rng.hh"
#include "common/stats.hh"
#include "jtc/jtc_system.hh"
#include "jtc/pfcu.hh"
#include "signal/fft_plan.hh"

namespace pf = photofourier;
namespace jtc = photofourier::jtc;
namespace sig = photofourier::signal;

namespace {

std::vector<double>
randomNonNegative(pf::Rng &rng, size_t n)
{
    return rng.uniformVector(n, 0.0, 1.0);
}

/**
 * Pre-refactor reference: the seed complex-path outputPlane (joint
 * plane built whole, two full complex lens transforms), kept verbatim
 * so the cached real-path rewrite stays pinned to it.
 */
std::vector<double>
referenceOutputPlane(const std::vector<double> &s,
                     const std::vector<double> &k)
{
    const auto layout = jtc::JtcSystem::layoutFor(s, k);
    const size_t n = layout.plane_size;
    const auto plan = sig::fftPlanFor(n);

    std::vector<double> plane(n, 0.0);
    for (size_t i = 0; i < s.size(); ++i)
        plane[layout.signal_pos + i] = s[i];
    for (size_t i = 0; i < k.size(); ++i)
        plane[layout.kernel_pos + i] = k[i];

    sig::ComplexVector field(n);
    for (size_t i = 0; i < n; ++i)
        field[i] = sig::Complex(plane[i], 0.0);
    plan->execute(field, false);

    sig::ComplexVector spectrum(n);
    for (size_t i = 0; i < n; ++i)
        spectrum[i] = sig::Complex(std::norm(field[i]), 0.0);
    plan->execute(spectrum, true);

    std::vector<double> recorded(n);
    for (size_t i = 0; i < n; ++i)
        recorded[i] = spectrum[i].real();
    return recorded;
}

} // namespace

TEST(JtcLayout, TermsDoNotOverlap)
{
    for (size_t ls : {8u, 33u, 256u}) {
        for (size_t lk : {3u, 8u, 256u}) {
            const auto layout = jtc::JtcPlaneLayout::design(ls, lk);
            const size_t longest = std::max(ls, lk);
            // Central term ends at longest-1; cross term starts at
            // kernel_pos - (ls - 1) and ends at kernel_pos + lk - 1;
            // mirror starts at plane - kernel_pos - (lk - 1).
            const size_t cross_lo = layout.kernel_pos - (ls - 1);
            const size_t cross_hi = layout.kernel_pos + lk - 1;
            const size_t mirror_lo =
                layout.plane_size - layout.kernel_pos - (lk - 1);
            EXPECT_GT(cross_lo, longest - 1) << ls << "x" << lk;
            EXPECT_LT(cross_hi, mirror_lo) << ls << "x" << lk;
            // Input supports must not overlap either.
            EXPECT_GE(layout.kernel_pos, ls);
            EXPECT_LE(layout.kernel_pos + lk, layout.plane_size);
        }
    }
}

TEST(JtcSystem, OutputPlaneIsCircularAutocorrelation)
{
    // With noiseless linear readout the full plane must equal the
    // circular autocorrelation of the joint input plane.
    pf::Rng rng(3);
    const auto s = randomNonNegative(rng, 16);
    const auto k = randomNonNegative(rng, 5);

    jtc::JtcSystem sys;
    const auto layout = jtc::JtcSystem::layoutFor(s, k);
    const auto plane = sys.outputPlane(s, k);
    ASSERT_EQ(plane.size(), layout.plane_size);

    // Direct circular autocorrelation.
    std::vector<double> joint(layout.plane_size, 0.0);
    for (size_t i = 0; i < s.size(); ++i)
        joint[layout.signal_pos + i] = s[i];
    for (size_t i = 0; i < k.size(); ++i)
        joint[layout.kernel_pos + i] = k[i];
    for (size_t d = 0; d < layout.plane_size; ++d) {
        double acc = 0.0;
        for (size_t x = 0; x < layout.plane_size; ++x)
            acc += joint[x] * joint[(x + d) % layout.plane_size];
        EXPECT_NEAR(plane[d], acc, 1e-8) << "lag " << d;
    }
}

TEST(JtcSystem, ThreeTermsSpatiallySeparated)
{
    // Reproduces the Figure 2 property: energy in the central O(x) term
    // and the two correlation terms, nothing in the guard bands.
    pf::Rng rng(5);
    const auto s = randomNonNegative(rng, 64);
    const auto k = randomNonNegative(rng, 16);

    jtc::JtcSystem sys;
    const auto layout = jtc::JtcSystem::layoutFor(s, k);
    const auto plane = sys.outputPlane(s, k);

    const size_t longest = std::max(s.size(), k.size());
    const size_t cross_lo = layout.kernel_pos - (s.size() - 1);
    const size_t cross_hi = layout.kernel_pos + k.size() - 1;
    const size_t mirror_lo =
        layout.plane_size - layout.kernel_pos - (k.size() - 1);
    const size_t mirror_hi =
        layout.plane_size - layout.kernel_pos + s.size() - 1;

    for (size_t d = 0; d < plane.size(); ++d) {
        const bool central =
            d <= longest - 1 || d >= layout.plane_size - (longest - 1);
        const bool cross = d >= cross_lo && d <= cross_hi;
        const bool mirror = d >= mirror_lo && d <= mirror_hi;
        if (!central && !cross && !mirror)
            EXPECT_NEAR(plane[d], 0.0, 1e-8) << "guard band lag " << d;
    }

    // The cross terms carry real energy.
    double cross_energy = 0.0;
    for (size_t d = cross_lo; d <= cross_hi; ++d)
        cross_energy += plane[d] * plane[d];
    EXPECT_GT(cross_energy, 1.0);
}

TEST(JtcSystem, FullCorrelationMatchesDirect)
{
    pf::Rng rng(7);
    for (auto [ls, lk] : {std::pair<size_t, size_t>{20, 13},
                          {256, 25}, {100, 100}, {5, 31}}) {
        const auto s = randomNonNegative(rng, ls);
        const auto k = randomNonNegative(rng, lk);
        jtc::JtcSystem sys;
        const auto c = sys.fullCorrelation(s, k);
        ASSERT_EQ(c.size(), ls + lk - 1);
        // c[m + ls - 1] = sum_i s[i] k[i + m].
        for (long m = -(static_cast<long>(ls) - 1);
             m <= static_cast<long>(lk) - 1; ++m) {
            double expect = 0.0;
            for (size_t i = 0; i < ls; ++i) {
                const long ki = static_cast<long>(i) + m;
                if (ki >= 0 && ki < static_cast<long>(lk))
                    expect += s[i] * k[static_cast<size_t>(ki)];
            }
            EXPECT_NEAR(c[static_cast<size_t>(
                            m + static_cast<long>(ls) - 1)],
                        expect, 1e-8)
                << "ls=" << ls << " lk=" << lk << " m=" << m;
        }
    }
}

/** Parameterized sweep: optical window == direct sliding dot product. */
class JtcWindowTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(JtcWindowTest, WindowMatchesReference)
{
    const auto [ls, lk] = GetParam();
    pf::Rng rng(100 + ls * 31 + lk);
    const auto s = randomNonNegative(rng, ls);
    const auto k = randomNonNegative(rng, lk);

    jtc::JtcSystem sys;
    const auto optical = sys.correlationWindow(s, k, ls);
    const auto reference = jtc::slidingCorrelationReference(s, k, ls);
    ASSERT_EQ(optical.size(), reference.size());
    EXPECT_LT(pf::maxAbsDiff(optical, reference), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JtcWindowTest,
    ::testing::Values(std::pair<size_t, size_t>{16, 3},
                      std::pair<size_t, size_t>{16, 16},
                      std::pair<size_t, size_t>{64, 9},
                      std::pair<size_t, size_t>{100, 25},
                      std::pair<size_t, size_t>{256, 77},
                      std::pair<size_t, size_t>{256, 256},
                      std::pair<size_t, size_t>{31, 7},
                      std::pair<size_t, size_t>{13, 13}));

TEST(JtcSystem, OutputPlaneMatchesPreRefactorReference)
{
    // The cached real-path rewrite against the seed complex path, on
    // both power-of-two-heavy and Bluestein-adjacent input sizes.
    pf::Rng rng(61);
    for (auto [ls, lk] : {std::pair<size_t, size_t>{16, 5},
                          {256, 67}, {100, 25}, {33, 7}}) {
        const auto s = randomNonNegative(rng, ls);
        const auto k = randomNonNegative(rng, lk);
        jtc::JtcSystem sys;
        const auto fast = sys.outputPlane(s, k);
        const auto ref = referenceOutputPlane(s, k);
        ASSERT_EQ(fast.size(), ref.size());
        EXPECT_LT(pf::maxAbsDiff(fast, ref), 1e-8)
            << "ls=" << ls << " lk=" << lk;
    }
}

TEST(JtcSystem, KernelPlaneSpectrumIsCachedPerKernelAndLayout)
{
    pf::Rng rng(62);
    const auto s = randomNonNegative(rng, 64);
    const auto k1 = randomNonNegative(rng, 9);
    const auto k2 = randomNonNegative(rng, 9);

    jtc::JtcSystem sys;
    (void)sys.correlationWindow(s, k1, 64);
    (void)sys.correlationWindow(s, k1, 64);
    (void)sys.correlationWindow(s, k1, 64);
    auto stats = sys.spectrumCache()->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);

    // Changed kernel content -> new entry, never a stale spectrum.
    (void)sys.correlationWindow(s, k2, 64);
    EXPECT_EQ(sys.spectrumCache()->stats().misses, 2u);

    // Same kernel bytes on a different layout (longer signal changes
    // the plane size/separation) -> distinct entry as well.
    const auto s_long = randomNonNegative(rng, 200);
    (void)sys.correlationWindow(s_long, k1, 200);
    EXPECT_EQ(sys.spectrumCache()->stats().misses, 3u);

    // Instances sharing one cache transform each kernel field once.
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem a({}, shared), b({}, shared);
    (void)a.correlationWindow(s, k1, 64);
    (void)b.correlationWindow(s, k1, 64);
    EXPECT_EQ(shared->stats().misses, 1u);
    EXPECT_EQ(shared->stats().hits, 1u);
}

TEST(JtcSystem, SteadyStateCorrelationWindowIsAllocationFree)
{
    pf::Rng rng(63);
    const auto s = randomNonNegative(rng, 64);
    const auto k = randomNonNegative(rng, 9);
    jtc::JtcSystem sys;
    std::vector<double> out;
    // Warm the kernel-spectrum cache, the plan tables, and scratch.
    sys.correlationWindowInto(s, k, 64, 0, out);
    sys.correlationWindowInto(s, k, 64, 0, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        sys.correlationWindowInto(s, k, 64, 0, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "correlationWindowInto allocated in steady state";
}

TEST(JtcSystem, SharedSpectrumCacheIsRaceFreeAndExact)
{
    // TSan stress (this suite runs under -fsanitize=thread in CI):
    // threads share one kernel-spectrum cache and race the misses,
    // inserts, and hits; every result must be bit-identical to the
    // warm single-threaded value.
    pf::Rng rng(64);
    const auto s = randomNonNegative(rng, 64);
    std::vector<std::vector<double>> kernels;
    for (int i = 0; i < 4; ++i)
        kernels.push_back(randomNonNegative(rng, 9));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem warm({}, shared);
    std::vector<std::vector<double>> expected;
    for (const auto &k : kernels)
        expected.push_back(warm.correlationWindow(s, k, 64));
    shared->clear(); // restart cold so the threads race the misses

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            jtc::JtcSystem sys({}, shared);
            std::vector<double> out;
            for (int iter = 0; iter < 16; ++iter) {
                const size_t ki =
                    static_cast<size_t>(t + iter) % kernels.size();
                sys.correlationWindowInto(s, kernels[ki], 64, 0, out);
                if (pf::maxAbsDiff(out, expected[ki]) != 0.0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(shared->stats().entries, kernels.size());
    EXPECT_GT(shared->stats().hits, 0u);
}

TEST(JtcSystem, SquareLawReadoutRecoversByDigitalSqrt)
{
    // With non-negative operands the |R|^2 readout plus sqrt equals the
    // linear reading.
    pf::Rng rng(11);
    const auto s = randomNonNegative(rng, 32);
    const auto k = randomNonNegative(rng, 8);

    jtc::JtcConfig linear_cfg;
    jtc::JtcConfig square_cfg;
    square_cfg.readout = jtc::ReadoutModel::SquareLaw;

    jtc::JtcSystem linear(linear_cfg), square(square_cfg);
    const auto a = linear.correlationWindow(s, k, 32);
    const auto b = square.correlationWindow(s, k, 32);
    EXPECT_LT(pf::maxAbsDiff(a, b), 1e-6);
}

TEST(JtcSystem, NoiseIsBoundedAtHighSnr)
{
    pf::Rng rng(13);
    const auto s = randomNonNegative(rng, 64);
    const auto k = randomNonNegative(rng, 9);

    jtc::JtcConfig cfg;
    cfg.noise = true;
    cfg.detector.target_snr_db = 40.0;
    cfg.noise_seed = 42;

    jtc::JtcSystem noisy(cfg);
    jtc::JtcSystem clean;
    const auto a = noisy.correlationWindow(s, k, 64);
    const auto b = clean.correlationWindow(s, k, 64);
    // 40 dB SNR: relative error should be ~1%, certainly below 20%.
    EXPECT_LT(pf::relativeRmse(b, a), 0.2);
    // But not bit-identical — noise must actually be injected.
    EXPECT_GT(pf::maxAbsDiff(a, b), 0.0);
}

TEST(JtcSystem, NoiseIsDeterministicPerSeed)
{
    pf::Rng rng(17);
    const auto s = randomNonNegative(rng, 32);
    const auto k = randomNonNegative(rng, 5);

    jtc::JtcConfig cfg;
    cfg.noise = true;
    cfg.noise_seed = 7;
    jtc::JtcSystem a(cfg), b(cfg);
    EXPECT_EQ(a.correlationWindow(s, k, 32),
              b.correlationWindow(s, k, 32));
}

TEST(Pfcu, OpticalCorrelationMatchesReferenceIdealDacs)
{
    jtc::PfcuConfig cfg;
    cfg.n_input_waveguides = 64;
    cfg.dac_range = 0.0; // ideal DACs
    jtc::Pfcu pfcu(cfg);

    pf::Rng rng(19);
    const auto in = rng.uniformVector(64, 0.0, 1.0);
    const auto w = rng.uniformVector(9, -0.5, 0.5);

    const auto optical = pfcu.opticalCorrelation(in, w);
    const auto reference = jtc::slidingCorrelationReference(in, w, 64);
    EXPECT_LT(pf::maxAbsDiff(optical, reference), 1e-8);
}

TEST(Pfcu, PseudoNegativeHandlesSignedWeights)
{
    jtc::PfcuConfig cfg;
    cfg.n_input_waveguides = 32;
    cfg.dac_range = 0.0;
    jtc::Pfcu pfcu(cfg);

    const std::vector<double> in{1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<double> w{1, -1, 2};
    const auto out = pfcu.opticalCorrelation(in, w);
    // out[0] = 1*1 + 2*(-1) + 3*2 = 5; out[5] = 6 - 7 + 16 = 15.
    EXPECT_NEAR(out[0], 5.0, 1e-8);
    EXPECT_NEAR(out[5], 15.0, 1e-8);
}

TEST(Pfcu, DacQuantizationBoundsError)
{
    jtc::PfcuConfig cfg;
    cfg.n_input_waveguides = 32;
    cfg.dac_bits = 8;
    cfg.dac_range = 1.0;
    jtc::Pfcu pfcu(cfg);

    pf::Rng rng(23);
    const auto in = rng.uniformVector(32, 0.0, 1.0);
    const auto w = rng.uniformVector(5, 0.0, 1.0);

    const auto out = pfcu.opticalCorrelation(in, w);
    const auto ref = jtc::slidingCorrelationReference(in, w, 32);
    // Each product has relative quantization error ~2^-7 on each
    // operand; a 5-tap sum stays well within 5%.
    EXPECT_LT(pf::relativeRmse(ref, out), 0.05);
}

TEST(Pfcu, TemporalAccumulationIsFullPrecision)
{
    // Accumulating N channels then quantizing once must beat
    // quantizing each channel separately (the Section V-C claim).
    jtc::PfcuConfig accum_cfg;
    accum_cfg.n_input_waveguides = 32;
    accum_cfg.dac_range = 0.0;         // isolate ADC effects
    accum_cfg.adc_bits = 8;
    accum_cfg.adc_range = 16.0;        // full-scale of the 16-ch sum
    accum_cfg.temporal_accumulation_depth = 16;
    accum_cfg.pseudo_negative = false;
    jtc::Pfcu accum_pfcu(accum_cfg);

    pf::Rng rng(29);
    std::vector<std::vector<double>> ins, ws;
    for (int ch = 0; ch < 16; ++ch) {
        ins.push_back(rng.uniformVector(32, 0.0, 1.0));
        ws.push_back(rng.uniformVector(3, 0.0, 0.3));
    }

    // Exact accumulation reference.
    std::vector<double> exact(32, 0.0);
    for (int ch = 0; ch < 16; ++ch) {
        const auto p =
            jtc::slidingCorrelationReference(ins[ch], ws[ch], 32);
        for (size_t i = 0; i < 32; ++i)
            exact[i] += p[i];
    }

    const auto readout = accum_pfcu.runChannelGroup(ins, ws);
    const double accum_err = pf::rmse(exact, readout.values);

    // Per-channel quantization alternative: quantize each partial with
    // the same ADC, then sum digitally.
    photofourier::photonics::Quantizer adc(8, 16.0);
    std::vector<double> per_channel(32, 0.0);
    for (int ch = 0; ch < 16; ++ch) {
        const auto p =
            jtc::slidingCorrelationReference(ins[ch], ws[ch], 32);
        for (size_t i = 0; i < 32; ++i)
            per_channel[i] += adc.quantize(p[i]);
    }
    const double per_channel_err = pf::rmse(exact, per_channel);

    EXPECT_LT(accum_err, per_channel_err);
    EXPECT_EQ(readout.optical_cycles, 16u);
    EXPECT_EQ(readout.adc_reads, 32u);
}

TEST(Pfcu, GroupLargerThanDepthPanics)
{
    jtc::PfcuConfig cfg;
    cfg.n_input_waveguides = 8;
    cfg.temporal_accumulation_depth = 2;
    jtc::Pfcu pfcu(cfg);
    std::vector<std::vector<double>> ins(3, std::vector<double>(8, 0.5));
    std::vector<std::vector<double>> ws(3, std::vector<double>(3, 0.5));
    EXPECT_DEATH((void)pfcu.runChannelGroup(ins, ws), "exceeds");
}

TEST(Pfcu, CycleAccounting)
{
    jtc::PfcuConfig cfg;
    cfg.pseudo_negative = true;
    cfg.pipelined = true;
    jtc::Pfcu p1(cfg);
    EXPECT_EQ(p1.cyclesPerConvolution(), 2u);
    EXPECT_DOUBLE_EQ(p1.convolutionsPerCycle(), 0.5);
    EXPECT_EQ(p1.pipelineLatencyCycles(), 2u);

    cfg.pseudo_negative = false;
    cfg.pipelined = false;
    jtc::Pfcu p2(cfg);
    EXPECT_EQ(p2.cyclesPerConvolution(), 1u);
    EXPECT_DOUBLE_EQ(p2.convolutionsPerCycle(), 0.5);

    cfg.pipelined = true;
    jtc::Pfcu p3(cfg);
    EXPECT_DOUBLE_EQ(p3.convolutionsPerCycle(), 1.0);
}

TEST(Pfcu, InputLargerThanWaveguidesPanics)
{
    jtc::PfcuConfig cfg;
    cfg.n_input_waveguides = 8;
    jtc::Pfcu pfcu(cfg);
    const std::vector<double> in(9, 0.5);
    const std::vector<double> w(3, 0.5);
    EXPECT_DEATH((void)pfcu.opticalCorrelation(in, w), "exceeds");
}

// ---------------------------------------------------------------------------
// Batched (tiled) joint planes: k kernels, one Fourier pass.
// ---------------------------------------------------------------------------

TEST(JtcLayout, DesignBatchGeometry)
{
    // Batch-of-1 must be the classic layout exactly (a lone kernel is
    // a bank of one on the classic plane).
    const auto classic = jtc::JtcPlaneLayout::design(48, 7);
    const auto one = jtc::JtcPlaneLayout::designBatch(48, 7, 1);
    EXPECT_EQ(one.kernel_pos, classic.kernel_pos);
    EXPECT_EQ(one.plane_size, classic.plane_size);
    EXPECT_EQ(one.kernel_count, 1u);

    for (size_t count : {size_t(2), size_t(4), size_t(8)}) {
        const auto l = jtc::JtcPlaneLayout::designBatch(48, 7, count);
        EXPECT_EQ(l.kernel_count, count);
        // S = Ls + 3*Lk - 2 interleaves signal-kernel cross bands
        // between kernel-kernel bands with one clear sample each side.
        EXPECT_EQ(l.kernel_step, 48 + 3 * 7 - 2);
        // Central term clear of the first cross band.
        EXPECT_GE(l.kernel_pos, 48 + 7 - 1);
        // Mirror terms clear of every cross band, all kernels in
        // bounds.
        const size_t q_last =
            l.kernel_pos + (count - 1) * l.kernel_step;
        EXPECT_GE(l.plane_size, 2 * q_last + 2 * l.kernel_len);
        EXPECT_LE(q_last + l.kernel_len, l.plane_size);
    }
}

TEST(JtcSystem, CorrelationWindowBatchMatchesPerKernel)
{
    // k tiled kernels against k one-kernel windows (within FFT
    // rounding of the larger plane) and against the direct sliding
    // reference.
    pf::Rng rng(90);
    const auto s = randomNonNegative(rng, 48);
    jtc::JtcSystem sys;
    const size_t count = 44;
    const long start = -2;

    for (size_t nk : {size_t(1), size_t(3), size_t(6)}) {
        std::vector<std::vector<double>> kernels;
        for (size_t j = 0; j < nk; ++j)
            kernels.push_back(randomNonNegative(rng, 7));
        std::vector<double> out;
        sys.correlationWindowBatchInto(s, kernels, count, start, out);
        ASSERT_EQ(out.size(), nk * count);
        std::vector<double> solo;
        for (size_t j = 0; j < nk; ++j) {
            sys.correlationWindowInto(s, kernels[j], count, start,
                                      solo);
            for (size_t i = 0; i < count; ++i) {
                if (nk == 1) {
                    // Same layout, same cache entry: bit-identical.
                    EXPECT_EQ(out[i], solo[i]) << "shift " << i;
                } else {
                    // Larger tiled plane: FFT rounding differs within
                    // the documented tolerance.
                    EXPECT_NEAR(out[j * count + i], solo[i], 1e-9)
                        << "nk " << nk << " kernel " << j << " shift "
                        << i;
                }
            }
            // Both stay pinned to the direct sliding reference.
            const auto ref = jtc::slidingCorrelationReference(
                s, kernels[j], count, start);
            for (size_t i = 0; i < count; ++i) {
                EXPECT_NEAR(out[j * count + i], ref[i], 1e-9);
                EXPECT_NEAR(solo[i], ref[i], 1e-9);
            }
        }
    }
}

TEST(JtcSystem, CorrelationWindowBatchNoiseMatchesSoloExactly)
{
    // With sensing noise on, the batched entry point must fall back
    // to the per-kernel path so every (request, kernel) pair draws
    // the same noise stream as a solo call — bit-identical, not just
    // close.
    pf::Rng rng(91);
    const auto s = randomNonNegative(rng, 32);
    std::vector<std::vector<double>> kernels;
    for (size_t j = 0; j < 3; ++j)
        kernels.push_back(randomNonNegative(rng, 5));

    jtc::JtcConfig config;
    config.noise = true;
    config.noise_seed = 7;
    jtc::JtcSystem sys(config);

    const size_t count = 28;
    std::vector<double> batch_out;
    sys.correlationWindowBatchInto(s, kernels, count, 0, batch_out);
    ASSERT_EQ(batch_out.size(), kernels.size() * count);
    std::vector<double> solo;
    for (size_t j = 0; j < kernels.size(); ++j) {
        sys.correlationWindowInto(s, kernels[j], count, 0, solo);
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(batch_out[j * count + i], solo[i])
                << "kernel " << j << " shift " << i;
    }
}

TEST(JtcSystem, LoneKernelIsItsBankOfOneCacheEntry)
{
    // A lone kernel and a bank of one read the same cache entry, and
    // the noise-on per-kernel path reads those entries too: no kernel
    // is transformed or stored twice.
    pf::Rng rng(93);
    const auto s = randomNonNegative(rng, 32);
    std::vector<std::vector<double>> kernels;
    for (size_t j = 0; j < 3; ++j)
        kernels.push_back(randomNonNegative(rng, 5));

    for (bool noise : {false, true}) {
        auto shared = std::make_shared<sig::PlaneSpectrumCache>();
        jtc::JtcConfig config;
        config.noise = noise;
        jtc::JtcSystem sys(config, shared);
        std::vector<double> out;
        for (const auto &k : kernels)
            sys.correlationWindowInto(s, k, 28, 0, out);
        for (const auto &k : kernels)
            sys.correlationWindowBatchInto(s, {k}, 28, 0, out);
        EXPECT_EQ(shared->stats().entries, kernels.size())
            << "noise " << noise;
        EXPECT_EQ(shared->stats().misses, kernels.size())
            << "noise " << noise;
        sys.correlationWindowBatchInto(s, kernels, 28, 0, out);
        // Noise on: the bank runs kernel by kernel on the same
        // entries; noise off: the tiled bank is one new entry.
        EXPECT_EQ(shared->stats().entries,
                  kernels.size() + (noise ? 0 : 1))
            << "noise " << noise;
    }
}

TEST(JtcSystem, BatchKernelBankIsOneCacheEntry)
{
    pf::Rng rng(92);
    const auto s = randomNonNegative(rng, 48);
    std::vector<std::vector<double>> kernels;
    for (size_t j = 0; j < 4; ++j)
        kernels.push_back(randomNonNegative(rng, 7));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem sys({}, shared);
    std::vector<double> out;
    sys.correlationWindowBatchInto(s, kernels, 42, 0, out);
    const auto first = shared->stats();
    EXPECT_EQ(first.entries, 1u)
        << "tiled kernel fields should sum into ONE bank entry";
    sys.correlationWindowBatchInto(s, kernels, 42, 0, out);
    const auto second = shared->stats();
    EXPECT_EQ(second.entries, 1u);
    EXPECT_GT(second.hits, first.hits);
}
