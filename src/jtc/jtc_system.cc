#include "jtc/jtc_system.hh"

#include <algorithm>
#include <cmath>

#include "arch/simd.hh"
#include "common/logging.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace jtc {

namespace {

// Workspace slots 20-23: the optical-simulator range reserved for the
// 1D JTC (see the slot discipline in fft_plan.hh). The plane buffer
// doubles as the kernel-padding scratch on cache misses (the miss
// computes before the signal plane is built) and as the intensity
// buffer on the noise path (the plane is consumed by then).
constexpr size_t kSlotJtcPlane = 20;
constexpr size_t kSlotJtcHalf = 21;
constexpr size_t kSlotJtcFull = 22;
constexpr size_t kSlotJtcOutPlane = 23;

} // namespace

JtcPlaneLayout
JtcPlaneLayout::design(size_t signal_len, size_t kernel_len)
{
    pf_assert(signal_len > 0 && kernel_len > 0,
              "JTC inputs must be non-empty");
    const size_t longest = std::max(signal_len, kernel_len);

    JtcPlaneLayout layout;
    layout.signal_len = signal_len;
    layout.kernel_len = kernel_len;
    layout.signal_pos = 0;
    // Separation: central term spans [0, longest-1]; the cross term
    // starts at q - (Ls - 1), so q = longest + Ls - 1 puts its first
    // sample just past the central term.
    layout.kernel_pos = longest + signal_len - 1;
    // Mirror term starts at N - q - (Lk - 1); N >= 2q + 2Lk keeps it
    // past the cross term's last sample q + Lk - 1.
    layout.plane_size = signal::nextPowerOfTwo(
        2 * layout.kernel_pos + 2 * kernel_len);
    return layout;
}

JtcPlaneLayout
JtcPlaneLayout::designBatch(size_t signal_len, size_t kernel_len,
                            size_t kernel_count)
{
    pf_assert(kernel_count >= 1, "designBatch with no kernels");
    // A batch of one IS the classic layout: same separation, same
    // plane.
    if (kernel_count == 1)
        return design(signal_len, kernel_len);
    pf_assert(signal_len > 0 && kernel_len > 0,
              "JTC inputs must be non-empty");
    const size_t longest = std::max(signal_len, kernel_len);

    JtcPlaneLayout layout;
    layout.signal_len = signal_len;
    layout.kernel_len = kernel_len;
    layout.signal_pos = 0;
    layout.kernel_count = kernel_count;
    // Spacing S interleaves each signal-kernel cross band (width
    // Ls+Lk-1, centred at q_j) between the kernel-kernel cross bands
    // (width 2Lk-1, at multiples of S) with one clear sample each
    // side: S = (Ls+Lk-1) + (2Lk-1) + 2 gaps of 1... = Ls + 3Lk - 2.
    layout.kernel_step = signal_len + 3 * kernel_len - 2;
    // First separation: congruent to Ls+Lk-1 mod S (the interleaving
    // phase), lifted by whole steps until the cross band's first lag
    // q_0 - (Ls-1) clears the central term's last lag (longest - 1).
    const size_t base = signal_len + kernel_len - 1;
    const size_t need =
        longest > kernel_len ? longest - kernel_len : 0;
    const size_t lift =
        (need + layout.kernel_step - 1) / layout.kernel_step;
    layout.kernel_pos = base + lift * layout.kernel_step;
    // Mirror bands start at N - q_j - (Lk-1): N >= 2*q_last + 2Lk
    // keeps the nearest one past the furthest cross band.
    const size_t q_last =
        layout.kernel_pos + (kernel_count - 1) * layout.kernel_step;
    layout.plane_size =
        signal::nextPowerOfTwo(2 * q_last + 2 * kernel_len);
    return layout;
}

JtcSystem::JtcSystem(JtcConfig config,
                     std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
}

std::shared_ptr<const signal::ComplexVector>
JtcSystem::kernelBankSpectrum(std::span<const std::vector<double>> kernels,
                              const JtcPlaneLayout &layout) const
{
    // One entry for the whole tiled bank: the salt pins the tiling
    // geometry, the payload is the concatenated kernel bytes. The
    // lens is linear, so the bank's Fourier-plane contribution is one
    // transform of all kernel fields placed on the plane.
    uint64_t salt = signal::planeSpectrumSalt(layout.plane_size);
    salt = signal::planeSpectrumSalt(layout.kernel_pos, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_step, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_count, salt);

    struct Ctx
    {
        std::span<const std::vector<double>> kernels;
        const JtcPlaneLayout *layout;
    } ctx{kernels, &layout};
    // Single-reference capture: the Compute stays in std::function's
    // small-buffer storage, so cache hits never allocate.
    return spectra_->spectrum(
        salt, signal::bankPayload(kernels, std::identity{}),
        layout.plane_size / 2 + 1, [&ctx](signal::ComplexVector &out) {
            const size_t n = ctx.layout->plane_size;
            const auto plan = signal::fftPlanFor(n);
            std::vector<double> &padded =
                signal::threadFftWorkspace().realBuffer(kSlotJtcPlane,
                                                        n);
            std::fill(padded.begin(), padded.end(), 0.0);
            for (size_t j = 0; j < ctx.kernels.size(); ++j)
                std::copy(ctx.kernels[j].begin(), ctx.kernels[j].end(),
                          padded.begin() +
                              static_cast<long>(ctx.layout->kernel_pos +
                                                j * ctx.layout->kernel_step));
            plan->executeReal(padded.data(), out.data());
        });
}

JtcPlaneLayout
JtcSystem::layoutFor(const std::vector<double> &s,
                     const std::vector<double> &k)
{
    return JtcPlaneLayout::design(s.size(), k.size());
}

double
JtcSystem::readOut(double field_value, double scale,
                   photonics::Photodetector &pd) const
{
    double recorded = field_value;
    if (config_.readout == ReadoutModel::SquareLaw) {
        // Physical detector: intensity |R|^2, digital sqrt in CMOS.
        // Negative excursions (noise) clamp to zero charge.
        double intensity = field_value * field_value;
        if (config_.noise)
            intensity = pd.addSensingNoise(intensity, scale * scale);
        recorded = std::sqrt(std::max(0.0, intensity));
    } else if (config_.noise) {
        recorded = pd.addSensingNoise(field_value, scale);
    }
    return recorded;
}

std::vector<double>
JtcSystem::outputPlane(const std::vector<double> &s,
                       const std::vector<double> &k) const
{
    std::vector<double> out;
    outputPlaneInto(s, k, out);
    return out;
}

void
JtcSystem::outputPlaneInto(const std::vector<double> &s,
                           const std::vector<double> &k,
                           std::vector<double> &out) const
{
    jointPlane(s, {&k, 1}, layoutFor(s, k), out);
}

void
JtcSystem::jointPlane(const std::vector<double> &s,
                      std::span<const std::vector<double>> kernels,
                      const JtcPlaneLayout &layout,
                      std::vector<double> &out) const
{
    const size_t n = layout.plane_size;
    // Both lens transforms reuse one cached plan for the plane size; a
    // CNN layer evaluates thousands of same-geometry JTC passes, so the
    // twiddle/bit-reversal tables are built exactly once per layout.
    const auto plan = signal::fftPlanFor(n);
    const size_t half_n = plan->halfSpectrumSize();
    signal::FftWorkspace &ws = signal::threadFftWorkspace();

    // Static kernel fields: transformed once per (bank, layout) and
    // cached. Fetched before the signal plane is built — the miss
    // path borrows the plane slot for its padding scratch.
    const auto kspec = kernelBankSpectrum(kernels, layout);

    // Signal field on the joint plane (the kernel blocks stay zero:
    // their contribution is the cached spectrum, added after the lens
    // — the lens transform is linear).
    std::vector<double> &plane = ws.realBuffer(kSlotJtcPlane, n);
    std::fill(plane.begin(), plane.end(), 0.0);
    std::copy(s.begin(), s.end(),
              plane.begin() + static_cast<long>(layout.signal_pos));

    // First lens: E -> F(u), on the r2c path (the plane is real).
    signal::ComplexVector &field = ws.complexBuffer(kSlotJtcHalf, half_n);
    plan->executeReal(plane.data(), field.data());
    for (size_t i = 0; i < half_n; ++i)
        field[i] += (*kspec)[i];

    photonics::Photodetector out_pd(config_.detector,
                                    config_.noise_seed + 1);
    if (!config_.noise) {
        // Fourier plane intensity |F|^2 of a real plane is even-
        // symmetric, so its stored half is the half-spectrum of the
        // (real) output plane: one c2r finishes the second lens.
        for (size_t i = 0; i < half_n; ++i)
            field[i] = signal::Complex(std::norm(field[i]), 0.0);
        out.resize(n);
        plan->executeRealInverse(field.data(), out.data());
        // A noiseless linear readout records the field as it is.
        if (config_.readout != ReadoutModel::Linear)
            for (size_t i = 0; i < n; ++i)
                out[i] = readOut(out[i], out[i], out_pd);
        return;
    }

    // Noise path: every one of the n Fourier-plane photodetectors
    // draws its own sensing noise, which breaks the Hermitian
    // symmetry — expand to the full intensity pattern and run the
    // full inverse transform, exactly as the noiseless math would
    // without the symmetry shortcut. The SNR target applies per
    // detector, i.e. noise scales with each detector's own signal
    // (not the plane peak — the DC term would otherwise drown the
    // correlation terms).
    photonics::Photodetector mid_pd(config_.detector, config_.noise_seed);
    std::vector<double> &intensity = ws.realBuffer(kSlotJtcPlane, n);
    for (size_t i = 0; i < half_n; ++i)
        intensity[i] = std::norm(field[i]);
    for (size_t i = half_n; i < n; ++i)
        intensity[i] = intensity[n - i];
    for (auto &value : intensity)
        value = std::max(0.0, mid_pd.addSensingNoise(value, value));

    // Second lens: I(u) -> R(x). The inverse DFT (with its 1/n) is the
    // correlation theorem: ifft(|fft(E)|^2)[d] = sum_x E[x] E[(x+d)%n],
    // exactly the circular autocorrelation of the joint plane. A
    // forward DFT would yield the mirrored plane; physical lenses
    // differ only by that reflection.
    signal::ComplexVector &spectrum = ws.complexBuffer(kSlotJtcFull, n);
    for (size_t i = 0; i < n; ++i)
        spectrum[i] = signal::Complex(intensity[i], 0.0);
    plan->execute(spectrum.data(), true);

    out.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const double r = spectrum[i].real();
        out[i] = readOut(r, r, out_pd);
    }
}

std::vector<double>
JtcSystem::fullCorrelation(const std::vector<double> &s,
                           const std::vector<double> &k) const
{
    std::vector<double> out;
    fullCorrelationInto(s, k, out);
    return out;
}

void
JtcSystem::fullCorrelationInto(const std::vector<double> &s,
                               const std::vector<double> &k,
                               std::vector<double> &out) const
{
    const JtcPlaneLayout layout = layoutFor(s, k);
    std::vector<double> &plane = signal::threadFftWorkspace().realBuffer(
        kSlotJtcOutPlane, layout.plane_size);
    outputPlaneInto(s, k, plane);

    // c[m] = R[q + m] for m in [-(Ls-1), Lk-1].
    const size_t n = layout.plane_size;
    const long q = static_cast<long>(layout.kernel_pos);
    const long m_lo = -static_cast<long>(s.size()) + 1;
    const long m_hi = static_cast<long>(k.size()) - 1;

    out.resize(static_cast<size_t>(m_hi - m_lo + 1));
    for (long m = m_lo; m <= m_hi; ++m) {
        const size_t idx = static_cast<size_t>(
            ((q + m) % static_cast<long>(n) + static_cast<long>(n)) %
            static_cast<long>(n));
        out[static_cast<size_t>(m - m_lo)] = plane[idx];
    }
}

std::vector<double>
JtcSystem::correlationWindow(const std::vector<double> &s,
                             const std::vector<double> &k,
                             size_t count, long start) const
{
    std::vector<double> out;
    correlationWindowInto(s, k, count, start, out);
    return out;
}

void
JtcSystem::correlationWindowInto(const std::vector<double> &s,
                                 const std::vector<double> &k,
                                 size_t count, long start,
                                 std::vector<double> &out) const
{
    correlationWindows(s, {&k, 1}, count, start, out);
}

void
JtcSystem::correlationWindowBatchInto(
    const std::vector<double> &s,
    const std::vector<std::vector<double>> &kernels, size_t count,
    long start, std::vector<double> &out) const
{
    correlationWindows(s, kernels, count, start, out);
}

void
JtcSystem::correlationWindows(const std::vector<double> &s,
                              std::span<const std::vector<double>> kernels,
                              size_t count, long start,
                              std::vector<double> &out) const
{
    pf_assert(!kernels.empty(), "JTC correlation with no kernels");
    for (const auto &k : kernels)
        pf_assert(k.size() == kernels[0].size(),
                  "tiled kernels must share one length");

    // Kernels per joint plane: the whole bank, or one each with noise
    // on. Per-detector noise draws depend on the plane geometry, so a
    // tiled plane would give a kernel different noise than a plane of
    // its own; with noise, determinism wins, and each kernel runs on
    // the bank-of-one plane (and cache entry) it would use alone.
    const size_t per_plane = config_.noise ? 1 : kernels.size();
    const JtcPlaneLayout layout = JtcPlaneLayout::designBatch(
        s.size(), kernels[0].size(), per_plane);
    std::vector<double> &plane = signal::threadFftWorkspace().realBuffer(
        kSlotJtcOutPlane, layout.plane_size);

    // Kernel j's window out[j*count + i] = c_j[-(start + i)], read
    // backwards off its own displaced cross band
    // (c_j[m + Ls - 1] = R[(q_j + m) % n]); the designBatch guard
    // bands keep every read position clear of the other kernels'
    // terms.
    const long n = static_cast<long>(layout.plane_size);
    const long zero_index = static_cast<long>(s.size()) - 1;
    const long c_size =
        static_cast<long>(s.size() + kernels[0].size()) - 1;
    out.resize(kernels.size() * count);
    for (size_t j = 0; j < kernels.size(); ++j) {
        const size_t slot = j % per_plane;
        if (slot == 0)
            jointPlane(s, kernels.subspan(j, per_plane), layout, plane);
        const long q = static_cast<long>(layout.kernel_pos +
                                         slot * layout.kernel_step);
        double *dst = out.data() + j * count;
        for (size_t i = 0; i < count; ++i) {
            const long idx = zero_index - (start + static_cast<long>(i));
            // Kernel fully past either end of the signal -> zero.
            dst[i] = idx >= 0 && idx < c_size
                         ? plane[static_cast<size_t>(
                               ((q + idx - zero_index) % n + n) % n)]
                         : 0.0;
        }
    }
}

std::vector<double>
slidingCorrelationReference(const std::vector<double> &s,
                            const std::vector<double> &k, size_t count,
                            long start)
{
    std::vector<double> out;
    slidingCorrelationInto(s, k, count, start, out);
    return out;
}

void
slidingCorrelationInto(const std::vector<double> &s,
                       const std::vector<double> &k, size_t count,
                       long start, std::vector<double> &out)
{
    out.resize(count);
    // Tiled kernels are mostly zero padding (rows separated by
    // Si - Sk zeros); skipping zero taps keeps this exact and fast.
    // The split index/value tap lists are what the SIMD sliding-dot
    // kernel broadcasts from, and they are per-thread scratch so the
    // hot path never allocates in steady state. Ascending tap order
    // (required by the kernel's safe-range computation) falls out of
    // the scan.
    static thread_local std::vector<size_t> tap_idx;
    static thread_local std::vector<double> tap_val;
    tap_idx.clear();
    tap_val.clear();
    for (size_t t = 0; t < k.size(); ++t) {
        if (k[t] != 0.0) {
            tap_idx.push_back(t);
            tap_val.push_back(k[t]);
        }
    }
    simd::kernels().slidingDot(s.data(), s.size(), tap_idx.data(),
                               tap_val.data(), tap_idx.size(), start,
                               count, out.data());
}

} // namespace jtc
} // namespace photofourier
