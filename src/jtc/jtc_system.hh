/**
 * @file
 * Field-level simulation of a 1D on-chip Joint Transform Correlator.
 *
 * Optical path (paper Figure 1a / Section II-A):
 *
 *   joint input plane  E(x) = s(x - p_s) + k(x - p_k)
 *        | first 1D metasurface lens  ->  F(u) = FT[E](u)
 *   Fourier plane      I(u) = |F(u)|^2   (photodetector square law,
 *        |                                re-modulated onto light by EOMs)
 *        | second 1D lens             ->  R(x) = FT[I](x)
 *   output plane       R = s*s + k*k (center, the O(x) term)
 *                        + corr(s,k) displaced to +(p_k - p_s)
 *                        + corr(k,s) displaced to -(p_k - p_s)
 *
 * With a sampled field the lens FT is a DFT and R is the *circular*
 * autocorrelation of the joint plane; JtcPlaneLayout chooses the plane
 * size and input separation so the three terms never alias into each
 * other (the spatial separation trick of Section II-A, Figure 2).
 *
 * Readout: Equation (1) treats the recorded pattern as the correlation
 * amplitude itself. Physically a photodetector reads |R|^2; because all
 * CNN operands are non-negative here (activations post-ReLU, weights via
 * pseudo-negative decomposition) the amplitude is recoverable by a
 * square root, and temporal accumulation requires the linear value. Both
 * models are provided; Linear is the default used by the accelerator.
 */

#ifndef PHOTOFOURIER_JTC_JTC_SYSTEM_HH
#define PHOTOFOURIER_JTC_JTC_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "photonics/photodetector.hh"
#include "signal/fft.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace jtc {

/** How the final photodetector row converts field to recorded value. */
enum class ReadoutModel
{
    Linear,    ///< record R(x) directly (Equation 1 reading; default)
    SquareLaw, ///< record |R(x)|^2, then take a digital square root
};

/**
 * Geometry of the joint input plane.
 *
 * Chosen such that on the output plane the central O(x) term, the
 * cross-correlation term and its mirror occupy disjoint index ranges.
 */
struct JtcPlaneLayout
{
    size_t signal_len;   ///< samples of the signal input s
    size_t kernel_len;   ///< samples of the kernel input k
    size_t signal_pos;   ///< plane index where s starts (always 0)
    size_t kernel_pos;   ///< plane index where k starts (the separation)
    size_t plane_size;   ///< total samples of the joint plane (pow2)

    /** Tiled kernels sharing this plane (1 = the classic layout). */
    size_t kernel_count = 1;

    /** Plane spacing between consecutive tiled kernels (0 = single).
     *  Kernel j starts at kernel_pos + j * kernel_step. */
    size_t kernel_step = 0;

    /**
     * Compute a non-aliasing layout for the given input sizes.
     *
     * Separation q >= max(Ls, Lk) + Ls - 1 keeps the cross term clear of
     * the central term; plane size >= 2q + 2Lk keeps the mirror term
     * clear of the cross term.
     */
    static JtcPlaneLayout design(size_t signal_len, size_t kernel_len);

    /**
     * Layout tiling `kernel_count` kernels onto ONE joint plane, so a
     * single Fourier pass yields every kernel's correlation (the lens
     * is linear — the multi-channel trick of arXiv:2112.12297).
     *
     * Guard bands, sized from the correlation support: kernels sit at
     * q_j = q_0 + j*S with spacing S = Ls + 3*Lk - 2, which interleaves
     * each signal-kernel cross band (width Ls+Lk-1, centred at lag
     * q_j) exactly between the kernel-kernel cross bands (width
     * 2*Lk-1, at lags j*S) with one clear sample on each side;
     * q_0 = Ls + Lk - 1 + m*S with the smallest m clearing the central
     * term (m*S >= max(Ls,Lk) - Lk), and the plane size
     * >= 2*q_last + 2*Lk keeps every mirror band past every cross
     * band. kernel_count == 1 returns design() exactly, so a lone
     * kernel is a bank of one on the classic plane.
     */
    static JtcPlaneLayout designBatch(size_t signal_len,
                                      size_t kernel_len,
                                      size_t kernel_count);
};

/** Configuration of a JTC simulation instance. */
struct JtcConfig
{
    /** Readout conversion at the final detector row. */
    ReadoutModel readout = ReadoutModel::Linear;

    /** Inject photodetector sensing noise in the Fourier plane and at
     *  readout. Off by default: accuracy experiments switch it on. */
    bool noise = false;

    /** Detector parameters used when noise is enabled. */
    photonics::PhotodetectorConfig detector;

    /** Seed for noise injection. */
    uint64_t noise_seed = 1;
};

/**
 * One JTC evaluation: both full-plane output (for Figure 2 style
 * inspection) and the extracted correlation (for compute).
 */
class JtcSystem
{
  public:
    /**
     * Build a simulator with the given configuration.
     *
     * The joint plane is the sum of the signal field and the static
     * kernel field, and the lens transform is linear — so the
     * kernel's contribution to the Fourier plane is transformed once
     * per (kernel bytes, plane layout) and cached in `spectra`;
     * every correlate call transforms only the streamed signal.
     * Pass a shared cache to amortize across instances (the tiled
     * optical backend constructs a JtcSystem per call and the engine
     * shares the serving registry's per-model cache); null gives
     * this instance a private cache, which still amortizes repeated
     * kernels across calls.
     */
    explicit JtcSystem(
        JtcConfig config = {},
        std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

    /**
     * Propagate the joint plane through the full optical path and
     * return the recorded output plane (size = layout.plane_size).
     * Index d holds the circular autocorrelation R[d] of the joint
     * plane; the three JTC terms appear at their displaced positions.
     *
     * @param s signal samples (non-negative for physical fidelity)
     * @param k kernel samples
     */
    std::vector<double> outputPlane(const std::vector<double> &s,
                                    const std::vector<double> &k) const;

    /**
     * outputPlane writing into `out` (resized to the plane size,
     * capacity reused). With a warm kernel-spectrum cache the
     * noiseless path is allocation-free: one r2c of the signal
     * plane, the cached kernel spectrum added in the Fourier plane,
     * the detected intensity inverted through one c2r.
     */
    void outputPlaneInto(const std::vector<double> &s,
                         const std::vector<double> &k,
                         std::vector<double> &out) const;

    /**
     * Full cross-correlation c[m] = sum_i s[i] k[i + m] extracted from
     * the output plane, for m in [-(Ls-1), Lk-1]; returned with index
     * offset so that result[m + Ls - 1] == c[m].
     */
    std::vector<double> fullCorrelation(const std::vector<double> &s,
                                        const std::vector<double> &k) const;

    /** fullCorrelation writing into `out` (allocation-free with a
     *  warm cache; the plane lives in per-thread scratch). */
    void fullCorrelationInto(const std::vector<double> &s,
                             const std::vector<double> &k,
                             std::vector<double> &out) const;

    /**
     * The CNN-style sliding correlation window the hardware reads:
     * out[i] = sum_t s[start + i + t] k[t] for i in [0, count), where
     * samples outside s contribute zero. The start shift is set in
     * hardware by the relative placement of the two inputs on the
     * joint plane (x_s, x_k offsets); `same`-mode row tiling uses a
     * negative start so left-edge windows fall inside the readout.
     *
     * @param s      signal samples
     * @param k      kernel samples
     * @param count  number of output shifts (the paper reads Nconv)
     * @param start  shift of the first output (may be negative)
     */
    std::vector<double> correlationWindow(const std::vector<double> &s,
                                          const std::vector<double> &k,
                                          size_t count,
                                          long start = 0) const;

    /** correlationWindow writing into `out` — the optical-backend
     *  hot path: correlationWindowBatchInto's pass with a bank of
     *  one. Allocation-free with a warm kernel cache. */
    void correlationWindowInto(const std::vector<double> &s,
                               const std::vector<double> &k,
                               size_t count, long start,
                               std::vector<double> &out) const;

    /**
     * Every kernel's window from ONE Fourier pass. The kernels (all
     * one length) tile a single joint plane
     * (JtcPlaneLayout::designBatch); their summed field spectrum is
     * cached as one bank entry, so one r2c + |.|^2 + c2r on the tiled
     * plane serves all of them, and kernel j's window is read at its
     * own displaced lag. `out` holds the windows back to back (kernel
     * j at out[j * count]). Matches k bank-of-one calls within FFT
     * rounding of the larger plane. With noise enabled each kernel
     * runs on its own bank-of-one plane instead, so every
     * (request, kernel) readout draws the same noise stream either
     * way. Allocation-free with a warm bank cache.
     */
    void correlationWindowBatchInto(
        const std::vector<double> &s,
        const std::vector<std::vector<double>> &kernels, size_t count,
        long start, std::vector<double> &out) const;

    /** Layout used for the most recent evaluation sizes. */
    static JtcPlaneLayout layoutFor(const std::vector<double> &s,
                                    const std::vector<double> &k);

    /** The configuration of this instance. */
    const JtcConfig &config() const { return config_; }

    /** The kernel-plane spectrum cache this instance reads/populates. */
    const std::shared_ptr<signal::PlaneSpectrumCache> &
    spectrumCache() const
    {
        return spectra_;
    }

  private:
    JtcConfig config_;
    std::shared_ptr<signal::PlaneSpectrumCache> spectra_;

    /** The one body of correlationWindowInto and
     *  correlationWindowBatchInto. */
    void correlationWindows(const std::vector<double> &s,
                            std::span<const std::vector<double>> kernels,
                            size_t count, long start,
                            std::vector<double> &out) const;

    /** The recorded output plane of `s` beside the kernel fields of
     *  `layout` (readout and noise applied); outputPlaneInto is the
     *  bank of one on the classic layout. */
    void jointPlane(const std::vector<double> &s,
                    std::span<const std::vector<double>> kernels,
                    const JtcPlaneLayout &layout,
                    std::vector<double> &out) const;

    /** The cached summed Fourier-plane contribution of every tiled
     *  kernel (kernel j at layout.kernel_pos + j*kernel_step) — one
     *  bank entry per (kernel bytes, tiling geometry). */
    std::shared_ptr<const signal::ComplexVector> kernelBankSpectrum(
        std::span<const std::vector<double>> kernels,
        const JtcPlaneLayout &layout) const;

    /** Apply the configured readout model (+ optional noise). */
    double readOut(double field_value, double scale,
                   photonics::Photodetector &pd) const;
};

/**
 * Reference (non-optical) implementation of correlationWindow used by
 * tests to validate the optical path: direct O(N^2) sliding dot product
 * with zero extension.
 */
std::vector<double> slidingCorrelationReference(const std::vector<double> &s,
                                                const std::vector<double> &k,
                                                size_t count,
                                                long start = 0);

/**
 * Allocation-free variant: writes the window into `out` (resized to
 * count, capacity reused). This is the digital-backend hot path — the
 * tiled executor calls it once per tile per request.
 */
void slidingCorrelationInto(const std::vector<double> &s,
                            const std::vector<double> &k, size_t count,
                            long start, std::vector<double> &out);

} // namespace jtc
} // namespace photofourier

#endif // PHOTOFOURIER_JTC_JTC_SYSTEM_HH
