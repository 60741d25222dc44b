#include "fourier4f/system4f.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "photonics/converters.hh"
#include "signal/fft2d_plan.hh"

namespace photofourier {
namespace fourier4f {

namespace {

// Workspace slots 24-25 and 27: the fourier4f share of the optical-
// simulator range (see the slot discipline in fft_plan.hh). 27 holds
// the product planes of applyBank while the shared image spectrum
// stays live in 25.
constexpr size_t kSlot4fPad = 24;
constexpr size_t kSlot4fSpectrum = 25;
constexpr size_t kSlot4fBatchProducts = 27;

} // namespace

System4f::System4f(System4fConfig config,
                   std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
    pf_assert(config_.amplitude_bits >= 0 && config_.phase_bits >= 0,
              "negative modulator resolution");
}

signal::ComplexMatrix
System4f::programFilter(const signal::Matrix &kernel, size_t rows,
                        size_t cols) const
{
    pf_assert(kernel.rows <= rows && kernel.cols <= cols,
              "kernel larger than the Fourier plane");
    signal::ComplexMatrix padded(rows, cols);
    for (size_t r = 0; r < kernel.rows; ++r)
        for (size_t c = 0; c < kernel.cols; ++c)
            padded.at(r, c) = signal::Complex(kernel.at(r, c), 0.0);
    auto filter = signal::fft2d(padded);

    if (config_.amplitude_bits == 0 && config_.phase_bits == 0)
        return filter;

    // Quantize in polar form: amplitude on [0, max|H|], phase on
    // [-pi, pi] — that is what amplitude/phase modulators physically
    // resolve.
    double amp_max = 0.0;
    for (const auto &h : filter.data)
        amp_max = std::max(amp_max, std::abs(h));
    photonics::Quantizer amp_q(
        config_.amplitude_bits > 0 ? config_.amplitude_bits : 2,
        config_.amplitude_bits > 0 ? amp_max : 0.0);
    photonics::Quantizer phase_q(
        config_.phase_bits > 0 ? config_.phase_bits : 2,
        config_.phase_bits > 0 ? M_PI : 0.0);

    for (auto &h : filter.data) {
        const double amp = amp_q.quantize(std::abs(h));
        const double phase = phase_q.quantize(std::arg(h));
        h = std::polar(amp, phase);
    }
    return filter;
}

std::shared_ptr<const signal::ComplexVector>
System4f::filterBankHalfSpectrum(std::span<const signal::Matrix> kernels,
                                 size_t rows, size_t cols) const
{
    // One content-addressed entry for the whole bank: the payload is
    // the concatenated kernel bytes (so any kernel change re-programs
    // the bank) and the salt carries the tiling geometry — plane
    // shape, per-kernel shape (equal bytes in different shapes pad
    // differently), bank size, and the modulator bits the
    // quantization depends on.
    uint64_t salt = signal::planeSpectrumSalt(rows);
    salt = signal::planeSpectrumSalt(cols, salt);
    salt = signal::planeSpectrumSalt(kernels[0].rows, salt);
    salt = signal::planeSpectrumSalt(kernels[0].cols, salt);
    salt = signal::planeSpectrumSalt(kernels.size(), salt);
    salt = signal::planeSpectrumSalt(
        static_cast<uint64_t>(config_.amplitude_bits), salt);
    salt = signal::planeSpectrumSalt(
        static_cast<uint64_t>(config_.phase_bits), salt);

    struct Ctx
    {
        const System4f *self;
        std::span<const signal::Matrix> kernels;
        size_t rows, cols;
    } ctx{this, kernels, rows, cols};
    const size_t hc = cols / 2 + 1;
    return spectra_->spectrum(
        salt, signal::bankPayload(kernels, &signal::Matrix::data),
        kernels.size() * rows * hc, [&ctx](signal::ComplexVector &out) {
            // Program each filter (FT + polar quantization), then keep
            // its Hermitian half at plane j of the contiguous bank. The
            // quantizer is symmetric (q(-x) == -q(x)), so the programmed
            // filter stays Hermitian and the half representation is
            // lossless.
            const size_t hc = ctx.cols / 2 + 1;
            for (size_t j = 0; j < ctx.kernels.size(); ++j) {
                const auto filter = ctx.self->programFilter(
                    ctx.kernels[j], ctx.rows, ctx.cols);
                signal::Complex *dst = out.data() + j * ctx.rows * hc;
                for (size_t r = 0; r < ctx.rows; ++r)
                    for (size_t c = 0; c < hc; ++c)
                        dst[r * hc + c] = filter.at(r, c);
            }
        });
}

void
System4f::applyBank(const signal::Matrix &image,
                    std::span<const signal::Matrix> kernels,
                    std::span<signal::Matrix> outs) const
{
    pf_assert(!kernels.empty(), "4F apply with no kernels");
    pf_assert(image.rows > 0 && kernels[0].rows > 0, "empty operands");
    for (const auto &k : kernels)
        pf_assert(k.rows == kernels[0].rows &&
                      k.cols == kernels[0].cols,
                  "a 4F filter bank must share one kernel shape");
    const size_t count = kernels.size();
    const size_t rows = image.rows + kernels[0].rows - 1;
    const size_t cols = image.cols + kernels[0].cols - 1;
    const auto plan = signal::fft2dPlanFor(rows, cols);
    const size_t hc = plan->halfCols();
    const size_t half_plane = rows * hc;
    signal::FftWorkspace &ws = signal::threadFftWorkspace();

    // The whole programmed filter bank in one cache lookup: filters
    // are static per kernel set, transformed (and quantized) once.
    const auto bank = filterBankHalfSpectrum(kernels, rows, cols);

    // Input-side lens ONCE (r2c: the input plane is real). The input
    // transform is filter-independent, so its cost is shared by every
    // kernel of the bank.
    std::vector<double> &padded = ws.realBuffer(kSlot4fPad, rows * cols);
    std::fill(padded.begin(), padded.end(), 0.0);
    for (size_t r = 0; r < image.rows; ++r)
        std::copy(image.data.begin() + r * image.cols,
                  image.data.begin() + (r + 1) * image.cols,
                  padded.begin() + r * cols);
    signal::ComplexVector &spectrum =
        ws.complexBuffer(kSlot4fSpectrum, half_plane);
    plan->forwardReal(padded.data(), spectrum.data());

    // Fourier plane: k pointwise products against the bank.
    signal::ComplexVector &products =
        ws.complexBuffer(kSlot4fBatchProducts, count * half_plane);
    for (size_t j = 0; j < count; ++j) {
        const signal::Complex *h = bank->data() + j * half_plane;
        signal::Complex *p = products.data() + j * half_plane;
        for (size_t i = 0; i < half_plane; ++i)
            p[i] = spectrum[i] * h[i];
    }

    // Output-side lenses fused: one batched c2r over the k product
    // planes (shared transpose pair, one column batch), landing in the
    // padded-image slot — its contents are consumed by now.
    std::vector<double> &planes =
        ws.realBuffer(kSlot4fPad, count * rows * cols);
    plan->inverseRealBatchInto(products.data(), count, planes.data());

    for (size_t j = 0; j < count; ++j) {
        outs[j].resizeNoFill(rows, cols);
        std::copy(planes.begin() +
                      static_cast<long>(j * rows * cols),
                  planes.begin() +
                      static_cast<long>((j + 1) * rows * cols),
                  outs[j].data.begin());
    }
}

void
System4f::applyBatchInto(const signal::Matrix &image,
                         const std::vector<signal::Matrix> &kernels,
                         std::vector<signal::Matrix> &outs) const
{
    outs.resize(kernels.size());
    applyBank(image, kernels, outs);
}

signal::Matrix
System4f::convolve(const signal::Matrix &image,
                   const signal::Matrix &kernel) const
{
    signal::Matrix out;
    apply(image, kernel, out);
    return out;
}

void
System4f::apply(const signal::Matrix &image, const signal::Matrix &kernel,
                signal::Matrix &out) const
{
    applyBank(image, {&kernel, 1}, {&out, 1});
}

Requirements4f
System4f::requirements(size_t input_size, size_t kernel_size)
{
    pf_assert(input_size >= kernel_size, "kernel larger than input");
    Requirements4f req;
    req.modulators = input_size * input_size;
    req.dofs = 2 * req.modulators; // amplitude + phase per pixel
    req.weight_values_per_update = req.dofs;
    req.jtc_weight_taps = kernel_size * kernel_size;
    return req;
}

} // namespace fourier4f
} // namespace photofourier
