/**
 * @file
 * The output oracle: a naive nested-loop 2D correlation written here,
 * apart from the library, checked against every conv engine the
 * workloads run on every conv layer of the three models.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "conv_capture.hh"
#include "oracle.hh"

namespace perfbench {

std::vector<ConvCall>
captureConvLayers(const std::string &model,
                  const std::vector<nn::Tensor> &images)
{
    nn::Network net = buildModel(model);
    auto capture = std::make_shared<CapturingEngine>(
        std::make_shared<nn::DirectEngine>(nullptr, nn::ConvPath::Direct),
        /*keep_operands=*/true);
    net.setConvEngine(capture);
    net.logitsBatch(images);
    return capture->calls();
}

namespace {

/** Naive nested-loop 2D correlation, summed over input channels. */
nn::Tensor
naiveConv(const nn::Tensor &input, const std::vector<nn::Tensor> &weights,
          const std::vector<double> &bias, size_t stride,
          signal::ConvMode mode)
{
    const long h = static_cast<long>(input.height());
    const long w = static_cast<long>(input.width());
    const long k = static_cast<long>(weights[0].height());
    const long s = static_cast<long>(stride);
    const bool same = mode == signal::ConvMode::Same;
    const long pad = same ? k / 2 : 0;
    const long oh = same ? (h + s - 1) / s : (h - k) / s + 1;
    const long ow = same ? (w + s - 1) / s : (w - k) / s + 1;
    nn::Tensor out(weights.size(), static_cast<size_t>(oh),
                   static_cast<size_t>(ow));
    for (size_t oc = 0; oc < weights.size(); ++oc) {
        for (long y = 0; y < oh; ++y) {
            for (long x = 0; x < ow; ++x) {
                double acc = bias.empty() ? 0.0 : bias[oc];
                for (size_t ic = 0; ic < input.channels(); ++ic) {
                    for (long i = 0; i < k; ++i) {
                        const long yy = y * s + i - pad;
                        if (yy < 0 || yy >= h)
                            continue;
                        for (long j = 0; j < k; ++j) {
                            const long xx = x * s + j - pad;
                            if (xx < 0 || xx >= w)
                                continue;
                            acc += input.at(ic, static_cast<size_t>(yy),
                                            static_cast<size_t>(xx)) *
                                   weights[oc].at(ic, static_cast<size_t>(i),
                                                  static_cast<size_t>(j));
                        }
                    }
                }
                out.at(oc, static_cast<size_t>(y), static_cast<size_t>(x)) =
                    acc;
            }
        }
    }
    return out;
}

/** max |got - want| / max |want| (infinite on a shape mismatch). */
double
relativeError(const nn::Tensor &got, const nn::Tensor &want)
{
    if (got.channels() != want.channels() || got.height() != want.height() ||
        got.width() != want.width())
        return INFINITY;
    double diff = 0.0, scale = 0.0;
    for (size_t i = 0; i < want.size(); ++i) {
        diff = std::max(diff, std::fabs(got.data()[i] - want.data()[i]));
        scale = std::max(scale, std::fabs(want.data()[i]));
    }
    return diff / std::max(scale, 1e-300);
}

} // namespace

OracleReport
checkEnginesAgainstOracle(const nn::Tensor &image, Checks &checks)
{
    nn::PhotoFourierEngineConfig ideal = photonicConfig(false);
    ideal.dac_bits = 0;
    ideal.adc_bits = 0;
    ideal.zero_pad_rows = true;
    nn::PhotoFourierEngineConfig ideal_optical = ideal;
    ideal_optical.optical_backend = true;

    const std::vector<std::pair<std::string,
                                std::shared_ptr<const nn::ConvEngine>>>
        engines = {
            {"direct",
             std::make_shared<nn::DirectEngine>(nullptr,
                                                nn::ConvPath::Direct)},
            {"fft_rows",
             std::make_shared<nn::DirectEngine>(nullptr, nn::ConvPath::Fft)},
            {"photonic_ideal",
             std::make_shared<nn::PhotoFourierEngine>(ideal)},
            {"optical_ideal",
             std::make_shared<nn::PhotoFourierEngine>(ideal_optical)},
        };

    OracleReport report;
    for (const std::string &model : kModels) {
        const auto layers = captureConvLayers(model, {image});
        for (size_t li = 0; li < layers.size(); ++li) {
            const ConvCall &call = layers[li];
            const nn::Tensor want = naiveConv(call.inputs[0], call.weights,
                                              call.bias, call.stride,
                                              call.mode);
            for (const auto &[name, engine] : engines) {
                const nn::Tensor got =
                    engine->convolveBatch(call.inputs, call.weights,
                                          call.bias, call.stride,
                                          call.mode)[0];
                const double err = relativeError(got, want);
                report.max_rel_error = std::max(report.max_rel_error, err);
                ++report.comparisons;
                if (!(err <= kOracleTolerance)) {
                    char buf[256];
                    std::snprintf(buf, sizeof(buf),
                                  "oracle: %s conv %zu on %s: relative "
                                  "error %.3g > %.0e",
                                  model.c_str(), li, name.c_str(), err,
                                  kOracleTolerance);
                    checks.fail(buf);
                }
            }
        }
    }
    return report;
}

} // namespace perfbench
