/**
 * @file
 * A ConvEngine decorator that times every call it forwards and can keep
 * the operands. Bound to a network with Network::setConvEngine (which
 * reaches the conv layers nested inside residual blocks), it gives the
 * benchmark each conv layer's shape, weights and inputs, and its
 * measured time, without touching the library.
 */

#ifndef PERFBENCH_CONV_CAPTURE_HH
#define PERFBENCH_CONV_CAPTURE_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

/** One forwarded convolveBatch call. */
struct ConvCall
{
    std::vector<nn::Tensor> inputs; ///< kept only when capturing
    std::vector<nn::Tensor> weights;
    std::vector<double> bias;
    size_t stride = 1;
    signal::ConvMode mode = signal::ConvMode::Same;
    size_t in_channels = 0, out_channels = 0, input_size = 0, kernel = 0;
    double seconds = 0.0;
};

class CapturingEngine : public nn::ConvEngine
{
  public:
    CapturingEngine(std::shared_ptr<const nn::ConvEngine> inner,
                    bool keep_operands)
        : inner_(std::move(inner)), keep_(keep_operands)
    {
    }

    nn::Tensor convolve(const nn::Tensor &input,
                        const std::vector<nn::Tensor> &weights,
                        const std::vector<double> &bias, size_t stride,
                        signal::ConvMode mode) const override
    {
        return convolveBatch({input}, weights, bias, stride, mode)[0];
    }

    std::vector<nn::Tensor>
    convolveBatch(const std::vector<nn::Tensor> &inputs,
                  const std::vector<nn::Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const override
    {
        const auto t0 = Clock::now();
        auto outs = inner_->convolveBatch(inputs, weights, bias, stride,
                                          mode);
        ConvCall call;
        call.seconds = secondsSince(t0);
        call.stride = stride;
        call.mode = mode;
        call.in_channels = inputs[0].channels();
        call.out_channels = weights.size();
        call.input_size = inputs[0].height();
        call.kernel = weights[0].height();
        if (keep_) {
            call.inputs = inputs;
            call.weights = weights;
            call.bias = bias;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        calls_.push_back(std::move(call));
        return outs;
    }

    std::string name() const override { return inner_->name(); }

    /** Calls recorded so far, in call order. */
    std::vector<ConvCall> calls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        calls_.clear();
    }

  private:
    std::shared_ptr<const nn::ConvEngine> inner_;
    bool keep_;
    mutable std::mutex mutex_;
    mutable std::vector<ConvCall> calls_;
};

/** Every conv call (operands kept) of one `Network::logitsBatch` of
 *  `images` through `model` on the direct engine. */
std::vector<ConvCall> captureConvLayers(const std::string &model,
                                        const std::vector<nn::Tensor> &images);

} // namespace perfbench

#endif // PERFBENCH_CONV_CAPTURE_HH
