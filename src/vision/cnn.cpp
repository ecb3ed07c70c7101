#include "vision/cnn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/logging.h"
#include "math/gemm.h"

namespace sov {

Tensor::Tensor(std::size_t channels, std::size_t height, std::size_t width,
               std::vector<float> data)
    : c_(channels), h_(height), w_(width), data_(std::move(data))
{
    SOV_ASSERT(data_.size() == c_ * h_ * w_);
}

Tensor
Tensor::fromImage(const Image &image)
{
    // Row-major image == 1 x H x W CHW tensor: one buffer copy.
    return Tensor(1, image.height(), image.width(), image.data());
}

Tensor
Tensor::fromImage(Image &&image)
{
    const std::size_t h = image.height();
    const std::size_t w = image.width();
    return Tensor(1, h, w, std::move(image.data()));
}

// ---------------------------------------------------------------- Conv2d

namespace {

/** Transpose of im2col: scatter-add col rows back into image space. */
void
col2imAdd(const float *col, std::size_t in_c, std::size_t k, std::size_t h,
          std::size_t w, Tensor &out)
{
    const long pad = static_cast<long>(k / 2);
    const std::size_t n = h * w;
    std::size_t row = 0;
    for (std::size_t i = 0; i < in_c; ++i) {
        for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx, ++row) {
                const float *src = col + row * n;
                for (std::size_t y = 0; y < h; ++y) {
                    const long sy = static_cast<long>(y + ky) - pad;
                    if (sy < 0 || sy >= static_cast<long>(h))
                        continue;
                    for (std::size_t x = 0; x < w; ++x) {
                        const long sx = static_cast<long>(x + kx) - pad;
                        if (sx < 0 || sx >= static_cast<long>(w))
                            continue;
                        out(i, static_cast<std::size_t>(sy),
                            static_cast<std::size_t>(sx)) += src[y * w + x];
                    }
                }
            }
        }
    }
}

} // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, Rng &rng)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel),
      weights_(out_channels * in_channels * kernel * kernel),
      bias_(out_channels, 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_bias_(out_channels, 0.0f)
{
    // He initialization.
    const double scale =
        std::sqrt(2.0 / static_cast<double>(in_c_ * k_ * k_));
    for (auto &w : weights_)
        w = static_cast<float>(rng.gaussian(0.0, scale));
}

float &
Conv2d::weight(std::size_t o, std::size_t i, std::size_t ky, std::size_t kx)
{
    return weights_[((o * in_c_ + i) * k_ + ky) * k_ + kx];
}

Tensor
Conv2d::forward(Tensor input, bool cache_for_backward)
{
    SOV_ASSERT(input.channels() == in_c_);
    Tensor out(out_c_, input.height(), input.width());
    if (backend_ != KernelBackend::Reference)
        forwardFast(input, out);
    else
        forwardReference(input, out);
    if (cache_for_backward)
        cached_input_ = std::move(input);
    return out;
}

void
Conv2d::forwardReference(const Tensor &input, Tensor &out) const
{
    const std::size_t h = input.height();
    const std::size_t w = input.width();
    const long pad = static_cast<long>(k_ / 2);

    for (std::size_t o = 0; o < out_c_; ++o) {
        for (std::size_t y = 0; y < h; ++y) {
            for (std::size_t x = 0; x < w; ++x) {
                float acc = bias_[o];
                for (std::size_t i = 0; i < in_c_; ++i) {
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        const long sy = static_cast<long>(y + ky) - pad;
                        if (sy < 0 || sy >= static_cast<long>(h))
                            continue;
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            const long sx =
                                static_cast<long>(x + kx) - pad;
                            if (sx < 0 || sx >= static_cast<long>(w))
                                continue;
                            acc += weights_[((o * in_c_ + i) * k_ + ky) *
                                            k_ + kx] *
                                input(i, static_cast<std::size_t>(sy),
                                      static_cast<std::size_t>(sx));
                        }
                    }
                }
                out(o, y, x) = acc;
            }
        }
    }
}

void
Conv2d::im2colInto(const Tensor &input, float *col) const
{
    const std::size_t h = input.height();
    const std::size_t w = input.width();
    const long pad = static_cast<long>(k_ / 2);
    const std::size_t n = h * w;

    // Row order (i, ky, kx) matches the weight layout, so weights_ can
    // be used as the [out_c x in_c*k*k] GEMM operand unchanged.
    std::size_t row = 0;
    for (std::size_t i = 0; i < in_c_; ++i) {
        for (std::size_t ky = 0; ky < k_; ++ky) {
            for (std::size_t kx = 0; kx < k_; ++kx, ++row) {
                float *dst = col + row * n;
                for (std::size_t y = 0; y < h; ++y) {
                    const long sy = static_cast<long>(y + ky) - pad;
                    if (sy < 0 || sy >= static_cast<long>(h)) {
                        std::fill_n(dst + y * w, w, 0.0f);
                        continue;
                    }
                    const float *srow =
                        input.data().data() +
                        (i * h + static_cast<std::size_t>(sy)) * w;
                    for (std::size_t x = 0; x < w; ++x) {
                        const long sx = static_cast<long>(x + kx) - pad;
                        dst[y * w + x] =
                            (sx < 0 || sx >= static_cast<long>(w))
                                ? 0.0f
                                : srow[static_cast<std::size_t>(sx)];
                    }
                }
            }
        }
    }
}

void
Conv2d::forwardFast(const Tensor &input, Tensor &out)
{
    const std::size_t h = input.height();
    const std::size_t w = input.width();
    const std::size_t n = h * w;
    const std::size_t kk = in_c_ * k_ * k_;

    scratch_.reset();
    float *col = scratch_.alloc<float>(kk * n);
    im2colInto(input, col);

    // Seed every output row with its bias, then out += W * col. The
    // GEMM accumulates each element in ascending k order — the same
    // order as the reference loop nest (zero-padded taps add 0.0f).
    float *od = out.data().data();
    for (std::size_t o = 0; o < out_c_; ++o)
        std::fill_n(od + o * n, n, bias_[o]);
    gemmF32(out_c_, n, kk, weights_.data(), col, od, detectSimdLevel());
}

Tensor
Conv2d::backward(const Tensor &grad_output)
{
    if (backend_ != KernelBackend::Reference)
        return backwardFast(grad_output);
    return backwardReference(grad_output);
}

Tensor
Conv2d::backwardReference(const Tensor &grad_output)
{
    const Tensor &input = cached_input_;
    const std::size_t h = input.height();
    const std::size_t w = input.width();
    const long pad = static_cast<long>(k_ / 2);
    Tensor grad_input(in_c_, h, w);

    for (std::size_t o = 0; o < out_c_; ++o) {
        for (std::size_t y = 0; y < h; ++y) {
            for (std::size_t x = 0; x < w; ++x) {
                const float go = grad_output(o, y, x);
                if (go == 0.0f)
                    continue;
                grad_bias_[o] += go;
                for (std::size_t i = 0; i < in_c_; ++i) {
                    for (std::size_t ky = 0; ky < k_; ++ky) {
                        const long sy = static_cast<long>(y + ky) - pad;
                        if (sy < 0 || sy >= static_cast<long>(h))
                            continue;
                        for (std::size_t kx = 0; kx < k_; ++kx) {
                            const long sx =
                                static_cast<long>(x + kx) - pad;
                            if (sx < 0 || sx >= static_cast<long>(w))
                                continue;
                            const auto sys =
                                static_cast<std::size_t>(sy);
                            const auto sxs =
                                static_cast<std::size_t>(sx);
                            const std::size_t widx =
                                ((o * in_c_ + i) * k_ + ky) * k_ + kx;
                            grad_weights_[widx] +=
                                go * input(i, sys, sxs);
                            grad_input(i, sys, sxs) +=
                                go * weights_[widx];
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

Tensor
Conv2d::backwardFast(const Tensor &grad_output)
{
    const Tensor &input = cached_input_;
    const std::size_t h = input.height();
    const std::size_t w = input.width();
    const std::size_t n = h * w;
    const std::size_t kk = in_c_ * k_ * k_;

    scratch_.reset();
    float *col = scratch_.alloc<float>(kk * n);
    float *gcol = scratch_.alloc<float>(kk * n);
    im2colInto(input, col);

    const float *go = grad_output.data().data();
    for (std::size_t o = 0; o < out_c_; ++o) {
        float acc = 0.0f;
        const float *row = go + o * n;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j];
        grad_bias_[o] += acc;
    }

    const SimdLevel level = detectSimdLevel();

    // dW += dOut [out_c x n] * col^T  (col stored row-major [kk x n]).
    gemmNtF32(out_c_, kk, n, go, col, grad_weights_.data(), level);

    // dCol = W^T [kk x out_c] * dOut  (weights stored [out_c x kk]).
    std::fill_n(gcol, kk * n, 0.0f);
    gemmTnF32(kk, n, out_c_, weights_.data(), go, gcol, level);

    Tensor grad_input(in_c_, h, w);
    col2imAdd(gcol, in_c_, k_, h, w, grad_input);
    return grad_input;
}

void
Conv2d::applyGradients(float lr, std::size_t batch)
{
    const float scale = lr / static_cast<float>(batch);
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        weights_[i] -= scale * grad_weights_[i];
        grad_weights_[i] = 0.0f;
    }
    for (std::size_t i = 0; i < bias_.size(); ++i) {
        bias_[i] -= scale * grad_bias_[i];
        grad_bias_[i] = 0.0f;
    }
}

std::size_t
Conv2d::parameterCount() const
{
    return weights_.size() + bias_.size();
}

std::size_t
Conv2d::macs(std::size_t in_h, std::size_t in_w) const
{
    return out_c_ * in_h * in_w * in_c_ * k_ * k_;
}

// ------------------------------------------------------------------ Relu

Tensor
Relu::forward(Tensor input, bool cache_for_backward)
{
    if (cache_for_backward)
        cached_input_ = input; // copy: backward needs the signs
    for (auto &v : input.data())
        v = std::max(v, 0.0f);
    return input;
}

Tensor
Relu::backward(const Tensor &grad_output)
{
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.data().size(); ++i)
        if (cached_input_.data()[i] <= 0.0f)
            grad.data()[i] = 0.0f;
    return grad;
}

// -------------------------------------------------------------- MaxPool2

Tensor
MaxPool2::forward(Tensor input, bool cache_for_backward)
{
    out_c_ = input.channels();
    in_h_ = input.height();
    in_w_ = input.width();
    out_h_ = in_h_ / 2;
    out_w_ = in_w_ / 2;
    Tensor out(out_c_, out_h_, out_w_);
    if (cache_for_backward)
        argmax_.assign(out.size(), 0);

    for (std::size_t c = 0; c < out_c_; ++c) {
        for (std::size_t y = 0; y < out_h_; ++y) {
            for (std::size_t x = 0; x < out_w_; ++x) {
                float best = -1e30f;
                std::size_t best_idx = 0;
                for (std::size_t dy = 0; dy < 2; ++dy) {
                    for (std::size_t dx = 0; dx < 2; ++dx) {
                        const std::size_t sy = 2 * y + dy;
                        const std::size_t sx = 2 * x + dx;
                        const float v = input(c, sy, sx);
                        if (v > best) {
                            best = v;
                            best_idx = (c * in_h_ + sy) * in_w_ + sx;
                        }
                    }
                }
                out(c, y, x) = best;
                if (cache_for_backward)
                    argmax_[(c * out_h_ + y) * out_w_ + x] = best_idx;
            }
        }
    }
    return out;
}

Tensor
MaxPool2::backward(const Tensor &grad_output)
{
    Tensor grad(out_c_, in_h_, in_w_);
    for (std::size_t i = 0; i < grad_output.size(); ++i)
        grad.data()[argmax_[i]] += grad_output.data()[i];
    return grad;
}

// ----------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : in_f_(in_features), out_f_(out_features),
      weights_(in_features * out_features), bias_(out_features, 0.0f),
      grad_weights_(weights_.size(), 0.0f), grad_bias_(out_features, 0.0f)
{
    const double scale = std::sqrt(2.0 / static_cast<double>(in_f_));
    for (auto &w : weights_)
        w = static_cast<float>(rng.gaussian(0.0, scale));
}

Tensor
Dense::forward(Tensor input, bool cache_for_backward)
{
    SOV_ASSERT(input.size() == in_f_);
    Tensor out(1, 1, out_f_);
    for (std::size_t o = 0; o < out_f_; ++o) {
        float acc = bias_[o];
        for (std::size_t i = 0; i < in_f_; ++i)
            acc += weights_[o * in_f_ + i] * input.data()[i];
        out(0, 0, o) = acc;
    }
    if (cache_for_backward)
        cached_input_ = std::move(input);
    return out;
}

Tensor
Dense::backward(const Tensor &grad_output)
{
    Tensor grad_input(cached_input_.channels(), cached_input_.height(),
                      cached_input_.width());
    for (std::size_t o = 0; o < out_f_; ++o) {
        const float go = grad_output.data()[o];
        grad_bias_[o] += go;
        for (std::size_t i = 0; i < in_f_; ++i) {
            grad_weights_[o * in_f_ + i] += go * cached_input_.data()[i];
            grad_input.data()[i] += go * weights_[o * in_f_ + i];
        }
    }
    return grad_input;
}

void
Dense::applyGradients(float lr, std::size_t batch)
{
    const float scale = lr / static_cast<float>(batch);
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        weights_[i] -= scale * grad_weights_[i];
        grad_weights_[i] = 0.0f;
    }
    for (std::size_t i = 0; i < bias_.size(); ++i) {
        bias_[i] -= scale * grad_bias_[i];
        grad_bias_[i] = 0.0f;
    }
}

std::size_t
Dense::parameterCount() const
{
    return weights_.size() + bias_.size();
}

std::size_t
Dense::macs(std::size_t, std::size_t) const
{
    return in_f_ * out_f_;
}

// --------------------------------------------------------------- Network

void
Network::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
}

Tensor
Network::forward(const Tensor &input)
{
    Tensor t = input; // keep the caller's tensor (training reuses it)
    for (auto &layer : layers_)
        t = layer->forward(std::move(t), true);
    return t;
}

Tensor
Network::infer(Tensor input)
{
    for (auto &layer : layers_)
        input = layer->forward(std::move(input), false);
    return input;
}

void
Network::setBackend(KernelBackend backend)
{
    for (auto &layer : layers_)
        layer->setBackend(backend);
}

std::vector<double>
Network::softmax(const Tensor &logits)
{
    const auto &d = logits.data();
    double max_logit = -1e30;
    for (const float v : d)
        max_logit = std::max(max_logit, static_cast<double>(v));
    std::vector<double> probs(d.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        probs[i] = std::exp(static_cast<double>(d[i]) - max_logit);
        sum += probs[i];
    }
    for (auto &p : probs)
        p /= sum;
    return probs;
}

std::size_t
Network::predict(Tensor input)
{
    const Tensor logits = infer(std::move(input));
    const auto &d = logits.data();
    return static_cast<std::size_t>(
        std::max_element(d.begin(), d.end()) - d.begin());
}

double
Network::trainStep(const Tensor &input, std::size_t label, float lr)
{
    const Tensor logits = forward(input);
    const auto probs = softmax(logits);
    SOV_ASSERT(label < probs.size());
    const double loss = -std::log(std::max(probs[label], 1e-12));

    // dL/dlogits = probs - onehot(label).
    Tensor grad(1, 1, probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        grad(0, 0, i) = static_cast<float>(probs[i]) -
            (i == label ? 1.0f : 0.0f);

    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        grad = (*it)->backward(grad);
    for (auto &layer : layers_)
        layer->applyGradients(lr, 1);
    return loss;
}

double
Network::train(const std::vector<Tensor> &inputs,
               const std::vector<std::size_t> &labels, float lr,
               std::size_t epochs, Rng &rng)
{
    SOV_ASSERT(inputs.size() == labels.size());
    SOV_ASSERT(!inputs.empty());
    std::vector<std::size_t> order(inputs.size());
    std::iota(order.begin(), order.end(), 0);
    double mean_loss = 0.0;
    for (std::size_t e = 0; e < epochs; ++e) {
        // Fisher-Yates shuffle with our deterministic rng.
        for (std::size_t i = order.size(); i-- > 1;) {
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i)));
            std::swap(order[i], order[j]);
        }
        mean_loss = 0.0;
        for (const auto idx : order)
            mean_loss += trainStep(inputs[idx], labels[idx], lr);
        mean_loss /= static_cast<double>(inputs.size());
    }
    return mean_loss;
}

double
Network::evaluate(const std::vector<Tensor> &inputs,
                  const std::vector<std::size_t> &labels)
{
    SOV_ASSERT(inputs.size() == labels.size());
    if (inputs.empty())
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        correct += predict(inputs[i]) == labels[i];
    return static_cast<double>(correct) /
        static_cast<double>(inputs.size());
}

std::size_t
Network::parameterCount() const
{
    std::size_t n = 0;
    for (const auto &layer : layers_)
        n += layer->parameterCount();
    return n;
}

Network
makePatchClassifier(std::size_t patch, std::size_t classes, Rng &rng)
{
    SOV_ASSERT(patch % 4 == 0);
    Network net;
    net.add(std::make_unique<Conv2d>(1, 8, 3, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<MaxPool2>());
    net.add(std::make_unique<Conv2d>(8, 16, 3, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<MaxPool2>());
    net.add(std::make_unique<Dense>(16 * (patch / 4) * (patch / 4),
                                    classes, rng));
    return net;
}

} // namespace sov
