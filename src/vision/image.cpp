#include "vision/image.h"

#include <algorithm>
#include <cmath>

namespace sov {

float
Image::atClamped(long x, long y) const
{
    const long xc = std::clamp<long>(x, 0, static_cast<long>(width_) - 1);
    const long yc = std::clamp<long>(y, 0, static_cast<long>(height_) - 1);
    return data_[static_cast<std::size_t>(yc) * width_ +
                 static_cast<std::size_t>(xc)];
}

float
Image::sampleBilinear(double x, double y) const
{
    const long x0 = static_cast<long>(std::floor(x));
    const long y0 = static_cast<long>(std::floor(y));
    const double fx = x - static_cast<double>(x0);
    const double fy = y - static_cast<double>(y0);
    const double v00 = atClamped(x0, y0);
    const double v10 = atClamped(x0 + 1, y0);
    const double v01 = atClamped(x0, y0 + 1);
    const double v11 = atClamped(x0 + 1, y0 + 1);
    return static_cast<float>(
        v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) +
        v01 * (1 - fx) * fy + v11 * fx * fy);
}

Image
Image::gradientX() const
{
    Image g(width_, height_);
    for (std::size_t y = 0; y < height_; ++y)
        for (std::size_t x = 0; x < width_; ++x)
            g(x, y) = 0.5f * (atClamped(static_cast<long>(x) + 1,
                                        static_cast<long>(y)) -
                              atClamped(static_cast<long>(x) - 1,
                                        static_cast<long>(y)));
    return g;
}

Image
Image::gradientY() const
{
    Image g(width_, height_);
    for (std::size_t y = 0; y < height_; ++y)
        for (std::size_t x = 0; x < width_; ++x)
            g(x, y) = 0.5f * (atClamped(static_cast<long>(x),
                                        static_cast<long>(y) + 1) -
                              atClamped(static_cast<long>(x),
                                        static_cast<long>(y) - 1));
    return g;
}

Image
Image::gaussianBlur(double sigma) const
{
    SOV_ASSERT(sigma > 0.0);
    const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<float> kernel(2 * radius + 1);
    float sum = 0.0f;
    for (int i = -radius; i <= radius; ++i) {
        kernel[i + radius] =
            static_cast<float>(std::exp(-0.5 * i * i / (sigma * sigma)));
        sum += kernel[i + radius];
    }
    for (auto &k : kernel)
        k /= sum;

    // Horizontal pass.
    Image tmp(width_, height_);
    for (std::size_t y = 0; y < height_; ++y) {
        for (std::size_t x = 0; x < width_; ++x) {
            float v = 0.0f;
            for (int i = -radius; i <= radius; ++i)
                v += kernel[i + radius] *
                    atClamped(static_cast<long>(x) + i,
                              static_cast<long>(y));
            tmp(x, y) = v;
        }
    }
    // Vertical pass.
    Image out(width_, height_);
    for (std::size_t y = 0; y < height_; ++y) {
        for (std::size_t x = 0; x < width_; ++x) {
            float v = 0.0f;
            for (int i = -radius; i <= radius; ++i)
                v += kernel[i + radius] *
                    tmp.atClamped(static_cast<long>(x),
                                  static_cast<long>(y) + i);
            out(x, y) = v;
        }
    }
    return out;
}

Image
Image::halfSize() const
{
    const std::size_t w = std::max<std::size_t>(1, width_ / 2);
    const std::size_t h = std::max<std::size_t>(1, height_ / 2);
    Image out(w, h);
    for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
            const std::size_t sx = 2 * x;
            const std::size_t sy = 2 * y;
            float sum = (*this)(sx, sy);
            int n = 1;
            if (sx + 1 < width_) { sum += (*this)(sx + 1, sy); ++n; }
            if (sy + 1 < height_) { sum += (*this)(sx, sy + 1); ++n; }
            if (sx + 1 < width_ && sy + 1 < height_) {
                sum += (*this)(sx + 1, sy + 1);
                ++n;
            }
            out(x, y) = sum / static_cast<float>(n);
        }
    }
    return out;
}

double
Image::mean() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (const float v : data_)
        s += v;
    return s / static_cast<double>(data_.size());
}

double
Image::variance() const
{
    if (data_.empty())
        return 0.0;
    const double m = mean();
    double s = 0.0;
    for (const float v : data_)
        s += (v - m) * (v - m);
    return s / static_cast<double>(data_.size());
}

} // namespace sov
