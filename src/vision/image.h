/**
 * @file
 * Grayscale float image container plus the filtering primitives the
 * perception front-end builds on (gradients, blur, pyramids).
 */
#pragma once

#include <cstddef>
#include <vector>

#include "core/logging.h"

namespace sov {

/** Row-major single-channel float image; intensities nominally [0,1]. */
class Image
{
  public:
    Image() = default;
    Image(std::size_t width, std::size_t height, float fill = 0.0f)
        : width_(width), height_(height), data_(width * height, fill) {}

    std::size_t width() const { return width_; }
    std::size_t height() const { return height_; }
    bool empty() const { return data_.empty(); }

    float operator()(std::size_t x, std::size_t y) const
    {
        SOV_ASSERT(x < width_ && y < height_);
        return data_[y * width_ + x];
    }
    float &operator()(std::size_t x, std::size_t y)
    {
        SOV_ASSERT(x < width_ && y < height_);
        return data_[y * width_ + x];
    }

    const std::vector<float> &data() const { return data_; }
    std::vector<float> &data() { return data_; }

    /** Clamped integer access (border replication). */
    float atClamped(long x, long y) const;

    /** Bilinear sample at a fractional position (border clamped). */
    float sampleBilinear(double x, double y) const;

    /** Horizontal central-difference gradient. */
    Image gradientX() const;
    /** Vertical central-difference gradient. */
    Image gradientY() const;

    /** Separable Gaussian blur (sigma > 0). */
    Image gaussianBlur(double sigma) const;

    /** Half-resolution downsample (2x2 average) for pyramids. */
    Image halfSize() const;

    /** Mean intensity. */
    double mean() const;
    /** Intensity variance. */
    double variance() const;

  private:
    std::size_t width_ = 0;
    std::size_t height_ = 0;
    std::vector<float> data_;
};

} // namespace sov
