#include <gtest/gtest.h>

#include "vision/image.h"

namespace sov {
namespace {

TEST(Image, ConstructionAndAccess)
{
    Image img(4, 3, 0.5f);
    EXPECT_EQ(img.width(), 4u);
    EXPECT_EQ(img.height(), 3u);
    EXPECT_EQ(img(2, 1), 0.5f);
    img(2, 1) = 0.9f;
    EXPECT_EQ(img(2, 1), 0.9f);
    EXPECT_TRUE(Image().empty());
}

TEST(Image, ClampedAccessReplicatesBorder)
{
    Image img(3, 3);
    img(0, 0) = 1.0f;
    img(2, 2) = 2.0f;
    EXPECT_EQ(img.atClamped(-5, -5), 1.0f);
    EXPECT_EQ(img.atClamped(10, 10), 2.0f);
}

TEST(Image, BilinearSampling)
{
    Image img(2, 2);
    img(0, 0) = 0.0f;
    img(1, 0) = 1.0f;
    img(0, 1) = 0.0f;
    img(1, 1) = 1.0f;
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.5), 0.5, 1e-6);
    EXPECT_NEAR(img.sampleBilinear(0.25, 0.0), 0.25, 1e-6);
    EXPECT_NEAR(img.sampleBilinear(0.0, 0.0), 0.0, 1e-6);
}

TEST(Image, GradientOfRamp)
{
    Image img(8, 8);
    for (std::size_t y = 0; y < 8; ++y)
        for (std::size_t x = 0; x < 8; ++x)
            img(x, y) = static_cast<float>(x) * 0.1f;
    const Image gx = img.gradientX();
    const Image gy = img.gradientY();
    // Interior gradient = slope; border smaller due to clamping.
    EXPECT_NEAR(gx(4, 4), 0.1f, 1e-6);
    EXPECT_NEAR(gy(4, 4), 0.0f, 1e-6);
}

TEST(Image, GaussianBlurReducesVariance)
{
    Image img(32, 32);
    for (std::size_t y = 0; y < 32; ++y)
        for (std::size_t x = 0; x < 32; ++x)
            img(x, y) = static_cast<float>((x + y) % 2);
    const double var_before = img.variance();
    const Image blurred = img.gaussianBlur(1.5);
    EXPECT_LT(blurred.variance(), var_before * 0.2);
    // Mean roughly preserved.
    EXPECT_NEAR(blurred.mean(), img.mean(), 0.02);
}

TEST(Image, HalfSizeAverages)
{
    Image img(4, 4);
    img(0, 0) = 1.0f;
    img(1, 0) = 2.0f;
    img(0, 1) = 3.0f;
    img(1, 1) = 4.0f;
    const Image half = img.halfSize();
    EXPECT_EQ(half.width(), 2u);
    EXPECT_EQ(half.height(), 2u);
    EXPECT_NEAR(half(0, 0), 2.5f, 1e-6);
}

TEST(Image, MeanAndVariance)
{
    Image img(2, 2);
    img(0, 0) = 1.0f;
    img(1, 0) = 2.0f;
    img(0, 1) = 3.0f;
    img(1, 1) = 4.0f;
    EXPECT_DOUBLE_EQ(img.mean(), 2.5);
    EXPECT_DOUBLE_EQ(img.variance(), 1.25);
}

} // namespace
} // namespace sov
