#include <gtest/gtest.h>

#include "math/matrix.h"

namespace sov {
namespace {

TEST(Matrix, ConstructionAndIdentity)
{
    const Matrix m = Matrix::identity(3);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(0, 1), 0.0);

    const Matrix init{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(init(1, 0), 3.0);
}

TEST(Matrix, AddSubScale)
{
    const Matrix a{{1, 2}, {3, 4}};
    const Matrix b{{5, 6}, {7, 8}};
    EXPECT_EQ(a + b, (Matrix{{6, 8}, {10, 12}}));
    EXPECT_EQ(b - a, (Matrix{{4, 4}, {4, 4}}));
    EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
    EXPECT_EQ(2.0 * a, (Matrix{{2, 4}, {6, 8}}));
}

TEST(Matrix, Multiply)
{
    const Matrix a{{1, 2, 3}, {4, 5, 6}};
    const Matrix b{{7, 8}, {9, 10}, {11, 12}};
    const Matrix c = a * b;
    EXPECT_EQ(c, (Matrix{{58, 64}, {139, 154}}));
}

TEST(Matrix, Transpose)
{
    const Matrix a{{1, 2, 3}, {4, 5, 6}};
    const Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t(0, 1), 4.0);
    EXPECT_EQ(t.transpose(), a);
}

TEST(Matrix, InverseRoundTrip)
{
    const Matrix a{{4, 7, 1}, {2, 6, 0}, {1, 0, 3}};
    const Matrix inv = a.inverse();
    const Matrix prod = a * inv;
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Matrix, InverseNeedsPivoting)
{
    // Leading zero forces a row swap.
    const Matrix a{{0, 1}, {1, 0}};
    const Matrix inv = a.inverse();
    EXPECT_NEAR(inv(0, 1), 1.0, 1e-15);
    EXPECT_NEAR(inv(0, 0), 0.0, 1e-15);
}

TEST(Matrix, CholeskySolve)
{
    // SPD system: A = L L^T with known solution.
    const Matrix a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
    const Matrix x_true = Matrix::columnVector({1.0, -2.0, 0.5});
    const Matrix b = a * x_true;
    const Matrix x = a.choleskySolve(b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-12);
}

TEST(Matrix, BlockOps)
{
    const Matrix m{
        {0, 0, 0, 0}, {0, 1, 2, 0}, {0, 3, 4, 0}, {0, 0, 0, 0}};
    const Matrix b = m.block(1, 1, 2, 2);
    EXPECT_EQ(b, (Matrix{{1, 2}, {3, 4}}));
}

TEST(Matrix, DiagonalAndColumnVector)
{
    const Matrix d = Matrix::diagonal({1.0, 2.0, 3.0});
    EXPECT_EQ(d(1, 1), 2.0);
    EXPECT_EQ(d(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(d.trace(), 6.0);
    const Matrix v = Matrix::columnVector({5.0, 6.0});
    EXPECT_EQ(v.rows(), 2u);
    EXPECT_EQ(v.cols(), 1u);
    EXPECT_EQ(v.at(1), 6.0);
}

TEST(Matrix, Norms)
{
    const Matrix a{{3, 0}, {0, 4}};
    EXPECT_DOUBLE_EQ(a.squaredNorm(), 25.0);
    EXPECT_DOUBLE_EQ(a.norm(), 5.0);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 4.0);
}

TEST(Matrix, Skew)
{
    const Vec3 w(1.0, 2.0, 3.0);
    const Matrix s = Matrix::skew(w);
    // skew(w) * v == w x v
    const Vec3 v(4.0, 5.0, 6.0);
    const Matrix vm = Matrix::columnVector({v.x(), v.y(), v.z()});
    const Matrix r = s * vm;
    const Vec3 expect = w.cross(v);
    EXPECT_NEAR(r(0, 0), expect.x(), 1e-15);
    EXPECT_NEAR(r(1, 0), expect.y(), 1e-15);
    EXPECT_NEAR(r(2, 0), expect.z(), 1e-15);
    // Antisymmetry.
    EXPECT_EQ(s.transpose(), s * -1.0);
}

} // namespace
} // namespace sov
