/**
 * @file
 * Property-based sweeps over the math substrate: invariants that must
 * hold for every size/seed, exercised via parameterized gtest.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "math/eigen.h"
#include "math/fft.h"
#include "math/matrix.h"
#include "math/quat.h"

namespace sov {
namespace {

// ------------------------------------------------ FFT round trip

class FftRoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftRoundTrip, InverseRecoversSignal)
{
    const std::size_t n = GetParam();
    Rng rng(n * 7919 + 3);
    std::vector<Complex> data(n), orig(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        orig[i] = data[i];
    }
    fft(data, false);
    fft(data, true);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-9);
}

TEST_P(FftRoundTrip, ParsevalEnergyConserved)
{
    const std::size_t n = GetParam();
    Rng rng(n * 104729 + 1);
    std::vector<double> x(n);
    double time_energy = 0.0;
    for (auto &v : x) {
        v = rng.gaussian();
        time_energy += v * v;
    }
    std::vector<Complex> spec(x.begin(), x.end());
    fft(spec, false);
    double freq_energy = 0.0;
    for (const auto &s : spec)
        freq_energy += std::norm(s);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-7 * time_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftRoundTrip,
                         ::testing::Values(2, 4, 8, 32, 128, 512, 2048));

// ------------------------------------------- matrix inverse sweep

class MatrixInverse : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MatrixInverse, ProductIsIdentity)
{
    const std::size_t n = GetParam();
    Rng rng(n * 31 + 5);
    Matrix a(n, n);
    // Diagonally dominant => well-conditioned and invertible.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += static_cast<double>(n);
    }
    const Matrix prod = a * a.inverse();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST_P(MatrixInverse, CholeskySolvesSpdSystem)
{
    const std::size_t n = GetParam();
    Rng rng(n * 131 + 7);
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.uniform(-1.0, 1.0);
    // A = B B^T + n I is SPD.
    Matrix a = b * b.transpose();
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);

    std::vector<double> truth(n);
    for (auto &v : truth)
        v = rng.uniform(-2.0, 2.0);
    const Matrix rhs = a * Matrix::columnVector(truth);
    const Matrix x = a.choleskySolve(rhs);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x(i, 0), truth[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixInverse,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ------------------------------------------- eigen decomposition

class SymmetricEigenSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SymmetricEigenSweep, ReconstructionAndOrthogonality)
{
    const std::size_t n = GetParam();
    Rng rng(n * 17 + 11);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            const double v = rng.uniform(-2.0, 2.0);
            a(i, j) = v;
            a(j, i) = v;
        }
    }
    const auto eig = symmetricEigen(a);
    // Ascending eigenvalues.
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_GE(eig.values[i], eig.values[i - 1] - 1e-12);
    // A = V D V^T.
    const Matrix recon = eig.vectors * Matrix::diagonal(eig.values) *
        eig.vectors.transpose();
    EXPECT_LT((recon - a).maxAbs(), 1e-8);
    // V^T V = I.
    const Matrix vtv = eig.vectors.transpose() * eig.vectors;
    EXPECT_LT((vtv - Matrix::identity(n)).maxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenSweep,
                         ::testing::Values(2, 3, 4, 6, 9));

// ---------------------------------------------- quaternion sweep

class QuatProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(QuatProperties, RotationPreservesNormAndComposes)
{
    Rng rng(GetParam() * 97 + 13);
    const Quat q1 = Quat::fromAxisAngle(Vec3(rng.uniform(-1, 1),
                                             rng.uniform(-1, 1),
                                             rng.uniform(-1, 1)));
    const Quat q2 = Quat::fromAxisAngle(Vec3(rng.uniform(-1, 1),
                                             rng.uniform(-1, 1),
                                             rng.uniform(-1, 1)));
    const Vec3 v(rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(-5, 5));
    // Norm preservation.
    EXPECT_NEAR(q1.rotate(v).norm(), v.norm(), 1e-10);
    // Composition.
    const Vec3 a = (q1 * q2).rotate(v);
    const Vec3 b = q1.rotate(q2.rotate(v));
    EXPECT_NEAR((a - b).norm(), 0.0, 1e-10);
    // Inverse.
    const Vec3 back = q1.conjugate().rotate(q1.rotate(v));
    EXPECT_NEAR((back - v).norm(), 0.0, 1e-10);
    // Exp/log round trip (angle < pi by construction).
    const Vec3 w(rng.uniform(-1, 1), rng.uniform(-1, 1),
                 rng.uniform(-1, 1));
    EXPECT_NEAR(
        (Quat::fromAxisAngle(w).toRotationVector() - w).norm(), 0.0,
        1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuatProperties, ::testing::Range(0, 12));

} // namespace
} // namespace sov
