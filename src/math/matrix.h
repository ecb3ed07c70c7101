/**
 * @file
 * Dense dynamic-size matrix with the operations needed by the EKF-based
 * estimators (VIO, GPS-VIO fusion), the MPC planner, and the QP solver:
 * multiply, transpose, Cholesky solve, LU inverse.
 */
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "core/logging.h"
#include "math/vec.h"

namespace sov {

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Build from nested initializer lists: {{1,2},{3,4}}. */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    static Matrix identity(std::size_t n);
    static Matrix zero(std::size_t rows, std::size_t cols);
    /** Diagonal matrix from a vector of diagonal entries. */
    static Matrix diagonal(const std::vector<double> &d);
    /** Column vector from entries. */
    static Matrix columnVector(const std::vector<double> &v);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double operator()(std::size_t r, std::size_t c) const
    {
        SOV_ASSERT(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double &operator()(std::size_t r, std::size_t c)
    {
        SOV_ASSERT(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    Matrix operator+(const Matrix &o) const;
    Matrix operator-(const Matrix &o) const;
    Matrix operator*(const Matrix &o) const;
    Matrix operator*(double k) const;
    Matrix &operator+=(const Matrix &o);
    Matrix &operator-=(const Matrix &o);

    Matrix transpose() const;

    /**
     * Inverse via partial-pivot LU. Panics if singular to working
     * precision; callers validate conditioning first where inputs are
     * user-controlled.
     */
    Matrix inverse() const;

    /**
     * Solve A x = b for symmetric positive-definite A via Cholesky.
     * @param b Column vector (n x 1).
     * @return Solution column vector.
     */
    Matrix choleskySolve(const Matrix &b) const;

    /** Sum of squared entries. */
    double squaredNorm() const;
    /** Frobenius norm. */
    double norm() const;
    /** Largest absolute entry. */
    double maxAbs() const;
    /** Sum of diagonal entries (square matrices). */
    double trace() const;

    /** Extract an h x w sub-block starting at (r0, c0). */
    Matrix block(std::size_t r0, std::size_t c0,
                 std::size_t h, std::size_t w) const;

    /** Entry of a column vector (cols()==1). */
    double at(std::size_t i) const { return (*this)(i, 0); }

    /** 3x3 matrix from the skew-symmetric (hat) operator of a Vec3. */
    static Matrix skew(const Vec3 &w);

    bool operator==(const Matrix &o) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator*(double k, const Matrix &m);

} // namespace sov
