#include "math/matrix.h"

#include <cmath>

namespace sov {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &r : rows) {
        SOV_ASSERT(r.size() == cols_);
        for (double v : r)
            data_.push_back(v);
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::zero(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols);
}

Matrix
Matrix::diagonal(const std::vector<double> &d)
{
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        m(i, i) = d[i];
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &v)
{
    Matrix m(v.size(), 1);
    for (std::size_t i = 0; i < v.size(); ++i)
        m(i, 0) = v[i];
    return m;
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    SOV_ASSERT(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix r = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        r.data_[i] += o.data_[i];
    return r;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    SOV_ASSERT(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix r = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        r.data_[i] -= o.data_[i];
    return r;
}

Matrix &
Matrix::operator+=(const Matrix &o)
{
    SOV_ASSERT(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    SOV_ASSERT(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

Matrix
Matrix::operator*(const Matrix &o) const
{
    SOV_ASSERT(cols_ == o.rows_);
    Matrix r(rows_, o.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = data_[i * cols_ + k];
            if (a == 0.0)
                continue;
            const double *orow = &o.data_[k * o.cols_];
            double *rrow = &r.data_[i * o.cols_];
            for (std::size_t j = 0; j < o.cols_; ++j)
                rrow[j] += a * orow[j];
        }
    }
    return r;
}

Matrix
Matrix::operator*(double k) const
{
    Matrix r = *this;
    for (double &v : r.data_)
        v *= k;
    return r;
}

Matrix
operator*(double k, const Matrix &m)
{
    return m * k;
}

Matrix
Matrix::transpose() const
{
    Matrix r(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

Matrix
Matrix::inverse() const
{
    SOV_ASSERT(rows_ == cols_);
    const std::size_t n = rows_;
    // Gauss-Jordan with partial pivoting on an [A | I] augmented system.
    Matrix a = *this;
    Matrix inv = identity(n);
    for (std::size_t col = 0; col < n; ++col) {
        // Pivot selection.
        std::size_t pivot = col;
        double best = std::fabs(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::fabs(a(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        SOV_ASSERT(best > 1e-14);
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j) {
                std::swap(a(col, j), a(pivot, j));
                std::swap(inv(col, j), inv(pivot, j));
            }
        }
        const double p = a(col, col);
        for (std::size_t j = 0; j < n; ++j) {
            a(col, j) /= p;
            inv(col, j) /= p;
        }
        for (std::size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            const double f = a(r, col);
            if (f == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                a(r, j) -= f * a(col, j);
                inv(r, j) -= f * inv(col, j);
            }
        }
    }
    return inv;
}

Matrix
Matrix::choleskySolve(const Matrix &b) const
{
    SOV_ASSERT(rows_ == cols_);
    SOV_ASSERT(b.rows_ == rows_ && b.cols_ == 1);
    const std::size_t n = rows_;

    // Lower-triangular factor L with A = L L^T.
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = (*this)(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l(i, k) * l(j, k);
            if (i == j) {
                SOV_ASSERT(s > 0.0);
                l(i, i) = std::sqrt(s);
            } else {
                l(i, j) = s / l(j, j);
            }
        }
    }

    // Forward substitution: L y = b.
    Matrix y(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b(i, 0);
        for (std::size_t k = 0; k < i; ++k)
            s -= l(i, k) * y(k, 0);
        y(i, 0) = s / l(i, i);
    }

    // Back substitution: L^T x = y.
    Matrix x(n, 1);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y(ii, 0);
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= l(k, ii) * x(k, 0);
        x(ii, 0) = s / l(ii, ii);
    }
    return x;
}

double
Matrix::squaredNorm() const
{
    double s = 0.0;
    for (double v : data_)
        s += v * v;
    return s;
}

double
Matrix::norm() const
{
    return std::sqrt(squaredNorm());
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

double
Matrix::trace() const
{
    SOV_ASSERT(rows_ == cols_);
    double s = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        s += (*this)(i, i);
    return s;
}

Matrix
Matrix::block(std::size_t r0, std::size_t c0,
              std::size_t h, std::size_t w) const
{
    SOV_ASSERT(r0 + h <= rows_ && c0 + w <= cols_);
    Matrix r(h, w);
    for (std::size_t i = 0; i < h; ++i)
        for (std::size_t j = 0; j < w; ++j)
            r(i, j) = (*this)(r0 + i, c0 + j);
    return r;
}

Matrix
Matrix::skew(const Vec3 &w)
{
    return Matrix{{0.0, -w.z(), w.y()},
                  {w.z(), 0.0, -w.x()},
                  {-w.y(), w.x(), 0.0}};
}

} // namespace sov
