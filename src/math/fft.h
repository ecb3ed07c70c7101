/**
 * @file
 * Radix-2 FFT (1-D and 2-D) used by the KCF visual tracker (Table III),
 * which trains and evaluates correlation filters in the Fourier domain.
 */
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace sov {

using Complex = std::complex<double>;

/** True if n is a power of two (and nonzero). */
bool isPowerOfTwo(std::size_t n);

/**
 * In-place iterative radix-2 FFT.
 * @param data Length must be a power of two.
 * @param inverse If true computes the inverse transform including
 *        the 1/N normalization.
 */
void fft(std::vector<Complex> &data, bool inverse);

/**
 * Row-major 2-D FFT.
 * @param data rows*cols complex values, both dimensions powers of two.
 */
void fft2d(std::vector<Complex> &data, std::size_t rows, std::size_t cols,
           bool inverse);

} // namespace sov
