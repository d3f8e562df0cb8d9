// SoA lane types for the kernel layer.
//
// A "lane" is one contiguous, 64-byte-aligned array of doubles; complex
// planes are stored SPLIT — one lane of real parts, one of imaginary parts —
// instead of interleaved std::complex. Split storage is what lets the
// compiler turn the per-axis board solves (src/kernel/board_kernels) into
// packed arithmetic: every stream touches homogeneous doubles with unit
// stride, no shuffles. See README "SoA kernel layer".
#pragma once

#include <complex>
#include <cstddef>

#include "src/common/aligned.h"
#include "src/common/contracts.h"

namespace llama::kernel {

/// One SoA lane: contiguous 64-byte-aligned doubles.
using Lane = common::AlignedVector<double>;

/// A complex plane split into separate re/im lanes of equal length.
struct ComplexLanes {
  Lane re;
  Lane im;

  void resize(std::size_t n) {
    re.resize(n);
    im.resize(n);
  }

  /// Broadcast-fill: every lane slot holds the same complex constant.
  void fill(std::size_t n, std::complex<double> v) {
    re.assign(n, v.real());
    im.assign(n, v.imag());
  }

  [[nodiscard]] std::size_t size() const { return re.size(); }

  [[nodiscard]] std::complex<double> at(std::size_t i) const {
    LLAMA_EXPECTS(i < re.size() && re.size() == im.size(),
                  "lane index in range and re/im lanes in step");
    return {re[i], im[i]};
  }
};

}  // namespace llama::kernel
