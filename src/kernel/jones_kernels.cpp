#include "src/kernel/jones_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/kernel/board_kernels.h"

namespace llama::kernel {

using em::Complex;
using em::JonesMatrix;

namespace {

/// Splits a rotation angle into the rotated-diagonal coefficients:
/// R(theta) diag(tx, ty) R(theta)^T = [[c2 tx + s2 ty, cs (tx - ty)],
///                                     [cs (tx - ty), s2 tx + c2 ty]].
struct RotationCoeffs {
  double c2, s2, cs;
};

RotationCoeffs rotation_coeffs(common::Angle theta) {
  const double c = std::cos(theta.rad());
  const double s = std::sin(theta.rad());
  return {c * c, s * s, c * s};
}

/// A 2x2 complex matrix as eight doubles: re[4] then im[4], row-major.
void split(const JonesMatrix& m, double* out) {
  for (int e = 0; e < 4; ++e) {
    out[e] = m.at(e / 2, e % 2).real();
    out[4 + e] = m.at(e / 2, e % 2).imag();
  }
}

JonesMatrix unsplit(const double* m) {
  return JonesMatrix{Complex{m[0], m[4]}, Complex{m[1], m[5]},
                     Complex{m[2], m[6]}, Complex{m[3], m[7]}};
}

/// out = (vr + j vi) * m, or out += it when Accumulate, for a split matrix
/// m.
template <bool Accumulate>
void scale_into(double vr, double vi, const double* m, double* out) {
  for (int e = 0; e < 4; ++e) {
    const double re = vr * m[e] - vi * m[4 + e];
    const double im = vr * m[4 + e] + vi * m[e];
    out[e] = Accumulate ? out[e] + re : re;
    out[4 + e] = Accumulate ? out[4 + e] + im : im;
  }
}

/// Index of `channel` in `channels`, appending it unless an equal one is
/// already there: identical boards share one solve and one lattice entry.
std::size_t add_channel(std::vector<AxisChannel>& channels,
                        const AxisChannel& channel) {
  const auto it = std::find(channels.begin(), channels.end(), channel);
  if (it != channels.end())
    return static_cast<std::size_t>(it - channels.begin());
  channels.push_back(channel);
  return channels.size() - 1;
}

}  // namespace

// -------------------------------------------------------------------- channels

void solve_channels(std::span<const AxisChannel> channels, BiasAxis axis,
                    std::span<const double> biases,
                    std::span<ComplexLanes> lanes) {
  LLAMA_EXPECTS(lanes.size() == channels.size(), "one lane per channel");
  for (std::size_t k = 0; k < channels.size(); ++k) {
    const AxisChannel& channel = channels[k];
    const bool s21 = channel.output == AxisOutput::kS21;
    axis_s_lanes(channel.plan(axis), channel.omega, channel.varactor, biases,
                 channel.output, s21 ? &lanes[k] : nullptr,
                 s21 ? nullptr : &lanes[k]);
  }
}

void solve_axis_entries(std::span<const AxisChannel> channels, BiasAxis axis,
                        std::span<const double> biases, double* out) {
  const std::size_t width = channels.size();
  std::vector<ComplexLanes> lanes(width);
  solve_channels(channels, axis, biases, lanes);
  for (std::size_t k = 0; k < width; ++k)
    for (std::size_t i = 0; i < biases.size(); ++i) {
      out[2 * (i * width + k)] = lanes[k].re[i];
      out[2 * (i * width + k) + 1] = lanes[k].im[i];
    }
}

// ---------------------------------------------------------------- cell cascade

void CellCascade::factor_half(const Factor& f, BiasAxis axis,
                              const double* entry, double* half) const {
  if (f.terms.empty()) {
    std::fill_n(half, 8, 0.0);
    return;
  }
  const auto coefficients = [axis](const Term& t) {
    return axis == BiasAxis::kX ? t.x : t.y;
  };
  const Term& first = f.terms.front();
  scale_into<false>(entry[2 * first.channel], entry[2 * first.channel + 1],
                    coefficients(first), half);
  for (std::size_t i = 1; i < f.terms.size(); ++i) {
    const Term& t = f.terms[i];
    scale_into<true>(entry[2 * t.channel], entry[2 * t.channel + 1],
                     coefficients(t), half);
  }
}

void CellCascade::apply_factor(const Factor& f, const double* x_half,
                               const double* y_half, bool first, double* u) {
  double k[8];
  for (int e = 0; e < 8; ++e)
    k[e] = f.has_constant ? f.constant[e] + x_half[e] + y_half[e]
                          : x_half[e] + y_half[e];
  if (first) {
    std::copy_n(k, 8, u);
    return;
  }
  // u = k * u over split re/im halves.
  double t[8];
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const double ar = k[2 * r], ai = k[4 + 2 * r];
      const double br = k[2 * r + 1], bi = k[4 + 2 * r + 1];
      t[2 * r + c] =
          ar * u[c] - ai * u[4 + c] + br * u[2 + c] - bi * u[6 + c];
      t[4 + 2 * r + c] =
          ar * u[4 + c] + ai * u[c] + br * u[6 + c] + bi * u[2 + c];
    }
  std::copy_n(t, 8, u);
}

void CellCascade::axis_terms(BiasAxis axis, const double* entry,
                             double* terms) const {
  for (std::size_t f = 0; f < factors_.size(); ++f)
    factor_half(factors_[f], axis, entry, terms + 8 * f);
}

JonesMatrix CellCascade::combine(const double* x_terms,
                                 const double* y_terms) const {
  double u[8];
  for (std::size_t f = 0; f < factors_.size(); ++f)
    apply_factor(factors_[f], x_terms + 8 * f, y_terms + 8 * f, f == 0, u);
  return unsplit(u);
}

JonesMatrix CellCascade::eval(const double* x, const double* y) const {
  double u[8];
  for (std::size_t f = 0; f < factors_.size(); ++f) {
    double x_half[8];
    double y_half[8];
    factor_half(factors_[f], BiasAxis::kX, x, x_half);
    factor_half(factors_[f], BiasAxis::kY, y, y_half);
    apply_factor(factors_[f], x_half, y_half, f == 0, u);
  }
  return unsplit(u);
}

// ---------------------------------------------------------------- transmission

TransmissionCascade::TransmissionCascade(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::TransmissionPlan& plan) {
  // Fold every run of consecutive static boards and air-gap phases into one
  // constant matrix. The multiplication ORDER matches the scalar planned
  // loop (first element multiplies from the right), but the folding
  // reassociates — hence the <= 1e-12 (not bit-equal) contract with the
  // scalar path.
  JonesMatrix pending = JonesMatrix::identity();
  bool have_pending = false;
  const auto flush = [&] {
    if (!have_pending) return;
    Op op;
    op.constant = pending;
    ops_.push_back(op);
    pending = JonesMatrix::identity();
    have_pending = false;
  };
  for (const metasurface::RotatorStack::TransmissionStep& step : plan.steps) {
    if (step.tunable) {
      flush();
      const metasurface::Board& board = stack.elements()[step.index].board;
      const RotationCoeffs rc = rotation_coeffs(step.rotation);
      Op op;
      op.tunable = true;
      op.channel = add_channel(
          channels_,
          AxisChannel{step.board_plan.x, step.board_plan.y,
                      step.board_plan.omega, board.varactor(),
                      AxisOutput::kS21});
      op.c2 = rc.c2;
      op.s2 = rc.s2;
      op.cs = rc.cs;
      ops_.push_back(op);
      if (step.has_gap) {
        pending = step.gap_factor * JonesMatrix::identity();
        have_pending = true;
      }
    } else {
      pending = step.fixed_jones * pending;
      if (step.has_gap) pending = step.gap_factor * pending;
      have_pending = true;
    }
  }
  flush();
}

CellCascade TransmissionCascade::cells() const {
  // Tunable board k's T_k = x P_k + y Q_k becomes C T_k (the first also
  // absorbs the opening static run on its right), so
  // F_k = x_k (C P_k) + y_k (C Q_k). Folding reassociates, which the
  // <= 1e-12 contract allows.
  CellCascade out;
  out.channels_ = channels_;
  struct Pending {
    std::size_t channel;
    JonesMatrix x, y;
  };
  JonesMatrix opening = JonesMatrix::identity();
  std::vector<Pending> factors;
  for (const Op& op : ops_) {
    if (!op.tunable) {
      if (factors.empty()) {
        opening = op.constant * opening;
      } else {
        factors.back().x = op.constant * factors.back().x;
        factors.back().y = op.constant * factors.back().y;
      }
      continue;
    }
    const Complex c2{op.c2, 0.0}, s2{op.s2, 0.0}, cs{op.cs, 0.0};
    const JonesMatrix p{c2, cs, cs, s2};
    const JonesMatrix q{s2, -cs, -cs, c2};
    factors.push_back({op.channel, p * opening, q * opening});
    opening = JonesMatrix::identity();
  }
  for (const Pending& f : factors) {
    CellCascade::Term term;
    term.channel = f.channel;
    split(f.x, term.x);
    split(f.y, term.y);
    out.factors_.emplace_back().terms.push_back(term);
  }
  if (factors.empty()) {  // nothing tunable: the whole stack is constant
    CellCascade::Factor constant;
    constant.has_constant = true;
    split(opening, constant.constant);
    out.factors_.push_back(constant);
  }
  return out;
}

TransmissionKernel::TransmissionKernel(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::TransmissionPlan& plan,
    std::span<const double> vx, std::span<const double> vy)
    : cascade_(stack, plan), nx_(vx.size()), ny_(vy.size()) {
  // Solve each tunable board's axes as whole lanes.
  const std::vector<AxisChannel>& channels = cascade_.channels();
  tx_.resize(channels.size());
  ty_.resize(channels.size());
  solve_channels(channels, BiasAxis::kX, vx, tx_);
  solve_channels(channels, BiasAxis::kY, vy, ty_);
}

void TransmissionKernel::set_blend(const StuckBlend& blend) {
  blend_enabled_ = true;
  blend_ = blend;
}

void TransmissionKernel::eval_grid_row(std::size_t iy,
                                       em::JonesMatrix* out) const {
  LLAMA_EXPECTS(iy < ny_, "row index inside the vy lane");
  eval_cells<0>(/*tx_offset=*/0, /*ty_offset=*/iy, nx_, out);
}

void TransmissionKernel::eval_pairs(std::size_t begin, std::size_t end,
                                    em::JonesMatrix* out) const {
  LLAMA_EXPECTS(nx_ == ny_, "pairs evaluation needs equal-length bias lanes");
  LLAMA_EXPECTS(begin <= end && end <= nx_, "pair range inside the lanes");
  eval_cells<1>(begin, begin, end - begin, out);
}

template <int TyStride>
void TransmissionKernel::eval_cells(std::size_t tx_offset,
                                    std::size_t ty_offset, std::size_t n,
                                    em::JonesMatrix* out) const {
  if (n == 0) return;
  // Call-local scratch: eight accumulator lanes (split re/im of the running
  // 2x2 cascade), each padded to a whole number of cache lines so every
  // slice keeps the lane alignment. Local allocation is what makes this
  // method safe from concurrent parallel_for shards — no shared state.
  const std::size_t stride = (n + 7) & ~std::size_t{7};
  Lane scratch(8 * stride);
  double* const t00r = common::assume_lane_aligned(scratch.data());
  double* const t00i = t00r + stride;
  double* const t01r = t00r + 2 * stride;
  double* const t01i = t00r + 3 * stride;
  double* const t10r = t00r + 4 * stride;
  double* const t10i = t00r + 5 * stride;
  double* const t11r = t00r + 6 * stride;
  double* const t11i = t00r + 7 * stride;
  std::fill_n(t00r, n, 1.0);  // cascade starts from the identity
  std::fill_n(t00i, n, 0.0);
  std::fill_n(t01r, n, 0.0);
  std::fill_n(t01i, n, 0.0);
  std::fill_n(t10r, n, 0.0);
  std::fill_n(t10i, n, 0.0);
  std::fill_n(t11r, n, 1.0);
  std::fill_n(t11i, n, 0.0);

  for (const TransmissionCascade::Op& op : cascade_.ops_) {
    if (op.tunable) {
      const double* txr = tx_[op.channel].re.data() + tx_offset;
      const double* txi = tx_[op.channel].im.data() + tx_offset;
      const double* tyr = ty_[op.channel].re.data() + ty_offset;
      const double* tyi = ty_[op.channel].im.data() + ty_offset;
      const double c2 = op.c2, s2 = op.s2, cs = op.cs;
      for (std::size_t i = 0; i < n; ++i) {
        const double xr = txr[i], xi = txi[i];
        const double yr = tyr[i * TyStride], yi = tyi[i * TyStride];
        // Rotated diag(tx, ty): symmetric [[a, b], [b, d]].
        const double ar = c2 * xr + s2 * yr, ai = c2 * xi + s2 * yi;
        const double br = cs * (xr - yr), bi = cs * (xi - yi);
        const double dr = s2 * xr + c2 * yr, di = s2 * xi + c2 * yi;
        const double u00r = t00r[i], u00i = t00i[i];
        const double u01r = t01r[i], u01i = t01i[i];
        const double u10r = t10r[i], u10i = t10i[i];
        const double u11r = t11r[i], u11i = t11i[i];
        t00r[i] = ar * u00r - ai * u00i + br * u10r - bi * u10i;
        t00i[i] = ar * u00i + ai * u00r + br * u10i + bi * u10r;
        t01r[i] = ar * u01r - ai * u01i + br * u11r - bi * u11i;
        t01i[i] = ar * u01i + ai * u01r + br * u11i + bi * u11r;
        t10r[i] = br * u00r - bi * u00i + dr * u10r - di * u10i;
        t10i[i] = br * u00i + bi * u00r + dr * u10i + di * u10r;
        t11r[i] = br * u01r - bi * u01i + dr * u11r - di * u11i;
        t11i[i] = br * u01i + bi * u01r + dr * u11i + di * u11r;
      }
    } else {
      const double k00r = op.constant.at(0, 0).real();
      const double k00i = op.constant.at(0, 0).imag();
      const double k01r = op.constant.at(0, 1).real();
      const double k01i = op.constant.at(0, 1).imag();
      const double k10r = op.constant.at(1, 0).real();
      const double k10i = op.constant.at(1, 0).imag();
      const double k11r = op.constant.at(1, 1).real();
      const double k11i = op.constant.at(1, 1).imag();
      for (std::size_t i = 0; i < n; ++i) {
        const double u00r = t00r[i], u00i = t00i[i];
        const double u01r = t01r[i], u01i = t01i[i];
        const double u10r = t10r[i], u10i = t10i[i];
        const double u11r = t11r[i], u11i = t11i[i];
        t00r[i] = k00r * u00r - k00i * u00i + k01r * u10r - k01i * u10i;
        t00i[i] = k00r * u00i + k00i * u00r + k01r * u10i + k01i * u10r;
        t01r[i] = k00r * u01r - k00i * u01i + k01r * u11r - k01i * u11i;
        t01i[i] = k00r * u01i + k00i * u01r + k01r * u11i + k01i * u11r;
        t10r[i] = k10r * u00r - k10i * u00i + k11r * u10r - k11i * u10i;
        t10i[i] = k10r * u00i + k10i * u00r + k11r * u10i + k11i * u10r;
        t11r[i] = k10r * u01r - k10i * u01i + k11r * u11r - k11i * u11i;
        t11i[i] = k10r * u01i + k10i * u01r + k11r * u11i + k11i * u11r;
      }
    }
  }

  if (blend_enabled_) {
    // Lane-space degraded blend: cell' = keep * cell + frac * stuck, with
    // frac * stuck folded into constants (same association as the scalar
    // post-pass in Metasurface::response_grid had).
    const double kr = blend_.keep.real(), ki = blend_.keep.imag();
    const JonesMatrix fs{blend_.frac * blend_.stuck.at(0, 0),
                         blend_.frac * blend_.stuck.at(0, 1),
                         blend_.frac * blend_.stuck.at(1, 0),
                         blend_.frac * blend_.stuck.at(1, 1)};
    double* const lanes_re[4] = {t00r, t01r, t10r, t11r};
    double* const lanes_im[4] = {t00i, t01i, t10i, t11i};
    for (int k = 0; k < 4; ++k) {
      const double fsr = fs.at(k / 2, k % 2).real();
      const double fsi = fs.at(k / 2, k % 2).imag();
      double* re = lanes_re[k];
      double* im = lanes_im[k];
      for (std::size_t i = 0; i < n; ++i) {
        const double ur = re[i], ui = im[i];
        re[i] = kr * ur - ki * ui + fsr;
        im[i] = kr * ui + ki * ur + fsi;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i)
    out[i] = JonesMatrix{Complex{t00r[i], t00i[i]}, Complex{t01r[i], t01i[i]},
                         Complex{t10r[i], t10i[i]}, Complex{t11r[i], t11i[i]}};
}

// ------------------------------------------------------------------ reflection

CellCascade reflection_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan) {
  const metasurface::StackElement& target = stack.elements()[plan.target_index];
  const AxisChannel target_channel{plan.target_plan.x, plan.target_plan.y,
                                   plan.target_plan.omega,
                                   target.board.varactor(), AxisOutput::kS11};
  // Deep bounce: F^T rotated(diag(rx, ry)) F
  //   = a F^T E00 F + b F^T (E01 + E10) F + d F^T E11 F
  // with a = c2 rx + s2 ry, b = cs (rx - ry), d = s2 rx + c2 ry, i.e.
  // rx (c2 G_a + cs G_b + s2 G_d) + ry (s2 G_a - cs G_b + c2 G_d), each G
  // folded with kDeepPathWeight.
  const JonesMatrix f = plan.forward;
  const JonesMatrix ft = f.transpose();
  const Complex zero{0.0, 0.0};
  const Complex one{1.0, 0.0};
  const JonesMatrix ga = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{one, zero, zero, zero} * f);
  const JonesMatrix gb = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{zero, one, one, zero} * f);
  const JonesMatrix gd = metasurface::kDeepPathWeight *
                         (ft * JonesMatrix{zero, zero, zero, one} * f);
  const RotationCoeffs rc = rotation_coeffs(target.rotation);
  const JonesMatrix deep_x = rc.c2 * ga + rc.cs * gb + rc.s2 * gd;
  const JonesMatrix deep_y = rc.s2 * ga + (-rc.cs) * gb + rc.c2 * gd;

  CellCascade out;
  CellCascade::Factor factor;
  factor.has_constant = true;
  JonesMatrix constant =
      plan.front_uses_bias ? JonesMatrix{zero, zero, zero, zero}
                           : plan.gamma_front;
  if (plan.target_uses_bias) {
    out.channels_.push_back(target_channel);
    CellCascade::Term term;
    split(deep_x, term.x);
    split(deep_y, term.y);
    factor.terms.push_back(term);
  } else {
    // Bias-independent target: solve once at 0 V.
    const double v0 = 0.0;
    ComplexLanes r[1];
    solve_channels({&target_channel, 1}, BiasAxis::kX, {&v0, 1}, r);
    const Complex rx = r[0].at(0);
    solve_channels({&target_channel, 1}, BiasAxis::kY, {&v0, 1}, r);
    const Complex ry = r[0].at(0);
    constant = constant + rx * deep_x + ry * deep_y;
  }
  if (plan.front_uses_bias) {
    // front_gamma (rotator_stack.h) collected by channel value:
    // (r0x + r0y)/2 I + kfb (r0x - r0y)/2 D with
    // D = [[c2 - s2, 2 cs], [2 cs, s2 - c2]], the front board (the target)
    // rotation's coefficients.
    LLAMA_INVARIANT(plan.target_uses_bias && plan.target_index == 0,
                    "a tunable first board is the reflection target");
    const Complex half{0.5, 0.0};
    const Complex diag{rc.c2 - rc.s2, 0.0}, off{2.0 * rc.cs, 0.0};
    const JonesMatrix d =
        metasurface::kFrontBirefringence * JonesMatrix{diag, off, off, -diag};
    CellCascade::Term term;
    split(half * (JonesMatrix::identity() + d), term.x);
    split(half * (JonesMatrix::identity() + (-1.0) * d), term.y);
    factor.terms.push_back(term);
  }
  split(constant, factor.constant);
  out.factors_.push_back(factor);
  return out;
}

ReflectionKernel::ReflectionKernel(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan,
    std::span<const double> vx, std::span<const double> vy)
    : cells_(reflection_cells(stack, plan)), nx_(vx.size()), ny_(vy.size()) {
  const std::size_t width = 2 * cells_.channels().size();
  const std::size_t terms = cells_.terms_size();
  const auto halves = [&](BiasAxis axis, std::span<const double> biases,
                          std::vector<double>& out) {
    std::vector<double> entries(width * biases.size());
    solve_axis_entries(cells_.channels(), axis, biases, entries.data());
    out.resize(terms * biases.size());
    for (std::size_t i = 0; i < biases.size(); ++i)
      cells_.axis_terms(axis, entries.data() + i * width,
                        out.data() + i * terms);
  };
  halves(BiasAxis::kX, vx, x_terms_);
  halves(BiasAxis::kY, vy, y_terms_);
}

void ReflectionKernel::set_blend(const StuckBlend& blend) {
  blend_enabled_ = true;
  blend_ = blend;
}

void ReflectionKernel::eval_grid_row(std::size_t iy,
                                     em::JonesMatrix* out) const {
  LLAMA_EXPECTS(iy < ny_, "row index inside the vy lane");
  eval_cells<0>(/*x_offset=*/0, /*y_offset=*/iy, nx_, out);
}

void ReflectionKernel::eval_pairs(std::size_t begin, std::size_t end,
                                  em::JonesMatrix* out) const {
  LLAMA_EXPECTS(nx_ == ny_, "pairs evaluation needs equal-length bias lanes");
  LLAMA_EXPECTS(begin <= end && end <= nx_, "pair range inside the lanes");
  eval_cells<1>(begin, begin, end - begin, out);
}

template <int YStride>
void ReflectionKernel::eval_cells(std::size_t x_offset, std::size_t y_offset,
                                  std::size_t n, em::JonesMatrix* out) const {
  const std::size_t terms = cells_.terms_size();
  for (std::size_t i = 0; i < n; ++i) {
    JonesMatrix cell = cells_.combine(
        x_terms_.data() + (x_offset + i) * terms,
        y_terms_.data() + (y_offset + i * YStride) * terms);
    if (blend_enabled_) {
      cell = blend_.keep * cell + blend_.frac * blend_.stuck;
    }
    out[i] = cell;
  }
}

}  // namespace llama::kernel
