// SoA evaluation of whole bias planes through a RotatorStack plan.
//
// The scalar planned path (RotatorStack::transmission/reflection over a
// plan) evaluates one (Vx, Vy) cell at a time; these kernels evaluate a
// whole plane. A plan factors into per-axis channels — for each
// bias-dependent board, the X response depends only on Vx and the Y
// response only on Vy, so an nx-by-ny grid needs nx + ny board solves
// (src/kernel/board_kernels) instead of nx * ny — and a bias-independent
// cascade: every run of consecutive static boards and air gaps folded into
// a single constant Jones matrix.
//
// TransmissionCascade holds the bias-independent half of a transmission
// plan. TransmissionKernel solves its channels as whole lanes and cascades
// 2x2 complex multiplies over split re/im lanes (src/kernel/lanes.h), which
// the compiler auto-vectorizes. CellCascade evaluates one cell from per-axis
// S-parameters solved elsewhere: metasurface::SharedResponseEngine keeps
// them on a bias lattice for both modes, and ReflectionKernel evaluates
// every reflection plane through reflection_cells(), so reflection has one
// kernel model.
//
// Contract with the scalar golden reference: the kernels and cascades may
// reassociate (constant folding, naive complex division), so results agree
// with the planned scalar path to <= 1e-12 per component — NOT bit-for-bit.
// Within the kernel itself every cell is a pure function of (plan, axes,
// cell index), so one kernel instance produces byte-identical planes for any
// thread count / shard shape; both properties are asserted by
// tests/kernel/test_golden_equivalence.cpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/em/jones.h"
#include "src/kernel/board_kernels.h"
#include "src/kernel/lanes.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::kernel {

/// Degraded-aperture blend applied in lane space (see
/// Metasurface::set_stuck_cells): cell' = keep * cell + frac * stuck.
struct StuckBlend {
  em::Complex keep{1.0, 0.0};
  em::Complex frac{0.0, 0.0};
  em::JonesMatrix stuck;
};

/// Which bias rail a per-axis solve runs on.
enum class BiasAxis { kX, kY };

/// One bias-dependent per-axis S-parameter that a cascade reads at every
/// cell: a board's X-axis value depends only on Vx, its Y-axis value only
/// on Vy.
struct AxisChannel {
  metasurface::BoardAxisPlan x;
  metasurface::BoardAxisPlan y;
  double omega = 0.0;
  microwave::Varactor varactor;
  AxisOutput output = AxisOutput::kS21;  ///< kS21 or kS11

  [[nodiscard]] const metasurface::BoardAxisPlan& plan(BiasAxis axis) const {
    return axis == BiasAxis::kX ? x : y;
  }

  friend bool operator==(const AxisChannel&, const AxisChannel&) = default;
};

/// Solves channels[k] on `axis` for every bias into lanes[k]; each slot is
/// a pure function of its own bias.
void solve_channels(std::span<const AxisChannel> channels, BiasAxis axis,
                    std::span<const double> biases,
                    std::span<ComplexLanes> lanes);

/// solve_channels, interleaved into per-bias entries: entry i starts at
/// out + 2 * channels.size() * i and holds channel k's value as
/// (re, im) at offset 2k.
void solve_axis_entries(std::span<const AxisChannel> channels, BiasAxis axis,
                        std::span<const double> biases, double* out);

/// A plan's response at one cell from per-axis S-parameters solved
/// elsewhere (metasurface::SharedResponseEngine keeps them on a bias
/// lattice).
/// The plan's folded constants are multiplied into a cascade of factors,
/// each affine in the channel values:
///   J = F_m ... F_1,   F_f = K_f + sum_k (x_k X_fk + y_k Y_fk).
/// A cell therefore splits into an X half (sum_k x_k X_fk, per factor), a Y
/// half and a combine step that adds the halves and multiplies the factors.
/// eval() and axis_terms() + combine() run the same arithmetic, so a grid
/// that computes each column's and row's half once equals pointwise eval()
/// bit for bit. No scratch: a single cell allocates nothing.
class CellCascade {
 public:
  [[nodiscard]] const std::vector<AxisChannel>& channels() const {
    return channels_;
  }
  /// Doubles per axis half: a 2x2 complex matrix (re[4] then im[4]) per
  /// factor.
  [[nodiscard]] std::size_t terms_size() const { return 8 * factors_.size(); }

  /// One axis half from one entry (channel k's value on `axis` as (re, im)
  /// at entry[2k], the solve_axis_entries layout); writes terms_size()
  /// doubles.
  void axis_terms(BiasAxis axis, const double* entry, double* terms) const;
  /// The cell from one X half and one Y half.
  [[nodiscard]] em::JonesMatrix combine(const double* x_terms,
                                        const double* y_terms) const;
  /// combine(axis_terms(kX, x), axis_terms(kY, y)) without the buffers.
  [[nodiscard]] em::JonesMatrix eval(const double* x, const double* y) const;

 private:
  friend class TransmissionCascade;
  friend CellCascade reflection_cells(
      const metasurface::RotatorStack& stack,
      const metasurface::RotatorStack::ReflectionPlan& plan);

  /// Channel `channel`'s coefficient matrices X_fk and Y_fk (re then im).
  struct Term {
    std::size_t channel = 0;
    double x[8] = {};
    double y[8] = {};
  };
  struct Factor {
    bool has_constant = false;
    double constant[8] = {};
    std::vector<Term> terms;
  };

  void factor_half(const Factor& f, BiasAxis axis, const double* entry,
                   double* half) const;
  /// u = F * u (or u = F for the first factor), F = (K +) x_half + y_half.
  static void apply_factor(const Factor& f, const double* x_half,
                           const double* y_half, bool first, double* u);

  std::vector<AxisChannel> channels_;
  std::vector<Factor> factors_;
};

/// The bias-independent half of a transmission plan: every run of static
/// boards and air gaps folded into one constant, and each tunable board's
/// rotation. The channels are the tunable boards' S21, in cascade order.
class TransmissionCascade {
 public:
  TransmissionCascade(const metasurface::RotatorStack& stack,
                      const metasurface::RotatorStack::TransmissionPlan& plan);

  /// Tunable boards' channels; identical boards (a stack's twin BFS
  /// boards) share one.
  [[nodiscard]] const std::vector<AxisChannel>& channels() const {
    return channels_;
  }

  /// The same cascade as a CellCascade, built on each call: tunable board k
  /// is the factor C T_k (T_1 also absorbs the opening static run), with
  /// T_k = x_k R diag(1, 0) R^T + y_k R diag(0, 1) R^T and C the static run
  /// after it.
  [[nodiscard]] CellCascade cells() const;

 private:
  friend class TransmissionKernel;

  /// One cascade step: a run of folded constants, or one tunable board
  /// (channels_[channel]) with its rotation split into the
  /// rotated-diagonal coefficients c^2, s^2, c*s.
  struct Op {
    bool tunable = false;
    std::size_t channel = 0;
    double c2 = 1.0;
    double s2 = 0.0;
    double cs = 0.0;
    em::JonesMatrix constant;
  };

  std::vector<Op> ops_;
  std::vector<AxisChannel> channels_;
};

/// The reflection model of a plan as a CellCascade of one factor
/// K + x·X + y·Y: the deep bounce F^T rotated(diag(rx, ry)) F and the
/// front-face specular term are both linear in the boards' S11. Channels:
/// the target board's S11 when it depends on bias, none otherwise. A
/// tunable first board is always the target (the first tunable element), so
/// the front term then reads the same channel.
[[nodiscard]] CellCascade reflection_cells(
    const metasurface::RotatorStack& stack,
    const metasurface::RotatorStack::ReflectionPlan& plan);

/// Transmission cascade over a bias plane. The same instance serves both
/// plane shapes:
///  - grid:  cell (ix, iy) = bias (vx[ix], vy[iy]); evaluate row by row
///    with eval_grid_row (vx/vy lengths are independent);
///  - pairs: cell i = bias (vx[i], vy[i]); evaluate contiguous chunks with
///    eval_pairs (vx/vy must have equal length).
/// Bias values are used as given — callers clamp to the supply range first.
class TransmissionKernel {
 public:
  TransmissionKernel(const metasurface::RotatorStack& stack,
                     const metasurface::RotatorStack::TransmissionPlan& plan,
                     std::span<const double> vx, std::span<const double> vy);

  /// Enables the degraded-plane blend for every subsequently evaluated cell.
  void set_blend(const StuckBlend& blend);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }

  /// Writes out[0..nx) = cascade at (vx[*], vy[iy]). Safe to call from
  /// parallel shards: eval is pure per cell and scratch is call-local.
  void eval_grid_row(std::size_t iy, em::JonesMatrix* out) const;

  /// Writes out[0..end-begin) = cascade at (vx[i], vy[i]), i in [begin, end).
  void eval_pairs(std::size_t begin, std::size_t end,
                  em::JonesMatrix* out) const;

 private:
  template <int TyStride>
  void eval_cells(std::size_t tx_offset, std::size_t ty_offset, std::size_t n,
                  em::JonesMatrix* out) const;

  TransmissionCascade cascade_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  /// Per tunable board (cascade channel): s21 of the X axis over the vx
  /// lane and of the Y axis over the vy lane.
  std::vector<ComplexLanes> tx_;
  std::vector<ComplexLanes> ty_;
  bool blend_enabled_ = false;
  StuckBlend blend_;
};

/// Reflection model over a bias plane; same dual grid/pairs shape contract
/// as TransmissionKernel. The constructor solves the channels and keeps
/// reflection_cells()' X half per vx and Y half per vy, so a cell is one
/// CellCascade::combine: the arithmetic of SharedResponseEngine's lookups.
class ReflectionKernel {
 public:
  ReflectionKernel(const metasurface::RotatorStack& stack,
                   const metasurface::RotatorStack::ReflectionPlan& plan,
                   std::span<const double> vx, std::span<const double> vy);

  void set_blend(const StuckBlend& blend);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }

  void eval_grid_row(std::size_t iy, em::JonesMatrix* out) const;
  void eval_pairs(std::size_t begin, std::size_t end,
                  em::JonesMatrix* out) const;

 private:
  template <int YStride>
  void eval_cells(std::size_t x_offset, std::size_t y_offset, std::size_t n,
                  em::JonesMatrix* out) const;

  CellCascade cells_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  /// cells_.terms_size() doubles per bias: the X half at each vx, the Y
  /// half at each vy.
  std::vector<double> x_terms_;
  std::vector<double> y_terms_;
  bool blend_enabled_ = false;
  StuckBlend blend_;
};

}  // namespace llama::kernel
