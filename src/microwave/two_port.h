// Two-port network theory: ABCD (chain) matrices and S-parameters
// (paper Eqs. 9-11, Figure 7).
//
// The metasurface circuit solver models each layer (dielectric slab, printed
// pattern, varactor loading) as a two-port and cascades them via ABCD
// multiplication; S21 magnitude gives the transmission efficiency the paper
// plots in Figs. 8-11, and S21 phase drives the Jones birefringence model.
#pragma once

#include <complex>

#include "src/common/units.h"

namespace llama::microwave {

using Complex = std::complex<double>;

/// Reference system impedance for S-parameter normalization [ohm].
inline constexpr double kZ0 = 376.730313668;  // free-space wave impedance

/// Scattering matrix of a two-port (paper Eq. 10).
struct SParams {
  Complex s11{0.0, 0.0};
  Complex s12{0.0, 0.0};
  Complex s21{0.0, 0.0};
  Complex s22{0.0, 0.0};

  /// |S21|^2 as dB — the "efficiency" metric of paper Eq. 11 for a single
  /// co-polarized excitation.
  [[nodiscard]] double transmission_efficiency_db() const;

  /// |S11|^2 as dB (return loss magnitude).
  [[nodiscard]] double reflection_db() const;

  /// S21 transmission phase [rad].
  [[nodiscard]] double transmission_phase_rad() const;

  /// Passivity check: no excitation may yield more outgoing than incoming
  /// power. Sufficient condition used here: column sums of |S|^2 <= 1 + tol.
  [[nodiscard]] bool is_passive(double tol = 1e-6) const;

  /// Reciprocity: S21 == S12 within tol (all our structures are reciprocal).
  [[nodiscard]] bool is_reciprocal(double tol = 1e-9) const;
};

/// ABCD (chain) matrix of a two-port. Cascading networks is plain matrix
/// multiplication, which is why the solver works in this representation and
/// converts to S-parameters only at the end.
///
/// This scalar type is the golden reference for the lane-kernel twin in
/// src/kernel/board_kernels.cpp, which composes the same shunt-slab-shunt
/// chain and ABCD->S conversion symbolically over SoA lanes. A change to
/// the composition or conversion math here must be mirrored there (the
/// tests/kernel golden suite catches divergence beyond 1e-12).
class Abcd {
 public:
  constexpr Abcd() = default;
  constexpr Abcd(Complex a, Complex b, Complex c, Complex d)
      : a_(a), b_(b), c_(c), d_(d) {}

  [[nodiscard]] static constexpr Abcd identity() {
    return {Complex{1, 0}, Complex{0, 0}, Complex{0, 0}, Complex{1, 0}};
  }

  /// Series impedance element Z.
  [[nodiscard]] static Abcd series(Complex z);

  /// Shunt admittance element Y.
  [[nodiscard]] static Abcd shunt(Complex y);

  /// Lossy transmission-line section: characteristic impedance zc,
  /// propagation constant gamma = alpha + j beta, physical length [m].
  [[nodiscard]] static Abcd line(Complex zc, Complex gamma, double length_m);

  [[nodiscard]] constexpr Complex a() const { return a_; }
  [[nodiscard]] constexpr Complex b() const { return b_; }
  [[nodiscard]] constexpr Complex c() const { return c_; }
  [[nodiscard]] constexpr Complex d() const { return d_; }

  /// Converts to S-parameters in reference impedance z0 (default: free
  /// space, appropriate for a wave impinging on a surface from air).
  [[nodiscard]] SParams to_sparams(double z0 = kZ0) const;

  /// Chain rule: (this) followed by (next), wave passes this first.
  friend Abcd operator*(const Abcd& first, const Abcd& second);

  friend bool operator==(const Abcd&, const Abcd&) = default;

 private:
  Complex a_{1.0, 0.0};
  Complex b_{0.0, 0.0};
  Complex c_{0.0, 0.0};
  Complex d_{1.0, 0.0};
};

}  // namespace llama::microwave
