// Randomized golden-equivalence suite for the SoA kernel layer.
//
// The scalar planned path (RotatorStack::transmission/reflection over a
// plan) is the golden reference; the kernels may reassociate, so the
// contract is <= 1e-12 per-component agreement — NOT bit-equality. The
// byte-identical invariant is separate and WITHIN the kernel path: one grid
// must memcmp-equal itself for any thread count. Each test below says which
// of the two properties it asserts.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"

namespace llama::kernel {
namespace {

using common::Frequency;
using common::Rng;
using common::Voltage;
using em::JonesMatrix;
using metasurface::BiasList;
using metasurface::JonesGrid;
using metasurface::Metasurface;
using metasurface::RotatorStack;
using metasurface::SurfaceMode;

/// The SoA <-> scalar agreement bound (see jones_kernels.h).
constexpr double kTol = 1e-12;

struct NamedDesign {
  const char* name;
  RotatorStack stack;
  double center_ghz;  ///< design band center, the region worth probing
};

std::vector<NamedDesign> all_designs() {
  std::vector<NamedDesign> designs;
  designs.push_back({"reference_rogers", metasurface::reference_rogers_design(), 2.44});
  designs.push_back({"naive_fr4", metasurface::naive_fr4_design(), 2.44});
  designs.push_back({"optimized_fr4", metasurface::optimized_fr4_design(), 2.44});
  designs.push_back({"prototype_fr4", metasurface::prototype_fr4_design(), 2.44});
  designs.push_back({"rfid_900mhz", metasurface::rfid_900mhz_design(), 0.915});
  // Stacks built from the prototype's boards: a BFS board alone, a rotated
  // BFS board in front of the static boards, and the static boards alone.
  // With a tunable first board the front-face specular term depends on
  // bias, and that board is also the deep-bounce target.
  const RotatorStack prototype = metasurface::prototype_fr4_design();
  std::vector<metasurface::StackElement> tunable;
  std::vector<metasurface::StackElement> fixed;
  for (const metasurface::StackElement& e : prototype.elements())
    (e.tunable ? tunable : fixed).push_back(e);
  std::vector<metasurface::StackElement> alone{tunable.front()};
  alone.back().gap_after_m = 0.0;
  std::vector<metasurface::StackElement> in_front{tunable.front()};
  in_front.back().rotation = common::Angle::degrees(20.0);
  in_front.insert(in_front.end(), fixed.begin(), fixed.end());
  designs.push_back({"bfs_alone", RotatorStack{alone}, 2.44});
  designs.push_back({"rotated_bfs_before_qwps", RotatorStack{in_front}, 2.44});
  designs.push_back({"static_qwps", RotatorStack{fixed}, 2.44});
  return designs;
}

double max_component_diff(const JonesMatrix& a, const JonesMatrix& b) {
  double worst = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      worst = std::max(worst, std::abs(a.at(r, c).real() - b.at(r, c).real()));
      worst = std::max(worst, std::abs(a.at(r, c).imag() - b.at(r, c).imag()));
    }
  return worst;
}

std::vector<double> random_axis(Rng& rng, std::size_t n) {
  std::vector<double> axis(n);
  // Beyond-supply values check that the kernel path clamps like set_bias.
  for (double& v : axis) v = rng.uniform(-2.0, 33.0);
  return axis;
}

/// Scalar golden reference for one cell: pointwise response() at the
/// (already raw, to-be-clamped) bias pair, via the planned scalar path.
JonesMatrix scalar_cell(const Metasurface& surface, Frequency f,
                        SurfaceMode mode, double vx, double vy) {
  Metasurface probe = surface;  // fresh copy: keep the original's state pure
  probe.set_bias(Voltage{vx}, Voltage{vy});
  return probe.response(f, mode);
}

/// Property 1 (equivalence bound): random grids on every design, both
/// modes, random frequencies near each design's band — every cell agrees
/// with the pointwise scalar response to <= 1e-12 per component.
TEST(GoldenEquivalence, RandomGridsMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE01};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.9, 1.1));
      const std::vector<double> vxs = random_axis(rng, 7);
      const std::vector<double> vys = random_axis(rng, 5);
      const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
      double worst = 0.0;
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix)
          worst = std::max(
              worst, max_component_diff(grid[iy][ix],
                                        scalar_cell(surface, f, mode,
                                                    vxs[ix], vys[iy])));
      EXPECT_LE(worst, kTol)
          << d.name << " mode=" << static_cast<int>(mode)
          << " f=" << f.in_ghz() << " GHz";
    }
  }
}

/// Property 1 for response_batch: arbitrary bias pairs, both modes.
TEST(GoldenEquivalence, RandomBatchesMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE02};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.95, 1.05));
      BiasList points;
      for (int i = 0; i < 23; ++i)
        points.emplace_back(Voltage{rng.uniform(-2.0, 33.0)},
                            Voltage{rng.uniform(-2.0, 33.0)});
      const std::vector<JonesMatrix> batch =
          surface.response_batch(f, mode, points);
      ASSERT_EQ(batch.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        const JonesMatrix golden =
            scalar_cell(surface, f, mode, points[i].first.value(),
                        points[i].second.value());
        EXPECT_LE(max_component_diff(batch[i], golden), kTol)
            << d.name << " point " << i;
      }
    }
  }
}

/// Property 1 under degraded planes: a stuck-cell fault blends in lane
/// space inside the kernels; pointwise response() blends after the scalar
/// path. Both must land within the same 1e-12 bound.
TEST(GoldenEquivalence, StuckCellPlanesMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE03};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    metasurface::StuckCellFault fault;
    fault.fraction = rng.uniform(0.05, 0.6);
    fault.vx = Voltage{rng.uniform(0.0, 30.0)};
    fault.vy = Voltage{rng.uniform(0.0, 30.0)};
    surface.set_stuck_cells(fault);
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.95, 1.05));
      const std::vector<double> vxs = random_axis(rng, 6);
      const std::vector<double> vys = random_axis(rng, 4);
      const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
          const JonesMatrix golden =
              scalar_cell(surface, f, mode, vxs[ix], vys[iy]);
          EXPECT_LE(max_component_diff(grid[iy][ix], golden), kTol)
              << d.name << " degraded cell (" << ix << ", " << iy << ")";
        }
    }
  }
}

/// Property 2 (byte-identical invariant): the kernel grid path must produce
/// memcmp-equal planes for 1, 2 and 8 workers — same design set, both
/// modes, with and without a degraded plane. This is bit-equality WITHIN
/// the kernel path, orthogonal to the 1e-12 bound against the scalar path.
TEST(GoldenEquivalence, ThreadCountDoesNotChangeGridBytes) {
  Rng rng{0xC0FFEE04};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const bool degraded : {false, true}) {
      if (degraded)
        surface.set_stuck_cells(metasurface::StuckCellFault{
            0.25, Voltage{rng.uniform(0.0, 30.0)},
            Voltage{rng.uniform(0.0, 30.0)}});
      for (const SurfaceMode mode :
           {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
        const Frequency f = Frequency::ghz(d.center_ghz);
        const std::vector<double> vxs = random_axis(rng, 9);
        const std::vector<double> vys = random_axis(rng, 11);
        const JonesGrid baseline =
            surface.response_grid(f, mode, vxs, vys, /*threads=*/1);
        for (const int threads : {2, 8}) {
          const JonesGrid other =
              surface.response_grid(f, mode, vxs, vys, threads);
          ASSERT_EQ(other.size(), baseline.size());
          for (std::size_t iy = 0; iy < baseline.size(); ++iy) {
            ASSERT_EQ(other[iy].size(), baseline[iy].size());
            EXPECT_EQ(std::memcmp(other[iy].data(), baseline[iy].data(),
                                  baseline[iy].size() * sizeof(JonesMatrix)),
                      0)
                << d.name << " row " << iy << " with " << threads
                << " workers (degraded=" << degraded << ")";
          }
        }
      }
    }
  }
}

/// Property 2 for response_batch: the fixed pair-chunk decomposition must
/// make batches byte-identical for any worker count.
TEST(GoldenEquivalence, ThreadCountDoesNotChangeBatchBytes) {
  Rng rng{0xC0FFEE05};
  Metasurface surface{metasurface::optimized_fr4_design()};
  BiasList points;
  for (int i = 0; i < 700; ++i)  // spans multiple 256-pair chunks
    points.emplace_back(Voltage{rng.uniform(0.0, 30.0)},
                        Voltage{rng.uniform(0.0, 30.0)});
  const Frequency f = Frequency::ghz(2.44);
  for (const SurfaceMode mode :
       {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    const std::vector<JonesMatrix> baseline =
        surface.response_batch(f, mode, points, /*threads=*/1);
    for (const int threads : {2, 8}) {
      const std::vector<JonesMatrix> other =
          surface.response_batch(f, mode, points, threads);
      ASSERT_EQ(other.size(), baseline.size());
      EXPECT_EQ(std::memcmp(other.data(), baseline.data(),
                            baseline.size() * sizeof(JonesMatrix)),
                0)
          << "mode=" << static_cast<int>(mode) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace llama::kernel
