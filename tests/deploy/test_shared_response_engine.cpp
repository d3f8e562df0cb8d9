// SharedResponseEngine on lazily solved per-axis lattice planes:
//  - golden equivalence: every lookup matches the direct scalar cascade at
//    the lattice bias to 1e-12, for every design and both modes;
//  - determinism: an entry's value does not depend on which lookup filled
//    its block, in what order, or from which thread (memcmp-identical);
//  - laziness: a lookup fills only the blocks it reads;
//  - input and config validation.
#include "src/deploy/deployment_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scenarios.h"
#include "src/metasurface/designs.h"

namespace llama::deploy {
namespace {

using common::Frequency;
using common::Voltage;
using em::JonesMatrix;
using metasurface::SurfaceMode;

constexpr double kQuantum = 1e-3;  // ResponseCacheConfig default

/// The engine's lattice bias for a requested one: clamp to the supply
/// range, then snap to the quantum.
Voltage lattice_bias(double v) {
  return Voltage{std::round(std::clamp(v, 0.0, 30.0) / kQuantum) * kQuantum};
}

struct Design {
  std::string name;
  metasurface::RotatorStack stack;
  Frequency f;
};

/// The shipped designs, then stacks built from the prototype's boards: a
/// BFS board alone, a rotated BFS board in front of the static boards, and
/// the static boards alone. With a tunable first board the front-face
/// specular term depends on bias, and that board is also the deep-bounce
/// target (the first tunable element), so both reflection terms read it.
std::vector<Design> all_designs() {
  std::vector<Design> designs{
      {"prototype_fr4", metasurface::prototype_fr4_design(),
       Frequency::ghz(2.44)},
      {"optimized_fr4", metasurface::optimized_fr4_design(),
       Frequency::ghz(2.41)},
      {"reference_rogers", metasurface::reference_rogers_design(),
       Frequency::ghz(2.46)},
      {"naive_fr4", metasurface::naive_fr4_design(), Frequency::ghz(2.44)},
      {"rfid_900mhz", metasurface::rfid_900mhz_design(),
       Frequency::ghz(0.915)}};
  const metasurface::RotatorStack prototype =
      metasurface::prototype_fr4_design();
  std::vector<metasurface::StackElement> tunable;
  std::vector<metasurface::StackElement> fixed;
  for (const metasurface::StackElement& e : prototype.elements())
    (e.tunable ? tunable : fixed).push_back(e);
  std::vector<metasurface::StackElement> alone{tunable.front()};
  alone.back().gap_after_m = 0.0;
  std::vector<metasurface::StackElement> in_front{tunable.front()};
  in_front.back().rotation = common::Angle::degrees(20.0);
  in_front.insert(in_front.end(), fixed.begin(), fixed.end());
  const Frequency f = Frequency::ghz(2.44);
  designs.push_back({"bfs_alone", metasurface::RotatorStack{alone}, f});
  designs.push_back(
      {"rotated_bfs_before_qwps", metasurface::RotatorStack{in_front}, f});
  designs.push_back({"static_qwps", metasurface::RotatorStack{fixed}, f});
  return designs;
}

/// Biases covering the rails, interior points and out-of-range requests.
std::vector<double> test_biases(std::uint64_t seed) {
  std::vector<double> v{0.0,   30.0, -4.0, 41.5,
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), 12.3456};
  common::Rng rng{seed};
  for (int i = 0; i < 6; ++i) v.push_back(rng.uniform(-2.0, 32.0));
  return v;
}

void expect_near(const JonesMatrix& got, const JonesMatrix& want,
                 const std::string& what) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(got.at(r, c).real(), want.at(r, c).real(), 1e-12)
          << what << " [" << r << "," << c << "] re";
      EXPECT_NEAR(got.at(r, c).imag(), want.at(r, c).imag(), 1e-12)
          << what << " [" << r << "," << c << "] im";
    }
}

bool same_bytes(const JonesMatrix& a, const JonesMatrix& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SharedResponseEngineGolden, MatchesDirectScalarCascadeEverywhere) {
  std::uint64_t seed = 7;
  for (const Design& d : all_designs()) {
    SharedResponseEngine engine{d.stack};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const std::vector<double> vxs = test_biases(++seed);
      const std::vector<double> vys = test_biases(++seed);
      const metasurface::JonesGrid grid =
          engine.response_grid(d.f, mode, vxs, vys);
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
          const Voltage vx = lattice_bias(vxs[ix]);
          const Voltage vy = lattice_bias(vys[iy]);
          const JonesMatrix want =
              mode == SurfaceMode::kTransmissive
                  ? d.stack.transmission(d.f, vx, vy)
                  : d.stack.reflection(d.f, vx, vy);
          const std::string what = d.name + " mode " +
                                   std::to_string(static_cast<int>(mode)) +
                                   " at (" + std::to_string(vxs[ix]) + ", " +
                                   std::to_string(vys[iy]) + ")";
          expect_near(grid[iy][ix], want, what + " grid");
          const JonesMatrix point = engine.response(
              d.f, mode, Voltage{vxs[ix]}, Voltage{vys[iy]});
          expect_near(point, want, what + " point");
          EXPECT_TRUE(same_bytes(point, grid[iy][ix])) << what;
        }
    }
  }
}

/// Biases spread over many blocks, with repeats inside blocks.
std::vector<double> spread_biases() {
  std::vector<double> v;
  common::Rng rng{99};
  for (int i = 0; i < 40; ++i) v.push_back(rng.uniform(0.0, 30.0));
  v.push_back(0.0);
  v.push_back(30.0);
  return v;
}

/// Every (vx, vy) pair's response, read pointwise after the engine is
/// fully filled, plus the whole grid.
std::vector<JonesMatrix> snapshot(SharedResponseEngine& engine, Frequency f,
                                  SurfaceMode mode,
                                  const std::vector<double>& biases) {
  std::vector<JonesMatrix> out;
  for (const double vy : biases)
    for (const double vx : biases)
      out.push_back(engine.response(f, mode, Voltage{vx}, Voltage{vy}));
  for (const std::vector<JonesMatrix>& row :
       engine.response_grid(f, mode, biases, biases))
    out.insert(out.end(), row.begin(), row.end());
  return out;
}

TEST(SharedResponseEngineDeterminism, FillOrderAndThreadsDoNotChangeBytes) {
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> biases = spread_biases();
  for (const SurfaceMode mode :
       {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
    // Points first, ascending.
    SharedResponseEngine points{metasurface::prototype_fr4_design()};
    for (const double vy : biases)
      for (const double vx : biases)
        (void)points.response(f, mode, Voltage{vx}, Voltage{vy});

    // Grid first, blocks filled in reverse order.
    SharedResponseEngine reversed{metasurface::prototype_fr4_design()};
    std::vector<double> descending = biases;
    std::sort(descending.begin(), descending.end(), std::greater<>{});
    (void)reversed.response_grid(f, mode, descending, descending);

    // Four threads racing over interleaved slices, points and grids mixed.
    SharedResponseEngine concurrent{metasurface::prototype_fr4_design()};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < 4; ++t)
      workers.emplace_back([&, t] {
        std::vector<double> slice;
        for (std::size_t i = t; i < biases.size(); i += 4)
          slice.push_back(biases[i]);
        (void)concurrent.response_grid(f, mode, slice, biases);
        for (const double vx : biases)
          (void)concurrent.response(f, mode, Voltage{vx},
                                    Voltage{slice.front()});
      });
    for (std::thread& w : workers) w.join();

    const std::vector<JonesMatrix> a = snapshot(points, f, mode, biases);
    const std::vector<JonesMatrix> b = snapshot(reversed, f, mode, biases);
    const std::vector<JonesMatrix> c = snapshot(concurrent, f, mode, biases);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0)
        << "points-first vs reverse-grid-first";
    EXPECT_EQ(std::memcmp(a.data(), c.data(), a.size() * sizeof(a[0])), 0)
        << "points-first vs 4 concurrent threads";
    EXPECT_EQ(points.cache_size(), reversed.cache_size());
    EXPECT_EQ(points.cache_size(), concurrent.cache_size());
  }
}

TEST(SharedResponseEngineLaziness, OneLookupFillsOneBlockPerAxis) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  const SurfaceMode mode = SurfaceMode::kTransmissive;
  EXPECT_EQ(engine.cache_size(), 0u);
  (void)engine.response(f, mode, Voltage{3.0}, Voltage{17.0});
  EXPECT_EQ(engine.cache_size(), 2u);  // one X block, one Y block
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  // Same blocks (64 quanta = 64 mV each): a hit that fills nothing.
  (void)engine.response(f, mode, Voltage{3.005}, Voltage{17.02});
  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  // A new X block only.
  (void)engine.response(f, mode, Voltage{9.0}, Voltage{17.0});
  EXPECT_EQ(engine.cache_size(), 3u);
  EXPECT_EQ(engine.cache_stats().misses, 2u);
  EXPECT_EQ(engine.cache_stats().evictions, 0u);
}

TEST(SharedResponseEngineLaziness, FleetRoundFillsFewBlocks) {
  core::DenseDeploymentScenario s = core::dense_deployment_scenario(256, 8);
  s.config.interference.enable_leakage = true;
  DeploymentEngine engine{s.config};
  (void)engine.run(s.devices);
  EXPECT_GT(engine.response_engine().cache_size(), 0u);
  EXPECT_LE(engine.response_engine().cache_size(), 64u);
}

TEST(SharedResponseEngineValidation, RejectsNaNBiasAndFrequency) {
  SharedResponseEngine engine{metasurface::prototype_fr4_design()};
  const Frequency f = Frequency::ghz(2.44);
  const SurfaceMode mode = SurfaceMode::kTransmissive;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)engine.response(f, mode, Voltage{nan}, Voltage{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)engine.response(f, mode, Voltage{1.0}, Voltage{nan}),
               std::invalid_argument);
  EXPECT_THROW((void)engine.response_grid(f, mode, {1.0, nan}, {2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)engine.response_grid(f, mode, {1.0}, {nan}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)engine.response(Frequency{nan}, mode, Voltage{1.0}, Voltage{1.0}),
      std::invalid_argument);
  EXPECT_EQ(engine.cache_size(), 0u);  // nothing was filled

  // Infinities clamp to the rails.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(same_bytes(
      engine.response(f, mode, Voltage{inf}, Voltage{-inf}),
      engine.response(f, mode, Voltage{30.0}, Voltage{0.0})));
}

TEST(SharedResponseEngineValidation, RejectsBadVoltageQuantum) {
  const auto make = [](double q) {
    metasurface::ResponseCacheConfig cfg;
    cfg.voltage_quantum_v = q;
    return SharedResponseEngine{metasurface::prototype_fr4_design(), cfg};
  };
  for (const double q : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()})
    EXPECT_THROW((void)make(q), std::invalid_argument) << "quantum " << q;
  // 30 V / 2^25 entries is the finest accepted lattice.
  EXPECT_THROW((void)make(30.0 / 33554432.0), std::invalid_argument);
  EXPECT_THROW((void)make(1e-9), std::invalid_argument);
  EXPECT_NO_THROW((void)make(1e-6));
  EXPECT_NO_THROW((void)make(0.5));
}

}  // namespace
}  // namespace llama::deploy
