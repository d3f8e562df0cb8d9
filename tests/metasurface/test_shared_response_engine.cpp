// SharedResponseEngine on lazily solved per-axis lattice planes:
//  - golden equivalence: every lookup matches the direct scalar cascade at
//    the lattice bias to 1e-12, for every design and both modes;
//  - determinism: an entry's value does not depend on which lookup filled
//    its block, in what order, or from which thread (memcmp-identical);
//  - binding: a bound Metasurface answers with the engine's lookups, stuck
//    sub-aperture included, copies share the engine, and an engine built
//    for another design is rejected;
//  - laziness: a lookup fills only the blocks it reads;
//  - input and config validation.
#include "src/metasurface/response_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scenarios.h"
#include "src/metasurface/designs.h"

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;
using em::JonesMatrix;

constexpr double kQuantum = 1e-3;  // ResponseCacheConfig default

/// The engine's lattice bias for a requested one: clamp to the supply
/// range, then snap to the quantum.
Voltage lattice_bias(double v) {
  return Voltage{std::round(std::clamp(v, 0.0, 30.0) / kQuantum) * kQuantum};
}

struct Design {
  std::string name;
  RotatorStack stack;
  Frequency f;
};

/// The shipped designs, then stacks built from the prototype's boards: a
/// BFS board alone, a rotated BFS board in front of the static boards, and
/// the static boards alone. With a tunable first board the front-face
/// specular term depends on bias, and that board is also the deep-bounce
/// target (the first tunable element), so both reflection terms read it.
std::vector<Design> all_designs() {
  std::vector<Design> designs{
      {"prototype_fr4", prototype_fr4_design(),
       Frequency::ghz(2.44)},
      {"optimized_fr4", optimized_fr4_design(),
       Frequency::ghz(2.41)},
      {"reference_rogers", reference_rogers_design(),
       Frequency::ghz(2.46)},
      {"naive_fr4", naive_fr4_design(), Frequency::ghz(2.44)},
      {"rfid_900mhz", rfid_900mhz_design(),
       Frequency::ghz(0.915)}};
  const RotatorStack prototype =
      prototype_fr4_design();
  std::vector<StackElement> tunable;
  std::vector<StackElement> fixed;
  for (const StackElement& e : prototype.elements())
    (e.tunable ? tunable : fixed).push_back(e);
  std::vector<StackElement> alone{tunable.front()};
  alone.back().gap_after_m = 0.0;
  std::vector<StackElement> in_front{tunable.front()};
  in_front.back().rotation = common::Angle::degrees(20.0);
  in_front.insert(in_front.end(), fixed.begin(), fixed.end());
  const Frequency f = Frequency::ghz(2.44);
  designs.push_back({"bfs_alone", RotatorStack{alone}, f});
  designs.push_back(
      {"rotated_bfs_before_qwps", RotatorStack{in_front}, f});
  designs.push_back({"static_qwps", RotatorStack{fixed}, f});
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
      const JonesGrid grid =
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

JonesMatrix blend(double fraction, const JonesMatrix& healthy,
                  const JonesMatrix& stuck) {
  return em::Complex{1.0 - fraction, 0.0} * healthy +
         em::Complex{fraction, 0.0} * stuck;
}

TEST(SharedResponseEngineBinding, BoundSurfaceMatchesEngineAndGolden) {
  // The stuck bias sits off the lattice: the golden at its lattice point
  // differs from the golden at the raw bias by far more than 1e-12, so the
  // faulted checks below also prove the stuck term is an engine lookup.
  const StuckCellFault fault{0.3, Voltage{7.3456}, Voltage{21.0987}};
  std::uint64_t seed = 41;
  for (const Design& d : all_designs()) {
    const auto engine = std::make_shared<SharedResponseEngine>(d.stack);
    Metasurface surface{d.stack};
    surface.share_response_engine(engine);
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const auto golden = [&](Voltage vx, Voltage vy) {
        return mode == SurfaceMode::kTransmissive
                   ? d.stack.transmission(d.f, vx, vy)
                   : d.stack.reflection(d.f, vx, vy);
      };
      const JonesMatrix stuck_golden = golden(
          lattice_bias(fault.vx.value()), lattice_bias(fault.vy.value()));
      const JonesMatrix stuck_engine =
          engine->response(d.f, mode, fault.vx, fault.vy);
      const std::vector<double> vxs = test_biases(++seed);
      const std::vector<double> vys = test_biases(++seed);
      for (const bool faulted : {false, true}) {
        surface.set_stuck_cells(faulted ? std::optional{fault} : std::nullopt);
        const std::string tag = d.name + " mode " +
                                std::to_string(static_cast<int>(mode)) +
                                (faulted ? " stuck" : " healthy");
        BiasList pairs;
        for (const double vy : vys)
          for (const double vx : vxs) {
            pairs.emplace_back(Voltage{vx}, Voltage{vy});
            surface.set_bias(Voltage{vx}, Voltage{vy});
            const JonesMatrix point =
                engine->response(d.f, mode, Voltage{vx}, Voltage{vy});
            const JonesMatrix want =
                golden(lattice_bias(vx), lattice_bias(vy));
            const std::string what = tag + " at (" + std::to_string(vx) +
                                     ", " + std::to_string(vy) + ")";
            const JonesMatrix got = surface.response(d.f, mode);
            EXPECT_TRUE(same_bytes(
                got, faulted ? blend(fault.fraction, point, stuck_engine)
                             : point))
                << what;
            expect_near(got,
                        faulted ? blend(fault.fraction, want, stuck_golden)
                                : want,
                        what);
          }
        if (!faulted) continue;
        // Batched stuck blends: healthy cells run the kernels at the exact
        // (clamped) bias; the stuck term is the engine's lattice lookup.
        const JonesGrid grid = surface.response_grid(d.f, mode, vxs, vys);
        const std::vector<JonesMatrix> batch =
            surface.response_batch(d.f, mode, pairs);
        for (std::size_t iy = 0; iy < vys.size(); ++iy)
          for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
            const JonesMatrix want = blend(
                fault.fraction,
                golden(Voltage{std::clamp(vxs[ix], 0.0, 30.0)},
                       Voltage{std::clamp(vys[iy], 0.0, 30.0)}),
                stuck_golden);
            const std::string what = tag + " cell (" + std::to_string(ix) +
                                     ", " + std::to_string(iy) + ")";
            expect_near(grid[iy][ix], want, what + " grid");
            expect_near(batch[iy * vxs.size() + ix], want, what + " batch");
          }
      }
    }
  }
}

TEST(SharedResponseEngineBinding, UnboundPlanesEqualEngineAtLatticeBiases) {
  // One arithmetic for both modes: at lattice biases an unbound surface's
  // grid and batch cells are the engine's cells, byte for byte; a stuck
  // fault mixes them with the surface's own (direct-path) stuck response.
  const StuckCellFault fault{0.3, Voltage{7.3456}, Voltage{21.0987}};
  std::vector<double> vxs;
  std::vector<double> vys;
  common::Rng rng{57};
  for (int i = 0; i < 9; ++i) {
    vxs.push_back(static_cast<double>(rng.uniform_int(0, 30000)) * 1e-3);
    vys.push_back(static_cast<double>(rng.uniform_int(0, 30000)) * 1e-3);
  }
  vxs.push_back(static_cast<double>(30000) * 1e-3);
  vys.push_back(0.0);
  for (const Design& d : all_designs()) {
    SharedResponseEngine engine{d.stack};
    Metasurface surface{d.stack};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const JonesGrid want = engine.response_grid(d.f, mode, vxs, vys);
      const JonesMatrix stuck =
          mode == SurfaceMode::kTransmissive
              ? d.stack.transmission(d.f, fault.vx, fault.vy)
              : d.stack.reflection(d.f, fault.vx, fault.vy);
      BiasList pairs;
      for (const double vy : vys)
        for (const double vx : vxs)
          pairs.emplace_back(Voltage{vx}, Voltage{vy});
      for (const bool faulted : {false, true}) {
        surface.set_stuck_cells(faulted ? std::optional{fault} : std::nullopt);
        const JonesGrid grid = surface.response_grid(d.f, mode, vxs, vys);
        const std::vector<JonesMatrix> batch =
            surface.response_batch(d.f, mode, pairs);
        for (std::size_t iy = 0; iy < vys.size(); ++iy)
          for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
            const JonesMatrix cell =
                faulted ? blend(fault.fraction, want[iy][ix], stuck)
                        : want[iy][ix];
            const std::string what =
                d.name + " mode " + std::to_string(static_cast<int>(mode)) +
                (faulted ? " stuck" : " healthy") + " at (" +
                std::to_string(vxs[ix]) + ", " + std::to_string(vys[iy]) +
                ")";
            EXPECT_TRUE(same_bytes(grid[iy][ix], cell)) << what << " grid";
            EXPECT_TRUE(same_bytes(batch[iy * vxs.size() + ix], cell))
                << what << " batch";
          }
      }
    }
  }
}

TEST(SharedResponseEngineBinding, CopiesShareTheEngine) {
  const Frequency f = Frequency::ghz(2.44);
  const SurfaceMode mode = SurfaceMode::kTransmissive;
  Metasurface original = Metasurface::llama_prototype();
  const auto engine = std::make_shared<SharedResponseEngine>(original.stack());
  original.share_response_engine(engine);
  Metasurface copy = original;
  Metasurface assigned = Metasurface::llama_prototype();
  assigned = original;
  EXPECT_EQ(copy.response_engine(), engine);
  EXPECT_EQ(assigned.response_engine(), engine);

  // A lookup through the copy fills the blocks the original then hits.
  copy.set_bias(Voltage{3.0}, Voltage{17.0});
  (void)copy.response(f, mode);
  EXPECT_EQ(engine->cache_size(), 2u);
  original.set_bias(Voltage{3.0}, Voltage{17.0});
  (void)original.response(f, mode);
  EXPECT_EQ(engine->cache_size(), 2u);
  EXPECT_EQ(engine->cache_stats().hits, 1u);

  // Unbinding the copy restores its direct path and leaves the original
  // bound.
  copy.set_bias(Voltage{3.0004}, Voltage{17.0});
  copy.share_response_engine(nullptr);
  EXPECT_EQ(copy.response_engine(), nullptr);
  EXPECT_EQ(original.response_engine(), engine);
  EXPECT_TRUE(same_bytes(
      copy.response(f, mode),
      copy.stack().transmission(f, Voltage{3.0004}, Voltage{17.0})));
}

TEST(SharedResponseEngineBinding, RejectsEngineForAnotherDesign) {
  Metasurface surface = Metasurface::llama_prototype();
  const auto other =
      std::make_shared<SharedResponseEngine>(optimized_fr4_design());
  EXPECT_THROW(surface.share_response_engine(other), std::invalid_argument);
  EXPECT_EQ(surface.response_engine(), nullptr);  // binding unchanged

  // One element field off is another design too.
  std::vector<StackElement> elements = prototype_fr4_design().elements();
  elements.back().gap_after_m += 1e-6;
  EXPECT_THROW(surface.share_response_engine(
                   std::make_shared<SharedResponseEngine>(
                       RotatorStack{elements})),
               std::invalid_argument);

  // An independently built engine for an equal design binds.
  EXPECT_NO_THROW(surface.share_response_engine(
      std::make_shared<SharedResponseEngine>(prototype_fr4_design())));

  // LlamaSystem::enable_fast_probes forwards the check.
  core::LlamaSystem system{core::transmissive_mismatch_config()};
  EXPECT_THROW(system.enable_fast_probes(other), std::invalid_argument);
  EXPECT_EQ(system.surface().response_engine(), nullptr);
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
    SharedResponseEngine points{prototype_fr4_design()};
    for (const double vy : biases)
      for (const double vx : biases)
        (void)points.response(f, mode, Voltage{vx}, Voltage{vy});

    // Grid first, blocks filled in reverse order.
    SharedResponseEngine reversed{prototype_fr4_design()};
    std::vector<double> descending = biases;
    std::sort(descending.begin(), descending.end(), std::greater<>{});
    (void)reversed.response_grid(f, mode, descending, descending);

    // Four threads racing over interleaved slices, points and grids mixed.
    SharedResponseEngine concurrent{prototype_fr4_design()};
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
  SharedResponseEngine engine{prototype_fr4_design()};
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
  deploy::DeploymentEngine engine{s.config};
  (void)engine.run(s.devices);
  EXPECT_GT(engine.response_engine().cache_size(), 0u);
  EXPECT_LE(engine.response_engine().cache_size(), 64u);
}

TEST(SharedResponseEngineValidation, RejectsNaNBiasAndFrequency) {
  SharedResponseEngine engine{prototype_fr4_design()};
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
    ResponseCacheConfig cfg;
    cfg.voltage_quantum_v = q;
    return SharedResponseEngine{prototype_fr4_design(), cfg};
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
}  // namespace llama::metasurface
