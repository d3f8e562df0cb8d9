// Span tracer for the traced run. Every call the benchmark makes into a
// layer's public function is wrapped in a Span naming the function (Op);
// each Op belongs to one layer, the repository module it measures. Spans
// live in memory and are reduced when the run ends:
//
//   per Op     calls, total time, items (cells, lookups, ... per call)
//   per layer  calls, busy time (time inside at least one span of the
//              layer) and self time (span time not covered by child spans)
//
// The benchmark runs every call from one thread, so spans nest strictly.
// A Span built from a null Tracer does nothing: untraced code paths pass
// nullptr and pay one branch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kKernel,
  kMetasurface,
  kChannel,
  kControl,
  kCodebook,
  kCore,
  kDeploy,
  kServe,
  kTrack,
  kFault,
};
inline constexpr std::size_t kLayerCount = 10;
[[nodiscard]] const char* layer_name(Layer layer);

/// Every traced call site: the public function the benchmark calls.
enum class Op : std::uint8_t {
  kKernelResponseGrid,    ///< Metasurface::response_grid, compile lattice
  kEngineResponseGrid,    ///< SharedResponseEngine::response_grid
  kEngineResponse,        ///< SharedResponseEngine::response
  kSceneFromSpec,         ///< PropagationScene::from_spec
  kSceneFreezeExcept,     ///< PropagationScene::freeze_except
  kCityFreezeDevice,      ///< CityFleetEngine::freeze_device
  kSceneSwept,            ///< PropagationScene::received_power_swept
  kCityAssign,            ///< CityFleetEngine::assign
  kSweepRunBatched,       ///< CoarseToFineSweep::run_batched
  kCodebookCompile,       ///< CodebookCompiler::compile
  kCodebookSerialize,     ///< Codebook::serialize
  kCodebookLookup,        ///< Codebook::lookup (items = lookups)
  kCoreScenario,          ///< core::*_scenario builders
  kCoreMeasure,           ///< LlamaSystem::expected_measure_with_surface
  kDeployRun,             ///< DeploymentEngine::run
  kCityEvaluate,          ///< CityFleetEngine::evaluate
  kServeBuildFleet,       ///< serve::build_serving_fleet
  kServeSubmit,           ///< ServeRuntime::submit
  kServeStop,             ///< ServeRuntime::stop
  kTrackRun,              ///< FleetTracker::run
  kFaultPolicy,           ///< ResilientPolicy construction (per device)
  kFaultPlanRoundTrip,    ///< FaultPlan::serialize + deserialize
};
inline constexpr std::size_t kOpCount = 22;
[[nodiscard]] Layer op_layer(Op op);

class Tracer {
 public:
  struct OpTotals {
    std::uint64_t calls = 0;
    double total_ns = 0.0;
    std::uint64_t items = 0;
  };
  struct LayerTotals {
    std::uint64_t calls = 0;
    double busy_ns = 0.0;
    double self_ns = 0.0;
  };

  /// RAII span; a null tracer records nothing.
  class Span {
   public:
    Span(Tracer* tracer, Op op, std::uint64_t items = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] std::array<OpTotals, kOpCount> op_totals() const;
  [[nodiscard]] std::array<LayerTotals, kLayerCount> layer_totals() const;

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Record {
    Op op;
    std::size_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t items;
  };

  std::size_t open(Op op, std::uint64_t items);
  void close(std::size_t index);

  std::vector<Record> spans_;
  std::size_t open_ = kNoParent;  ///< innermost open span
};

using OpSnapshot = std::array<Tracer::OpTotals, kOpCount>;

/// Difference of two op-total snapshots (one probe's own share).
[[nodiscard]] OpSnapshot op_delta(const OpSnapshot& after,
                                  const OpSnapshot& before);
/// Mean time per call [ns] of one op (0 when it was never called).
[[nodiscard]] double mean_ns(const OpSnapshot& t, Op op);
/// Time per item [ns] of one op (0 when it counted no items).
[[nodiscard]] double ns_per_item(const OpSnapshot& t, Op op);

}  // namespace perfbench
