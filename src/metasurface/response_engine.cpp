#include "src/metasurface/response_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/common/contracts.h"
#include "src/common/math_utils.h"
#include "src/kernel/jones_kernels.h"

namespace llama::metasurface {

namespace {

/// Top of the bias supply range [V]; biases clamp to [0, kMaxBiasV].
constexpr double kMaxBiasV = 30.0;

}  // namespace

/// One (frequency, mode) plane: the plan's cell cascade plus, per bias
/// axis, one slot per lattice block. A slot is null until its block is
/// filled; a filled block holds kBlockQuanta entries of `stride` doubles
/// (entry i of the block at offset i * stride: each channel's (re, im), the
/// solve_axis_entries layout). Blocks are allocated as they fill, so an
/// engine holds memory only for the blocks its lookups touched.
struct SharedResponseEngine::AxisPlane {
  AxisPlane(kernel::CellCascade cell_cascade, common::Frequency f,
            SurfaceMode surface_mode, std::size_t n_blocks)
      : hz(f.in_hz()),
        mode(surface_mode),
        cells(std::move(cell_cascade)),
        stride(2 * cells.channels().size()) {
    for (auto& slots : blocks)
      slots = std::make_unique<std::atomic<const double*>[]>(n_blocks);
  }

  /// Published entry `index` of `axis`, or null while its block is
  /// unfilled. Lock-free.
  [[nodiscard]] const double* entry(std::size_t axis, std::size_t index) const {
    const double* block =
        blocks[axis][index / kBlockQuanta].load(std::memory_order_acquire);
    return block == nullptr ? nullptr
                            : block + (index % kBlockQuanta) * stride;
  }

  const double hz;
  const SurfaceMode mode;
  const kernel::CellCascade cells;
  const std::size_t stride;  ///< doubles per entry
  std::array<std::unique_ptr<std::atomic<const double*>[]>, 2> blocks;
  /// Owns every filled block; appended under the fill mutex.
  std::vector<std::unique_ptr<double[]>> storage;
  /// The plane published before this one.
  AxisPlane* previous = nullptr;
};

namespace {

std::size_t checked_lattice_entries(double quantum_v) {
  if (!std::isfinite(quantum_v) || quantum_v <= 0.0)
    throw std::invalid_argument{
        "SharedResponseEngine: voltage quantum must be finite and > 0"};
  const double last = std::round(kMaxBiasV / quantum_v);
  if (!(last < static_cast<double>(SharedResponseEngine::kMaxLatticeEntries)))
    throw std::invalid_argument{
        "SharedResponseEngine: voltage quantum too fine (lattice over 2^25 "
        "entries)"};
  return static_cast<std::size_t>(last) + 1;
}

}  // namespace

SharedResponseEngine::SharedResponseEngine(RotatorStack stack,
                                           ResponseCacheConfig cache)
    : stack_(std::move(stack)),
      quantum_v_(cache.voltage_quantum_v),
      lattice_entries_(checked_lattice_entries(cache.voltage_quantum_v)) {}

SharedResponseEngine::~SharedResponseEngine() = default;

std::size_t SharedResponseEngine::lattice_index(common::Voltage v) const {
  if (std::isnan(v.value()))
    throw std::invalid_argument{"SharedResponseEngine: NaN bias"};
  const std::size_t index = static_cast<std::size_t>(
      std::llround(common::clamp(v.value(), 0.0, kMaxBiasV) / quantum_v_));
  LLAMA_INVARIANT(index < lattice_entries_, "clamped bias inside the lattice");
  return index;
}

SharedResponseEngine::AxisPlane& SharedResponseEngine::plane(
    common::Frequency f, SurfaceMode mode) {
  const double hz = f.in_hz();
  if (std::isnan(hz))
    throw std::invalid_argument{"SharedResponseEngine: NaN frequency"};
  // -0.0 == 0.0, so both signed zeros find one plane.
  const auto find = [&]() -> AxisPlane* {
    for (AxisPlane* p = newest_plane_.load(std::memory_order_acquire);
         p != nullptr; p = p->previous)
      if (p->hz == hz && p->mode == mode) return p;
    return nullptr;
  };
  if (AxisPlane* p = find()) return *p;
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  if (AxisPlane* p = find()) return *p;
  auto fresh = std::make_unique<AxisPlane>(
      mode == SurfaceMode::kTransmissive
          ? kernel::transmission_cells(stack_, stack_.plan_transmission(f))
          : kernel::reflection_cells(stack_, stack_.plan_reflection(f)),
      f, mode, (lattice_entries_ + kBlockQuanta - 1) / kBlockQuanta);
  fresh->previous = newest_plane_.load(std::memory_order_acquire);
  AxisPlane* published = fresh.get();
  planes_.push_back(std::move(fresh));
  newest_plane_.store(published, std::memory_order_release);
  return *published;
}

const double* SharedResponseEngine::fill(AxisPlane& plane, std::size_t axis,
                                         std::size_t index) {
  if (const double* ready = plane.entry(axis, index)) return ready;
  // Solve the block's fixed index range [first, first + n): the same biases
  // whichever lookup gets here first.
  const std::size_t block = index / kBlockQuanta;
  const std::size_t first = block * kBlockQuanta;
  const std::size_t n = std::min(kBlockQuanta, lattice_entries_ - first);
  std::array<double, kBlockQuanta> biases{};
  for (std::size_t i = 0; i < n; ++i)
    biases[i] = static_cast<double>(first + i) * quantum_v_;
  auto values = std::make_unique<double[]>(
      std::max<std::size_t>(1, kBlockQuanta * plane.stride));
  kernel::solve_axis_entries(
      plane.cells.channels(),
      axis == 0 ? kernel::BiasAxis::kX : kernel::BiasAxis::kY,
      std::span<const double>{biases.data(), n}, values.get());
  const double* published = values.get();
  plane.storage.push_back(std::move(values));
  plane.blocks[axis][block].store(published, std::memory_order_release);
  ++filled_blocks_;
  return plane.entry(axis, index);
}

void SharedResponseEngine::count(std::uint64_t hits, std::uint64_t misses) {
  // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

em::JonesMatrix SharedResponseEngine::response(common::Frequency f,
                                               SurfaceMode mode,
                                               common::Voltage vx,
                                               common::Voltage vy) {
  const std::size_t ix = lattice_index(vx);
  const std::size_t iy = lattice_index(vy);
  AxisPlane& p = plane(f, mode);
  const double* x = p.entry(0, ix);
  const double* y = p.entry(1, iy);
  const bool miss = x == nullptr || y == nullptr;
  if (miss) {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    x = fill(p, 0, ix);
    y = fill(p, 1, iy);
  }
  count(miss ? 0 : 1, miss ? 1 : 0);
  return p.cells.eval(x, y);
}

JonesGrid SharedResponseEngine::response_grid(common::Frequency f,
                                              SurfaceMode mode,
                                              const std::vector<double>& vxs,
                                              const std::vector<double>& vys) {
  const std::size_t nx = vxs.size();
  const std::size_t ny = vys.size();
  // The window's lattice indices, X then Y (validated before any work).
  std::vector<std::size_t> index(nx + ny);
  for (std::size_t i = 0; i < nx; ++i)
    index[i] = lattice_index(common::Voltage{vxs[i]});
  for (std::size_t i = 0; i < ny; ++i)
    index[nx + i] = lattice_index(common::Voltage{vys[i]});
  JonesGrid grid(ny, std::vector<em::JonesMatrix>(nx));
  if (nx == 0 || ny == 0) return grid;

  // Resolve both axes lock-free; fill every unfilled block under one lock.
  AxisPlane& p = plane(f, mode);
  const auto axis_of = [nx](std::size_t i) { return i < nx ? 0 : 1; };
  std::vector<const double*> entry(nx + ny);
  std::array<std::size_t, 2> unfilled{0, 0};
  for (std::size_t i = 0; i < nx + ny; ++i) {
    entry[i] = p.entry(axis_of(i), index[i]);
    if (entry[i] == nullptr) ++unfilled[axis_of(i)];
  }
  if (unfilled[0] + unfilled[1] != 0) {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    for (std::size_t i = 0; i < nx + ny; ++i)
      if (entry[i] == nullptr) entry[i] = fill(p, axis_of(i), index[i]);
  }
  // A cell misses when either of its entries was unfilled.
  const std::uint64_t hits =
      static_cast<std::uint64_t>(nx - unfilled[0]) * (ny - unfilled[1]);
  count(hits, nx * ny - hits);

  // Each column's X half and each row's Y half once, then one combine per
  // cell: the same arithmetic as response()'s eval.
  const kernel::PlaneKernel k{p.cells, {entry.data(), nx},
                              {entry.data() + nx, ny}};
  for (std::size_t iy = 0; iy < ny; ++iy)
    for (std::size_t ix = 0; ix < nx; ++ix) grid[iy][ix] = k.cell(ix, iy);
  return grid;
}

std::size_t SharedResponseEngine::plan_count() const {
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  return planes_.size();
}

ResponseCacheStats SharedResponseEngine::cache_stats() const {
  ResponseCacheStats stats;
  // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
  stats.hits = hits_.load(std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.lock_contention = fill_mutex_.contended();
  return stats;
}

std::size_t SharedResponseEngine::cache_size() const {
  const std::lock_guard<CountedMutex> lock(fill_mutex_);
  return filled_blocks_;
}

void SharedResponseEngine::clear() {
  {
    const std::lock_guard<CountedMutex> lock(fill_mutex_);
    newest_plane_.store(nullptr, std::memory_order_release);
    planes_.clear();
    filled_blocks_ = 0;
  }
  // clear() zeroes ALL statistics, the contention tally included.
  // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
  hits_.store(0, std::memory_order_relaxed);
  // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
  misses_.store(0, std::memory_order_relaxed);
  fill_mutex_.reset();
}

}  // namespace llama::metasurface
