// SharedResponseEngine: the Jones response of one stack design at any
// (frequency, mode, bias pair), shared by every surface built from that
// design — every link of a deployment, every device plant of a tracked
// fleet.
//
// It keeps one axis plane per (frequency, mode). A bias-dependent board's X
// response depends only on Vx and its Y response only on Vy, so the plane
// holds every such board's per-axis S-parameters on two 1-D bias lattices,
// index i = llround(clamp(v, 0, 30 V) / q) (default q = 1 mV, the bias
// supply's programming resolution). The kernel layer solves lattice entries
// (kernel::solve_axis_entries) in fixed blocks of kBlockQuanta on first
// touch, and evaluates a cell from one X entry and one Y entry
// (kernel::CellCascade).
//
// Thread-safety / determinism contract: a block is filled once, under the
// engine's one mutex, then published with a release store; lookups read
// published blocks with acquire loads and take no lock. A block always
// covers the same index range and every entry is a pure function of its
// own lattice bias, so an entry's value does not depend on which thread
// filled its block or in what order blocks were filled. Point and grid
// lookups run the same per-cell arithmetic, so a grid cell equals the
// pointwise lookup bit for bit, and the engine's results are
// byte-identical for any thread count — only the hit/miss split varies.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/metasurface/metasurface.h"
#include "src/metasurface/rotator_stack.h"

namespace llama::metasurface {

struct ResponseCacheConfig {
  /// Bias lattice step [V]; responses are evaluated at multiples of it.
  /// Pick it at or below the bias supply's programming resolution (1 mV
  /// for the paper's Tektronix 2230G) and the snap is semantically
  /// lossless: no two distinguishable hardware states share a lattice cell.
  double voltage_quantum_v = 1e-3;
};

/// Snapshot of a SharedResponseEngine's counters (see its cache_stats() for
/// what a hit and a miss mean). The live counters are relaxed atomics, so a
/// snapshot is safe to take from any thread at any time without tearing
/// and without serializing on a lock. Counters are monotone between clear()
/// calls; a snapshot racing concurrent lookups sees some valid intermediate
/// state.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< always 0: lattice planes never evict
  /// Contended acquisitions of the engine's fill lock (CountedMutex
  /// tally). A rising rate under fan-out says concurrent lookups keep
  /// finding unfilled blocks.
  std::uint64_t lock_contention = 0;
};

/// std::mutex with a contention tally: a lock() that cannot acquire
/// immediately counts one contended acquisition before blocking. The tally
/// is a monotone stats counter read through snapshots (never a
/// synchronization input), so relaxed ordering is exactly right — the lock
/// itself provides every happens-before edge the protected state needs.
/// Satisfies Lockable, so std::lock_guard/std::unique_lock work unchanged.
class CountedMutex {
 public:
  void lock() {
    if (mutex_.try_lock()) return;
    // llama-lint: allow(relaxed-atomic) monotone stats tally, not ordering
    contended_.fetch_add(1, std::memory_order_relaxed);
    mutex_.lock();
  }
  void unlock() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() { return mutex_.try_lock(); }

  /// Contended acquisitions since construction / the last reset().
  [[nodiscard]] std::uint64_t contended() const {
    // llama-lint: allow(relaxed-atomic) racy snapshot of a stats counter
    return contended_.load(std::memory_order_relaxed);
  }
  void reset() {
    // llama-lint: allow(relaxed-atomic) stats counter zeroing, no ordering
    contended_.store(0, std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::atomic<std::uint64_t> contended_{0};
};

/// Thread-safe shared response engine for one stack design, on lazily
/// solved per-axis lattice planes (see the file comment). Every surface
/// built from the design is the same fabricated hardware, so one engine
/// serves every link regardless of which surface carries it.
class SharedResponseEngine {
 public:
  /// Lattice entries solved per block fill.
  static constexpr std::size_t kBlockQuanta = 64;
  /// Largest lattice (entries per axis) the engine accepts.
  static constexpr std::size_t kMaxLatticeEntries = std::size_t{1} << 25;

  /// Builds no plane and solves no block: all work happens on first
  /// lookup. Throws std::invalid_argument when the quantum is non-finite
  /// or <= 0, or when the 0-30 V lattice would exceed kMaxLatticeEntries
  /// entries.
  explicit SharedResponseEngine(RotatorStack stack,
                                ResponseCacheConfig cache = {});
  ~SharedResponseEngine();
  SharedResponseEngine(const SharedResponseEngine&) = delete;
  SharedResponseEngine& operator=(const SharedResponseEngine&) = delete;

  /// Response at a bias pair, each rail clamped to the 0-30 V supply range
  /// (so +-inf clamp to the rails) and snapped to the lattice. Safe to call
  /// from many threads; the returned matrix is a pure function of
  /// (frequency, lattice bias, mode). Throws std::invalid_argument on a NaN
  /// frequency or bias.
  [[nodiscard]] em::JonesMatrix response(common::Frequency f, SurfaceMode mode,
                                         common::Voltage vx,
                                         common::Voltage vy);

  /// Batched variant over a whole bias window: grid[iy][ix] is the response
  /// at (vxs[ix], vys[iy]), bit-identical to pointwise response() calls. All
  /// of the window's missing blocks are filled under one lock acquisition.
  [[nodiscard]] JonesGrid response_grid(common::Frequency f, SurfaceMode mode,
                                        const std::vector<double>& vxs,
                                        const std::vector<double>& vys);

  /// Number of distinct (frequency, mode) axis planes built so far.
  [[nodiscard]] std::size_t plan_count() const;
  /// Lookup counters. Each point lookup or grid cell counts exactly one hit
  /// or one miss; a miss is a lookup that found one of its blocks unfilled
  /// and took the fill lock. evictions is always 0. lock_contention counts
  /// contended acquisitions of the fill mutex. Lock-free: safe to poll from
  /// a monitor while device shards are filling blocks.
  [[nodiscard]] ResponseCacheStats cache_stats() const;
  /// Number of filled lattice blocks, over every plane and both axes.
  [[nodiscard]] std::size_t cache_size() const;
  /// Drops every plane and zeroes the statistics. Must not run concurrently
  /// with lookups: they read published blocks without a lock.
  void clear();

  [[nodiscard]] const RotatorStack& stack() const { return stack_; }

 private:
  struct AxisPlane;

  /// Lattice index of a bias (throws on NaN).
  [[nodiscard]] std::size_t lattice_index(common::Voltage v) const;
  /// The plane for (f, mode): a lock-free scan of the published planes,
  /// building one under the fill mutex on first use.
  [[nodiscard]] AxisPlane& plane(common::Frequency f, SurfaceMode mode);
  /// Entry `index` of `axis`, solving its block if still unfilled. Caller
  /// holds fill_mutex_.
  const double* fill(AxisPlane& plane, std::size_t axis, std::size_t index);
  void count(std::uint64_t hits, std::uint64_t misses);

  const RotatorStack stack_;
  const double quantum_v_;
  const std::size_t lattice_entries_;
  /// Guards plane creation, block fills, planes_ and filled_blocks_.
  mutable CountedMutex fill_mutex_;
  std::vector<std::unique_ptr<AxisPlane>> planes_;
  /// Newest published plane; planes link to their predecessor.
  std::atomic<AxisPlane*> newest_plane_{nullptr};
  std::size_t filled_blocks_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace llama::metasurface
