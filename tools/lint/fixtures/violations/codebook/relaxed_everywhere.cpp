// Seeded violations: memory_order_relaxed without an inline waiver.
#include <atomic>
#include <cstddef>

namespace llama::codebook {

struct LatticePublisher {
  std::atomic<std::size_t> ready_cells{0};

  void publish_one() {
    // Relaxed on a hand-rolled readiness protocol: readers may observe the
    // count before the cell contents. Exactly what the rule guards.
    ready_cells.fetch_add(1, std::memory_order_relaxed);  // expect-lint: relaxed-atomic
  }

  bool all_ready(std::size_t n) const {
    return ready_cells.load(std::memory_order_relaxed) == n;  // expect-lint: relaxed-atomic
  }
};

}  // namespace llama::codebook
