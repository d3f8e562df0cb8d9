#include "perfbench/src/harness.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty())
    throw std::invalid_argument{"percentile: empty sample"};
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument{"percentile: p outside [0, 100]"};
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail tail(const std::vector<double>& samples, std::size_t min_beyond) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  out.value = *std::max_element(samples.begin(), samples.end());
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
    if (beyond + 1e-9 < static_cast<double>(min_beyond)) break;
    out.pct = pct;
    out.value = percentile(samples, pct);
  }
  return out;
}

double served_fraction(double p, std::uint64_t served,
                       std::uint64_t refused) {
  if (served == 0) return 2.0;
  const double total = static_cast<double>(served + refused);
  return p / 100.0 * total / static_cast<double>(served);
}

namespace {

/// Value of a "Key:   1234 kB" line of /proc/self/status, in bytes.
std::uint64_t status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':')
      continue;
    unsigned long long v = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &v) == 1) kib = v;
    break;
  }
  std::fclose(f);
  return kib * 1024;
}

}  // namespace

std::uint64_t rss_bytes() { return status_kib("VmRSS"); }
std::uint64_t peak_rss_bytes() { return status_kib("VmHWM"); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b, double lo,
            double hi) {
  const std::uint64_t bits = mix_seed(mix_seed(seed, a), b) >> 11;
  const double unit = static_cast<double>(bits) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {

/// A fixed amount of dependent integer work (~10 ms on a 2020s core).
std::uint64_t spin_work() {
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 6'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall time of `threads` concurrent spins (best of `reps`).
double spin_seconds(int threads, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads), 0);
    const std::uint64_t start = now_ns();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&sinks, t] {
        sinks[static_cast<std::size_t>(t)] = spin_work();
      });
    for (std::thread& th : pool) th.join();
    best = std::min(best, seconds_since(start));
    if (sinks[0] == 42) best += 1e-12;  // keep the work observable
  }
  return best;
}

}  // namespace

double effective_cores(int max_threads) {
  const double t1 = spin_seconds(1, 3);
  double best = 1.0;
  for (int k = 2; k <= max_threads; ++k)
    best = std::max(best, static_cast<double>(k) * t1 / spin_seconds(k, 2));
  return best;
}

Machine describe_machine() {
  Machine m;
  m.nproc = cpu_count();
  m.effective_cores = effective_cores(m.nproc);
#ifdef PERFBENCH_BUILD_TYPE
  m.build_type = PERFBENCH_BUILD_TYPE;
#endif
#if defined(__clang__)
  m.compiler = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  m.compiler = std::string{"gcc "} + __VERSION__;
#endif
  return m;
}

}  // namespace perfbench
