// Tiny self-contained timing harness for the bench executables.
//
// Every bench that reports performance supports a `--json` flag: instead of
// human-readable tables it emits one machine-readable line per measurement,
//
//   {"name":"stack_transmission","ns_per_op":1234.5,"probes_per_s":810000.0}
//
// which CI collects as the repo's performance trajectory. Keys are stable;
// benches may append extra keys (e.g. "speedup_vs_unbatched").
//
// `--out <file>` additionally APPENDS the JSON lines to <file>, regardless
// of the console mode — so one CI job can run several benches with a shared
// `--out trajectory.jsonl` and archive the concatenated trajectory as a
// single artifact while keeping human-readable console output. Benches opt
// in by calling open_out(argc, argv) once at startup.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/latency_histogram.h"

namespace llama::bench {

struct BenchResult {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_s = 0.0;
  long iterations = 0;
};

/// True when `--json` appears on the command line.
inline bool json_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return true;
  return false;
}

/// The shared JSON side-channel opened by open_out(); nullptr when no
/// `--out` flag was given (or open_out was never called).
inline std::FILE*& out_stream() {
  static std::FILE* stream = nullptr;
  return stream;
}

/// Parses `--out <file>` and opens the file in append mode so consecutive
/// bench runs accumulate one trajectory. Call once at the top of main();
/// print_result then mirrors every JSON line there. Returns false (with a
/// message on stderr) when the file cannot be opened.
inline bool open_out(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") != 0) continue;
    if (i + 1 >= argc) {
      // A forgotten filename must fail loudly, not silently drop the
      // trajectory side-channel CI expects to archive.
      std::fprintf(stderr, "bench: --out requires a file path\n");
      return false;
    }
    out_stream() = std::fopen(argv[i + 1], "a");
    if (out_stream() == nullptr) {
      std::fprintf(stderr, "bench: cannot open --out file '%s'\n",
                   argv[i + 1]);
      return false;
    }
    return true;
  }
  return true;  // no --out flag is not an error
}

/// Times `op` (one logical operation, e.g. one probe) until at least
/// `min_time_s` of wall clock has accumulated, after one untimed warmup.
template <typename Fn>
BenchResult run_bench(std::string name, Fn&& op, double min_time_s = 0.2,
                      long min_iterations = 3) {
  using clock = std::chrono::steady_clock;
  op();  // warmup: touch caches, build lazy plans
  long iterations = 0;
  const clock::time_point start = clock::now();
  double elapsed_s = 0.0;
  do {
    op();
    ++iterations;
    elapsed_s = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed_s < min_time_s || iterations < min_iterations);
  BenchResult result;
  result.name = std::move(name);
  result.iterations = iterations;
  result.ns_per_op = elapsed_s * 1e9 / static_cast<double>(iterations);
  result.ops_per_s = static_cast<double>(iterations) / elapsed_s;
  return result;
}

/// run_bench with PER-OPERATION latency recording: each call of `op` is
/// timed individually into a log2 histogram, so the result carries a real
/// latency distribution (p50/p99/p999) instead of only the mean that
/// aggregate timing can report. Costs two clock reads per op — use
/// run_bench for sub-microsecond ops where that overhead would dominate.
struct LatencyBenchResult {
  BenchResult timing;
  serve::LatencyHistogram latency;
};

template <typename Fn>
LatencyBenchResult run_latency_bench(std::string name, Fn&& op,
                                     double min_time_s = 0.2,
                                     long min_iterations = 3) {
  using clock = std::chrono::steady_clock;
  op();  // warmup: touch caches, build lazy plans
  LatencyBenchResult result;
  long iterations = 0;
  const clock::time_point start = clock::now();
  double elapsed_s = 0.0;
  do {
    const clock::time_point before = clock::now();
    op();
    const clock::time_point after = clock::now();
    result.latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(after - before)
            .count()));
    ++iterations;
    elapsed_s = std::chrono::duration<double>(after - start).count();
  } while (elapsed_s < min_time_s || iterations < min_iterations);
  result.timing.name = std::move(name);
  result.timing.iterations = iterations;
  result.timing.ns_per_op =
      elapsed_s * 1e9 / static_cast<double>(iterations);
  result.timing.ops_per_s = static_cast<double>(iterations) / elapsed_s;
  return result;
}

/// Stable latency keys as an extra_json fragment (starts with a comma):
/// ,"p50_us":...,"p99_us":...,"p999_us":... — shared by every bench that
/// reports a latency distribution (run_latency_bench results and the
/// serving runtime's merged request histogram alike), so CI gates can parse
/// one spelling everywhere.
inline std::string latency_extra_json(const serve::LatencyHistogram& h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"p50_us\":%.2f,\"p99_us\":%.2f,\"p999_us\":%.2f",
                h.p50_ns() / 1e3, h.p99_ns() / 1e3, h.p999_ns() / 1e3);
  return buf;
}

/// Wall time [s] of `threads` concurrent runs of a fixed CPU spin (best of
/// `reps`): dependent integer work with no memory traffic, so it scales
/// with the cores the process can actually run on.
inline double spin_seconds(int threads, int reps) {
  const auto spin = [] {
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    for (int i = 0; i < 6'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  using clock = std::chrono::steady_clock;
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads), 0);
    const clock::time_point start = clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back(
          [&sinks, &spin, t] { sinks[static_cast<std::size_t>(t)] = spin(); });
    for (std::thread& th : pool) th.join();
    best = std::min(
        best, std::chrono::duration<double>(clock::now() - start).count());
    if (sinks[0] == 42) best += 1e-12;  // keep the work observable
  }
  return best;
}

/// Effective cores at `threads` workers: the speedup of `threads`
/// concurrent spins over one, threads * t1 / t_threads. A machine that
/// reports 4 hardware threads but time-slices them on one core measures
/// ~1. Measured once per thread count and memoized.
inline double effective_cores(int threads) {
  if (threads <= 1) return 1.0;
  static std::map<int, double> measured;
  const auto it = measured.find(threads);
  if (it != measured.end()) return it->second;
  const double t1 = spin_seconds(1, 3);
  const double cores =
      static_cast<double>(threads) * t1 / spin_seconds(threads, 3);
  measured.emplace(threads, cores);
  return cores;
}

/// Scaling keys as an extra_json fragment (starts with a comma):
/// ,"threads":N,"hw_cores":H,"effective_cores":E — `threads` is the
/// effective worker count the measured section ran with, `hw_cores` the
/// machine's hardware concurrency and `effective_cores` the measured spin
/// speedup at `threads` workers. Scaling gates over
/// bench_trajectory.jsonl key on effective_cores: a container whose
/// hardware threads share fewer real cores must not be judged against a
/// parallel-efficiency floor meant for real cores.
inline std::string threads_extra_json(int threads) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"threads\":%d,\"hw_cores\":%u,\"effective_cores\":%.2f",
                threads, std::thread::hardware_concurrency(),
                effective_cores(threads));
  return buf;
}

/// print_result for a latency bench: the usual throughput keys plus the
/// latency_extra_json percentile keys (and any caller extras after them).
inline void print_latency_result(const LatencyBenchResult& r, bool json,
                                 const std::string& extra_json = "");

/// Prints one result: a JSON line in json mode, aligned text otherwise.
/// `extra_json` (optional) is appended inside the JSON object and must
/// start with a comma, e.g. ",\"speedup_vs_unbatched\":12.5". When an
/// `--out` file is open (see open_out) the JSON line is also appended
/// there, whatever the console mode.
inline void print_result(const BenchResult& r, bool json,
                         const std::string& extra_json = "") {
  if (json) {
    std::printf("{\"name\":\"%s\",\"ns_per_op\":%.1f,\"probes_per_s\":%.1f%s}\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_s, extra_json.c_str());
  } else {
    std::printf("%-36s %14.1f ns/op %14.1f ops/s   (%ld iters)\n",
                r.name.c_str(), r.ns_per_op, r.ops_per_s, r.iterations);
  }
  if (out_stream() != nullptr) {
    std::fprintf(out_stream(),
                 "{\"name\":\"%s\",\"ns_per_op\":%.1f,\"probes_per_s\":%.1f%s}\n",
                 r.name.c_str(), r.ns_per_op, r.ops_per_s, extra_json.c_str());
    std::fflush(out_stream());
  }
}

inline void print_latency_result(const LatencyBenchResult& r, bool json,
                                 const std::string& extra_json) {
  print_result(r.timing, json, latency_extra_json(r.latency) + extra_json);
  if (!json) {
    std::printf("%-36s %10.2f us p50 %10.2f us p99 %10.2f us p999\n", "",
                r.latency.p50_ns() / 1e3, r.latency.p99_ns() / 1e3,
                r.latency.p999_ns() / 1e3);
  }
}

}  // namespace llama::bench
