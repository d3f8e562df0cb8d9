#include "perfbench/src/record.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "perfbench/src/trace.h"

namespace perfbench {

namespace {

MetricSpec e2e(const char* name, const char* unit, Better better) {
  return MetricSpec{name, unit, better, true};
}
MetricSpec layer(const std::string& name, const char* unit, Better better) {
  return MetricSpec{name, unit, better, false};
}

std::vector<MetricSpec> build_registry() {
  constexpr Better lo = Better::kLower;
  constexpr Better hi = Better::kHigher;
  std::vector<MetricSpec> r = {
      // End-to-end: every workload reports all four.
      e2e("setup_s", "s", lo),
      e2e("peak_rss_mb", "MiB", lo),
      e2e("latency_ms", "ms", lo),
      e2e("throughput_per_s", "1/s", hi),
      // Per-layer, measured on the workload that exercises the layer.
      layer("kernel.ns_per_cell", "ns", lo),
      layer("kernel.cells", "count", hi),
      layer("metasurface.grid_ns_per_cell", "ns", lo),
      layer("metasurface.cache_hit_ratio", "ratio", hi),
      layer("metasurface.lock_contention", "count", lo),
      layer("metasurface.response_ns", "ns", lo),
      layer("channel.scene_build_us", "us", lo),
      layer("channel.freeze_us", "us", lo),
      layer("channel.city_freeze_us", "us", lo),
      layer("channel.swept_ns", "ns", lo),
      layer("channel.assign_s", "s", lo),
      layer("channel.kept_paths", "count", lo),
      layer("channel.pruned_paths", "count", hi),
      layer("control.sweep_us", "us", lo),
      layer("control.probes_per_device", "count", lo),
      layer("deploy.finalize_ms", "ms", lo),
      layer("deploy.city_bytes_per_device", "B", lo),
      layer("deploy.city_shards", "count", hi),
      layer("codebook.compile_s", "s", lo),
      layer("codebook.bytes", "B", lo),
      layer("codebook.lookup_ns", "ns", lo),
      layer("core.measure_ns", "ns", lo),
      layer("core.bytes_per_device", "B", lo),
      layer("serve.submit_ns", "ns", lo),
      layer("serve.queue_depth_p90", "count", lo),
      layer("serve.late_us_p99", "us", lo),
      layer("serve.p50_us", "us", lo),
      layer("serve.p90_us", "us", lo),
      layer("serve.p99_us", "us", lo),
      layer("serve.p999_us", "us", lo),
      layer("serve.samples", "count", hi),
      layer("serve.ok", "count", hi),
      layer("serve.degraded", "count", lo),
      layer("serve.shed", "count", lo),
      layer("serve.forwarded", "count", lo),
      layer("serve.errors", "count", lo),
      layer("track.tick_us", "us", lo),
      layer("track.retunes", "count", lo),
      layer("track.retune_airtime_s", "s", lo),
      layer("fault.dropped", "count", lo),
      layer("fault.reassignments", "count", lo),
      layer("fault.health_transitions", "count", lo),
      // The workloads' deterministic output figures.
      layer("quality.link_gain_db", "dB", hi),
      layer("quality.capacity_gain_bps_hz", "bit/s/Hz", hi),
      layer("quality.city_err_bound_db", "dB", lo),
      layer("quality.outage_frac", "ratio", lo),
      layer("quality.delivered_mbps", "Mbit/s", hi),
      layer("bench.effective_cores", "count", hi),
      layer("bench.trace_overhead", "ratio", lo),
  };
  // Span totals per layer: calls into it, time inside it, time not
  // covered by a nested call into another layer.
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    r.push_back(layer(name + ".calls", "count", hi));
    r.push_back(layer(name + ".busy_ms", "ms", lo));
    r.push_back(layer(name + ".self_ms", "ms", lo));
  }
  return r;
}

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& s : metric_registry())
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace

const std::vector<MetricSpec>& metric_registry() {
  static const std::vector<MetricSpec> registry = build_registry();
  return registry;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr)
    throw std::invalid_argument{"Report::set: undeclared metric " + name};
  check(std::isfinite(value), "metric " + name + " is finite");
  values_[name] = value;
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_[name] = Note{value, unit};
}

void Report::timing(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  if (samples.empty()) return;
  timings_[name] = TimingNote{median(samples), tail(samples), unit};
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  failures_.push_back(why + " (" + std::to_string(n) + ")");
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failed_checks_;
    failures_.push_back("check failed: " + what);
  }
  return ok;
}

double Report::value(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::logic_error{"Report: metric not measured: " + name};
  return it->second;
}

double Report::noted(const std::string& name) const {
  const auto it = notes_.find(name);
  if (it == notes_.end())
    throw std::logic_error{"Report: figure not noted: " + name};
  return it->second.value;
}

std::string Report::result_line(bool traced) const {
  std::string metrics;
  for (const MetricSpec& s : metric_registry()) {
    if (s.end_to_end == traced) continue;
    if (!metrics.empty()) metrics += ",";
    metrics += json_string(s.name) + ":{\"value\":" +
               json_number(value(s.name)) + ",\"unit\":" +
               json_string(s.unit) + "}";
  }
  return std::string{"{\"correct\":"} + (correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{" +
         metrics + "}}";
}

std::string Report::detail_line(const Machine& machine,
                                const std::string& workload,
                                std::uint64_t seed, double seconds,
                                bool traced) const {
  std::string named;
  for (const auto& [name, note] : notes_) {
    if (!named.empty()) named += ",";
    named += json_string(name) + ":{\"value\":" + json_number(note.value) +
             ",\"unit\":" + json_string(note.unit) + "}";
  }
  std::string timings;
  for (const auto& [name, t] : timings_) {
    if (!timings.empty()) timings += ",";
    timings += json_string(name) + ":{\"median\":" + json_number(t.median) +
               ",\"tail_pct\":" + json_number(t.tail.pct) +
               ",\"tail\":" + json_number(t.tail.value) +
               ",\"samples\":" + std::to_string(t.tail.samples) +
               ",\"unit\":" + json_string(t.unit) + "}";
  }
  std::string failures;
  for (const std::string& f : failures_) {
    if (!failures.empty()) failures += ",";
    failures += json_string(f);
  }
  return "{\"detail\":{\"workload\":" + json_string(workload) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"seconds\":" + json_number(seconds) +
         ",\"traced\":" + (traced ? "true" : "false") +
         ",\"machine\":{\"nproc\":" + std::to_string(machine.nproc) +
         ",\"effective_cores\":" + json_number(machine.effective_cores) +
         ",\"build_type\":" + json_string(machine.build_type) +
         ",\"compiler\":" + json_string(machine.compiler) +
         "},\"named\":{" + named + "},\"timings\":{" + timings +
         "},\"failures\":[" + failures + "]}}";
}

}  // namespace perfbench
