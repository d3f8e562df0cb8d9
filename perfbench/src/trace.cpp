#include "perfbench/src/trace.h"

#include "perfbench/src/harness.h"

namespace perfbench {

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "kernel", "metasurface", "channel", "control", "codebook",
      "core",   "deploy",      "serve",   "track",   "fault"};
  return kNames[static_cast<std::size_t>(layer)];
}

Layer op_layer(Op op) {
  switch (op) {
    case Op::kKernelResponseGrid:
      return Layer::kKernel;
    case Op::kEngineResponseGrid:
    case Op::kEngineResponse:
      return Layer::kMetasurface;
    case Op::kSceneFromSpec:
    case Op::kSceneFreezeExcept:
    case Op::kCityFreezeDevice:
    case Op::kSceneSwept:
    case Op::kCityAssign:
      return Layer::kChannel;
    case Op::kSweepRunBatched:
      return Layer::kControl;
    case Op::kCodebookCompile:
    case Op::kCodebookSerialize:
    case Op::kCodebookLookup:
      return Layer::kCodebook;
    case Op::kCoreScenario:
    case Op::kCoreMeasure:
      return Layer::kCore;
    case Op::kDeployRun:
    case Op::kCityEvaluate:
      return Layer::kDeploy;
    case Op::kServeBuildFleet:
    case Op::kServeSubmit:
    case Op::kServeStop:
      return Layer::kServe;
    case Op::kTrackRun:
      return Layer::kTrack;
    case Op::kFaultPolicy:
    case Op::kFaultPlanRoundTrip:
      return Layer::kFault;
  }
  return Layer::kCore;
}

Tracer::Span::Span(Tracer* tracer, Op op, std::uint64_t items)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(op, items);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::size_t Tracer::open(Op op, std::uint64_t items) {
  spans_.push_back(Record{op, open_, 0, 0, items});
  open_ = spans_.size() - 1;
  spans_.back().start_ns = now_ns();
  return open_;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_ = spans_[index].parent;
}

std::array<Tracer::OpTotals, kOpCount> Tracer::op_totals() const {
  std::array<OpTotals, kOpCount> out{};
  for (const Record& r : spans_) {
    OpTotals& t = out[static_cast<std::size_t>(r.op)];
    ++t.calls;
    t.total_ns += static_cast<double>(r.end_ns - r.start_ns);
    t.items += r.items;
  }
  return out;
}

std::array<Tracer::LayerTotals, kLayerCount> Tracer::layer_totals() const {
  std::array<LayerTotals, kLayerCount> out{};
  // Time each span's direct children cover (children nest strictly inside).
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Record& r : spans_)
    if (r.parent != kNoParent)
      child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const Layer layer = op_layer(r.op);
    LayerTotals& t = out[static_cast<std::size_t>(layer)];
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    ++t.calls;
    t.self_ns += dur - child_ns[i];
    // Busy time counts a span only when no enclosing span of the same
    // layer already covers its interval.
    bool covered = false;
    for (std::size_t p = r.parent; p != kNoParent; p = spans_[p].parent)
      if (op_layer(spans_[p].op) == layer) {
        covered = true;
        break;
      }
    if (!covered) t.busy_ns += dur;
  }
  return out;
}

OpSnapshot op_delta(const OpSnapshot& after, const OpSnapshot& before) {
  OpSnapshot out{};
  for (std::size_t i = 0; i < kOpCount; ++i) {
    out[i].calls = after[i].calls - before[i].calls;
    out[i].total_ns = after[i].total_ns - before[i].total_ns;
    out[i].items = after[i].items - before[i].items;
  }
  return out;
}

double mean_ns(const OpSnapshot& t, Op op) {
  const Tracer::OpTotals& o = t[static_cast<std::size_t>(op)];
  return o.calls == 0 ? 0.0 : o.total_ns / static_cast<double>(o.calls);
}

double ns_per_item(const OpSnapshot& t, Op op) {
  const Tracer::OpTotals& o = t[static_cast<std::size_t>(op)];
  return o.items == 0 ? 0.0 : o.total_ns / static_cast<double>(o.items);
}

}  // namespace perfbench
