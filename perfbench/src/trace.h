// Host-time spans recorded from outside the simulator.
//
// The benchmark never edits src/: it attributes host time to layers by
// wrapping the public interfaces it calls into (SchedClass, EnokiSched, and
// the runtime calls it makes itself) in spans. A span is one call across a
// layer boundary: its layer, the callback it stands for, when it started,
// how long it took and the span that was open when it began (its parent).
//
// Spans are folded into per-(layer, callback) aggregates as they close, so
// memory stays flat however long a run is; only the first
// kMaxSampledSpans raw spans are kept, with their parent links, for the
// trace file written at exit.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/base/time.h"

namespace enoki {
class EventLoop;
}

namespace perfbench {

// Host layers a span can belong to. The simulator core (event loop plus
// SchedCore) has no span of its own: its self time is whatever wall time no
// top-level span covers.
enum class Layer : uint8_t {
  kShim = 0,   // EnokiRuntime behind the SchedClass interface (read side)
  kSched,      // the policy module behind the EnokiSched interface
  kWrite,      // Upgrade / CheckpointNow / Recorder drain (write side)
  kCount,
};

// Callback ids. One enum for all layers keeps aggregates a flat table; the
// names below are what the metrics print.
enum Cb : uint8_t {
  kSelectRq = 0,
  kEnqueue,
  kDequeue,
  kPick,
  kBalance,
  kTick,
  kPreempt,
  kTimer,
  kWakeup,
  kOther,
  kUpgrade,
  kCheckpoint,
  kDrain,
  kCbCount,
};

const char* LayerName(Layer layer);
const char* CbName(Cb cb);

struct SpanAgg {
  uint64_t calls = 0;
  uint64_t total_ns = 0;     // sum of span durations
  uint64_t child_ns = 0;     // part of total_ns covered by child spans
  uint64_t children = 0;     // child spans opened inside these spans
};

struct RawSpan {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = top level (the simulator core called in)
  Layer layer = Layer::kShim;
  Cb cb = kOther;
  uint64_t start_ns = 0;  // since the tracer was reset
  uint64_t dur_ns = 0;
};

// Per-span host cost of tracing one call, measured by CalibrateSpanCosts()
// (decorators.h): the part that lands inside the span's own duration and
// the part that lands in whatever encloses it (its parent, or the
// simulator core at top level), decorator dispatch included.
struct SpanCost {
  double self_ns = 0.0;
  double parent_ns = 0.0;
};

class Tracer {
 public:
  static constexpr size_t kMaxSampledSpans = 4096;

  Tracer() { Reset(); }

  void Reset();

  void Begin(Layer layer, Cb cb) {
    Open o;
    o.layer = layer;
    o.cb = cb;
    o.id = ++next_id_;
    o.parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back(o);
    stack_.back().start = Clock::now();
  }

  void End() {
    const Clock::time_point end = Clock::now();
    const Open o = stack_.back();
    stack_.pop_back();
    const uint64_t dur = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - o.start).count());
    SpanAgg& a = agg_[static_cast<size_t>(o.layer)][o.cb];
    ++a.calls;
    a.total_ns += dur;
    a.child_ns += o.child_ns;
    a.children += o.children;
    if (stack_.empty()) {
      ++top_spans_[static_cast<size_t>(o.layer)];
      top_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
      ++stack_.back().children;
    }
    if (sample_.size() < kMaxSampledSpans) {
      RawSpan r;
      r.id = o.id;
      r.parent = o.parent;
      r.layer = o.layer;
      r.cb = o.cb;
      r.start_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(o.start - origin_).count());
      r.dur_ns = dur;
      sample_.push_back(r);
    }
  }

  // Slice markers: the first call into a wrapper at or after each
  // `interval` of simulated time records host time and the loop's event
  // count, so per-slice ns/event percentiles come without inserting any
  // event into the simulation (which would change its fingerprint).
  void SetSliceClock(const enoki::EventLoop* loop, enoki::Duration interval) {
    loop_ = loop;
    slice_interval_ = interval;
    next_slice_ = 0;
  }
  void MaybeMark(enoki::Time sim_now) {
    if (loop_ != nullptr && sim_now >= next_slice_) {
      Mark(sim_now);
    }
  }

  const SpanAgg& agg(Layer layer, Cb cb) const { return agg_[static_cast<size_t>(layer)][cb]; }
  uint64_t top_spans(Layer layer) const { return top_spans_[static_cast<size_t>(layer)]; }
  uint64_t top_ns() const { return top_ns_; }
  const std::vector<RawSpan>& sample() const { return sample_; }
  // Host ns per simulated event for each closed slice.
  const std::vector<double>& slice_ns_per_event() const { return slice_ns_per_event_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    Layer layer = Layer::kShim;
    Cb cb = kOther;
    uint32_t id = 0;
    uint32_t parent = 0;
    Clock::time_point start;
    uint64_t child_ns = 0;
    uint64_t children = 0;
  };

  void Mark(enoki::Time sim_now);

  std::vector<Open> stack_;
  std::array<std::array<SpanAgg, kCbCount>, static_cast<size_t>(Layer::kCount)> agg_{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> top_spans_{};
  uint64_t top_ns_ = 0;
  uint32_t next_id_ = 0;
  Clock::time_point origin_;
  std::vector<RawSpan> sample_;

  const enoki::EventLoop* loop_ = nullptr;
  enoki::Duration slice_interval_ = 0;
  enoki::Time next_slice_ = 0;
  Clock::time_point slice_host_;
  uint64_t slice_events_ = 0;
  bool slice_open_ = false;
  std::vector<double> slice_ns_per_event_;
};

// Opens a span for its scope; a null tracer makes it a no-op. Closing in the
// destructor keeps the stack balanced when a module callback throws and the
// runtime's containment boundary catches it.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, Cb cb) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer, cb);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
