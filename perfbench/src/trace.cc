#include "perfbench/src/trace.h"

#include "src/simkernel/event_loop.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kShim:
      return "enoki";
    case Layer::kSched:
      return "sched";
    case Layer::kWrite:
      return "enoki_write";
    case Layer::kCount:
      break;
  }
  return "?";
}

const char* CbName(Cb cb) {
  static const char* const kNames[kCbCount] = {
      "select_rq", "enqueue", "dequeue", "pick",  "balance",    "tick",  "preempt",
      "timer",     "wakeup",  "other",   "upgrade", "checkpoint", "drain",
  };
  return cb < kCbCount ? kNames[cb] : "?";
}

void Tracer::Reset() {
  stack_.clear();
  agg_ = {};
  top_spans_ = {};
  top_ns_ = 0;
  next_id_ = 0;
  sample_.clear();
  slice_open_ = false;
  next_slice_ = 0;
  slice_ns_per_event_.clear();
  origin_ = Clock::now();
}

void Tracer::Mark(enoki::Time sim_now) {
  const Clock::time_point host = Clock::now();
  const uint64_t events = loop_->events_executed();
  if (slice_open_ && events > slice_events_) {
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(host - slice_host_).count());
    slice_ns_per_event_.push_back(ns / static_cast<double>(events - slice_events_));
  }
  slice_open_ = true;
  slice_host_ = host;
  slice_events_ = events;
  next_slice_ = (sim_now / slice_interval_ + 1) * slice_interval_;
}

}  // namespace perfbench
