#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "perfbench/src/decorators.h"

namespace perfbench {
namespace {

class NullClass : public enoki::SchedClass {
 public:
  const char* name() const override { return "null"; }
  int SelectTaskRq(enoki::Task*, int prev_cpu, bool, bool) override { return prev_cpu; }
  void EnqueueTask(int, enoki::Task*, bool) override {}
  void DequeueTask(int, enoki::Task*, enoki::DequeueReason) override {}
  enoki::Task* PickNextTask(int) override { return nullptr; }
  void TaskPreempted(int, enoki::Task*) override {}
  void TaskYielded(int, enoki::Task*) override {}
  void TaskTick(int, enoki::Task*) override {}
};

class NullModule : public enoki::EnokiSched {
 public:
  int GetPolicy() const override { return 0; }
  std::optional<enoki::Schedulable> PickNextTask(int,
                                                 std::optional<enoki::Schedulable>) override {
    return std::nullopt;
  }
  void TaskDead(uint64_t) override {}
  void TaskBlocked(const enoki::TaskMessage&) override {}
  void TaskWakeup(const enoki::TaskMessage&, enoki::Schedulable) override {}
  void TaskNew(const enoki::TaskMessage&, enoki::Schedulable) override {}
  void TaskPreempt(const enoki::TaskMessage&, enoki::Schedulable) override {}
  void TaskYield(const enoki::TaskMessage&, enoki::Schedulable) override {}
  std::optional<enoki::Schedulable> TaskDeparted(const enoki::TaskMessage&) override {
    return std::nullopt;
  }
  int SelectTaskRq(const enoki::TaskMessage& msg) override { return msg.prev_cpu; }
  enoki::Schedulable MigrateTaskRq(const enoki::MigrateMessage&,
                                   enoki::Schedulable sched) override {
    return sched;
  }
};

// Hides the dynamic type from the optimizer so calls stay virtual, as they
// are in the simulator.
template <typename T>
T* Opaque(T* p) {
  asm volatile("" : "+r"(p));
  return p;
}

constexpr int kCalls = 20000;
constexpr int kRounds = 7;

// Per-call cost of `call` as seen from an enclosing span: ns of the outer
// span not covered by child spans, per call.
template <typename Call>
double OuterSelfPerCall(Tracer& t, Call call) {
  t.Reset();
  t.Begin(Layer::kWrite, kOther);
  for (int i = 0; i < kCalls; ++i) {
    call();
  }
  t.End();
  const SpanAgg& outer = t.agg(Layer::kWrite, kOther);
  return static_cast<double>(outer.total_ns - outer.child_ns) / kCalls;
}

// Measures the SpanCost of the spans `wrapped` opens (layer, cb) against
// `bare`, the same call without the decorator.
template <typename Bare, typename Wrapped>
SpanCost Measure(Tracer& t, Layer layer, Cb cb, Bare bare, Wrapped wrapped) {
  std::vector<double> self_ns;
  std::vector<double> parent_ns;
  for (int round = 0; round < kRounds; ++round) {
    const double base = OuterSelfPerCall(t, bare);
    const double outside = OuterSelfPerCall(t, wrapped);
    self_ns.push_back(static_cast<double>(t.agg(layer, cb).total_ns) / kCalls);
    parent_ns.push_back(std::max(0.0, outside - base));
  }
  std::sort(self_ns.begin(), self_ns.end());
  std::sort(parent_ns.begin(), parent_ns.end());
  return SpanCost{self_ns[kRounds / 2], parent_ns[kRounds / 2]};
}

}  // namespace

LayerCosts CalibrateSpanCosts() {
  Tracer tracer;
  LayerCosts costs;

  // TimedClass needs a core for its slice-marker check.
  enoki::SchedCore core(enoki::MachineSpec::OneSocket8(), enoki::SimCosts{});
  tracer.SetSliceClock(&core.loop(), enoki::Milliseconds(1));
  NullClass null_class;
  TimedClass timed_class(&null_class, &tracer);
  timed_class.Attach(&core);
  enoki::SchedClass* bare_cls = Opaque<enoki::SchedClass>(&null_class);
  enoki::SchedClass* timed_cls = Opaque<enoki::SchedClass>(&timed_class);
  costs.shim = Measure(
      tracer, Layer::kShim, kTick, [bare_cls] { bare_cls->TaskTick(0, nullptr); },
      [timed_cls] { timed_cls->TaskTick(0, nullptr); });

  ModuleOutcomes outcomes;
  TimedModule timed_module(std::make_unique<NullModule>(), &tracer, &outcomes);
  NullModule null_module;
  enoki::EnokiSched* bare_mod = Opaque<enoki::EnokiSched>(&null_module);
  enoki::EnokiSched* timed_mod = Opaque<enoki::EnokiSched>(&timed_module);
  costs.sched = Measure(
      tracer, Layer::kSched, kTick, [bare_mod] { bare_mod->TaskTick(0, 1, 0); },
      [timed_mod] { timed_mod->TaskTick(0, 1, 0); });

  Tracer* tr = Opaque(&tracer);
  costs.write = Measure(
      tracer, Layer::kWrite, kCheckpoint, [] {}, [tr] { Span s(tr, Layer::kWrite, kCheckpoint); });
  return costs;
}

}  // namespace perfbench
