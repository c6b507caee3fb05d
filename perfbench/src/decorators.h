// Timing decorators for the two public scheduling interfaces.
//
// TimedClass wraps a SchedClass (the EnokiRuntime) and is registered with
// SchedCore in its place; TimedModule wraps an EnokiSched (the policy
// module) and is handed to the runtime in its place, the way FaultInjector
// wraps a module. Both forward every call unchanged and open a span around
// it, so a decorated stack makes exactly the decisions a bare one does —
// the benchmark checks this by comparing simulated outputs byte for byte.
//
// One path bypasses TimedClass: SchedCore::ArmClassTimer stores the
// runtime's own pointer, so a policy timer reaches EnokiRuntime::TimerFired
// directly. The module span it opens is then top level, and the runtime's
// share of that call counts as simulator-core time.

#ifndef PERFBENCH_SRC_DECORATORS_H_
#define PERFBENCH_SRC_DECORATORS_H_

#include <memory>
#include <optional>
#include <utility>

#include "perfbench/src/trace.h"
#include "src/enoki/api.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/sched_core.h"

namespace perfbench {

class TimedClass : public enoki::SchedClass {
 public:
  TimedClass(enoki::SchedClass* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }

  void Attach(enoki::SchedCore* core) override {
    SchedClass::Attach(core);
    inner_->Attach(core);
  }

  int SelectTaskRq(enoki::Task* t, int prev_cpu, bool wake_sync, bool is_new) override {
    Enter();
    Span s(tracer_, Layer::kShim, kSelectRq);
    return inner_->SelectTaskRq(t, prev_cpu, wake_sync, is_new);
  }
  void EnqueueTask(int cpu, enoki::Task* t, bool wakeup) override {
    Enter();
    Span s(tracer_, Layer::kShim, kEnqueue);
    inner_->EnqueueTask(cpu, t, wakeup);
  }
  void DequeueTask(int cpu, enoki::Task* t, enoki::DequeueReason reason) override {
    Enter();
    Span s(tracer_, Layer::kShim, kDequeue);
    inner_->DequeueTask(cpu, t, reason);
  }
  enoki::Task* PickNextTask(int cpu) override {
    Enter();
    Span s(tracer_, Layer::kShim, kPick);
    return inner_->PickNextTask(cpu);
  }
  void TaskPreempted(int cpu, enoki::Task* t) override {
    Enter();
    Span s(tracer_, Layer::kShim, kPreempt);
    inner_->TaskPreempted(cpu, t);
  }
  void TaskYielded(int cpu, enoki::Task* t) override {
    Enter();
    Span s(tracer_, Layer::kShim, kOther);
    inner_->TaskYielded(cpu, t);
  }
  void TaskTick(int cpu, enoki::Task* t) override {
    Enter();
    Span s(tracer_, Layer::kShim, kTick);
    inner_->TaskTick(cpu, t);
  }
  bool WakeupPreempt(int cpu, enoki::Task* curr, enoki::Task* woken) override {
    Enter();
    Span s(tracer_, Layer::kShim, kOther);
    return inner_->WakeupPreempt(cpu, curr, woken);
  }
  bool Balance(int cpu) override {
    Enter();
    Span s(tracer_, Layer::kShim, kBalance);
    return inner_->Balance(cpu);
  }
  bool WantsBalanceBeforePick() const override { return inner_->WantsBalanceBeforePick(); }
  void TimerFired(int cpu) override {
    Enter();
    Span s(tracer_, Layer::kShim, kTimer);
    inner_->TimerFired(cpu);
  }
  enoki::DeadlineClass TimerDeadlineClass() const override {
    return inner_->TimerDeadlineClass();
  }
  void OnTaskStarved(enoki::Task* t, enoki::Duration runnable_ns) override {
    Enter();
    Span s(tracer_, Layer::kShim, kOther);
    inner_->OnTaskStarved(t, runnable_ns);
  }
  void AffinityChanged(enoki::Task* t) override {
    Enter();
    Span s(tracer_, Layer::kShim, kOther);
    inner_->AffinityChanged(t);
  }
  void PrioChanged(enoki::Task* t) override {
    Enter();
    Span s(tracer_, Layer::kShim, kOther);
    inner_->PrioChanged(t);
  }

 private:
  void Enter() {
    if (tracer_ != nullptr) {
      tracer_->MaybeMark(core_->now());
    }
  }

  enoki::SchedClass* inner_;
  Tracer* tracer_;
};

// Counts a module callback's outcome alongside its span, for the ratios
// that need them (empty picks, balance offers).
struct ModuleOutcomes {
  uint64_t empty_picks = 0;
  uint64_t balance_offers = 0;
};

class TimedModule : public enoki::EnokiSched {
 public:
  TimedModule(std::unique_ptr<enoki::EnokiSched> inner, Tracer* tracer, ModuleOutcomes* outcomes)
      : inner_(std::move(inner)), tracer_(tracer), outcomes_(outcomes) {}

  void Attach(enoki::EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    inner_->Attach(env);
  }
  int GetPolicy() const override { return inner_->GetPolicy(); }

  std::optional<enoki::Schedulable> PickNextTask(
      int cpu, std::optional<enoki::Schedulable> curr) override {
    Span s(tracer_, Layer::kSched, kPick);
    std::optional<enoki::Schedulable> picked = inner_->PickNextTask(cpu, std::move(curr));
    if (!picked.has_value()) {
      ++outcomes_->empty_picks;
    }
    return picked;
  }
  void PntErr(int cpu, std::optional<enoki::Schedulable> sched) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->PntErr(cpu, std::move(sched));
  }
  void TaskDead(uint64_t pid) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskDead(pid);
  }
  void TaskBlocked(const enoki::TaskMessage& msg) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskBlocked(msg);
  }
  void TaskWakeup(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(tracer_, Layer::kSched, kWakeup);
    inner_->TaskWakeup(msg, std::move(sched));
  }
  void TaskNew(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(tracer_, Layer::kSched, kWakeup);
    inner_->TaskNew(msg, std::move(sched));
  }
  void TaskPreempt(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskPreempt(msg, std::move(sched));
  }
  void TaskYield(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskYield(msg, std::move(sched));
  }
  std::optional<enoki::Schedulable> TaskDeparted(const enoki::TaskMessage& msg) override {
    Span s(tracer_, Layer::kSched, kOther);
    return inner_->TaskDeparted(msg);
  }
  void TaskAffinityChanged(uint64_t pid, const enoki::CpuMask& mask) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskAffinityChanged(pid, mask);
  }
  void TaskPrioChanged(uint64_t pid, int nice) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->TaskPrioChanged(pid, nice);
  }
  void TaskTick(int cpu, uint64_t pid, enoki::Duration runtime) override {
    Span s(tracer_, Layer::kSched, kTick);
    inner_->TaskTick(cpu, pid, runtime);
  }
  void TimerFired(int cpu) override {
    Span s(tracer_, Layer::kSched, kTimer);
    inner_->TimerFired(cpu);
  }
  int SelectTaskRq(const enoki::TaskMessage& msg) override {
    Span s(tracer_, Layer::kSched, kSelectRq);
    return inner_->SelectTaskRq(msg);
  }
  enoki::Schedulable MigrateTaskRq(const enoki::MigrateMessage& msg,
                                   enoki::Schedulable sched) override {
    Span s(tracer_, Layer::kSched, kOther);
    return inner_->MigrateTaskRq(msg, std::move(sched));
  }
  std::optional<uint64_t> Balance(int cpu) override {
    Span s(tracer_, Layer::kSched, kBalance);
    std::optional<uint64_t> offer = inner_->Balance(cpu);
    if (offer.has_value()) {
      ++outcomes_->balance_offers;
    }
    return offer;
  }
  void BalanceErr(int cpu, uint64_t pid, std::optional<enoki::Schedulable> sched) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->BalanceErr(cpu, pid, std::move(sched));
  }

  enoki::TransferState ReregisterPrepare() override {
    Span s(tracer_, Layer::kSched, kOther);
    return inner_->ReregisterPrepare();
  }
  void ReregisterInit(enoki::TransferState state) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->ReregisterInit(std::move(state));
  }
  bool SaveCheckpoint(enoki::ByteWriter* out) const override {
    Span s(tracer_, Layer::kSched, kOther);
    return inner_->SaveCheckpoint(out);
  }
  uint32_t CheckpointVersion() const override { return inner_->CheckpointVersion(); }
  bool LoadCheckpoint(uint32_t version, enoki::ByteReader* in) override {
    Span s(tracer_, Layer::kSched, kOther);
    return inner_->LoadCheckpoint(version, in);
  }
  enoki::ProbationConfig DefaultProbation() const override { return inner_->DefaultProbation(); }
  uint64_t VersionFingerprint() const override { return inner_->VersionFingerprint(); }

  int RegisterQueue(int queue_id) override { return inner_->RegisterQueue(queue_id); }
  int RegisterReverseQueue(int queue_id) override {
    return inner_->RegisterReverseQueue(queue_id);
  }
  void EnterQueue(int queue_id) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->EnterQueue(queue_id);
  }
  void UnregisterQueue(int queue_id) override { inner_->UnregisterQueue(queue_id); }
  void UnregisterRevQueue(int queue_id) override { inner_->UnregisterRevQueue(queue_id); }
  void ParseHint(const enoki::HintBlob& hint) override {
    Span s(tracer_, Layer::kSched, kOther);
    inner_->ParseHint(hint);
  }

 private:
  std::unique_ptr<enoki::EnokiSched> inner_;
  Tracer* tracer_;
  ModuleOutcomes* outcomes_;
};

// Tracing cost per span for each layer, decorator dispatch included.
struct LayerCosts {
  SpanCost shim;   // a call through TimedClass
  SpanCost sched;  // a call through TimedModule
  SpanCost write;  // a bare Span around a benchmark call
};

// Measures LayerCosts on this host: each decorator wraps a do-nothing
// class or module and is called in a loop inside one outer span, against
// the same loop calling the do-nothing object directly. Medians of several
// rounds.
LayerCosts CalibrateSpanCosts();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DECORATORS_H_
