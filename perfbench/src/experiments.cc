#include "perfbench/src/experiments.h"

#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <utility>

#include "perfbench/src/decorators.h"
#include "src/base/profile.h"
#include "src/enoki/lock.h"
#include "src/enoki/record.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/dispersive.h"
#include "src/workloads/multitenant.h"
#include "src/workloads/pipe.h"
#include "src/workloads/schbench.h"

namespace perfbench {
namespace {

using enoki::Duration;
using enoki::Microseconds;
using enoki::Milliseconds;

// ---- Experiment sizes (simulated) ------------------------------------------
constexpr uint64_t kPipeMessages = 300'000;
constexpr double kDispersiveRate = 40'000.0;
constexpr Duration kDispersiveWarmup = Milliseconds(100);
constexpr Duration kDispersiveRuntime = Milliseconds(6000);
constexpr Duration kMtWarmup = Milliseconds(20);
constexpr Duration kMtRuntime = Milliseconds(1200);
constexpr int kMtShards = 8;
constexpr int kMtShardThreads = 2;
constexpr Duration kSchbenchWarmup = Milliseconds(50);
constexpr Duration kSchbenchRuntime = Milliseconds(4000);
constexpr Duration kCheckpointEvery = Milliseconds(1);
constexpr Duration kUpgradeEvery = Milliseconds(100);
constexpr Duration kDrainEvery = Milliseconds(1);
// Record ring: 2^17 entries (~15 MB). The drain task empties it every
// millisecond simulated and discards what it drained, so memory stays flat
// however long the run is.
constexpr size_t kRecordRing = size_t{1} << 17;
// Slice-marker interval for the traced run's per-slice ns/event.
constexpr Duration kSliceEvery = Milliseconds(1);
// Constructions timed per repetition (the last one is the one run): at
// least kSetupMinSamples, more while their total stays under kSetupBudgetS
// (at most kSetupMaxSamples), so a set-up of microseconds still gets a
// stable median.
constexpr int kSetupMinSamples = 3;
constexpr int kSetupMaxSamples = 100;
constexpr double kSetupBudgetS = 0.02;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Duration Scaled(Duration d, double scale) {
  return static_cast<Duration>(static_cast<double>(d) * scale);
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// ---- Single-loop Enoki stack ------------------------------------------------

// SchedCore with an Enoki module above CFS. Traced stacks register a
// TimedClass in the runtime's place and hand the runtime a TimedModule.
struct EnokiStack {
  using ModuleFactory = std::unique_ptr<enoki::EnokiSched> (*)();

  EnokiStack(ModuleFactory factory, Tracer* tracer, bool record)
      : tracer(tracer), make_module(factory) {
    if (record) {
      recorder = std::make_unique<enoki::Recorder>(kRecordRing);
      // Module locks record their creation, so hooks go in before the module.
      enoki::SetLockHooks(recorder.get());
    }
    core = std::make_unique<enoki::SchedCore>(enoki::MachineSpec::OneSocket8(),
                                              enoki::SimCosts{});
    runtime = std::make_unique<enoki::EnokiRuntime>(MakeModule());
    cfs = std::make_unique<enoki::CfsClass>();
    if (tracer != nullptr) {
      timed = std::make_unique<TimedClass>(runtime.get(), tracer);
      policy = core->RegisterClass(timed.get());
      tracer->SetSliceClock(&core->loop(), kSliceEvery);
    } else {
      policy = core->RegisterClass(runtime.get());
    }
    cfs_policy = core->RegisterClass(cfs.get());
    if (recorder != nullptr) {
      runtime->SetRecorder(recorder.get());
    }
  }

  ~EnokiStack() {
    if (recorder != nullptr) {
      enoki::SetLockHooks(nullptr);
    }
  }

  EnokiStack(const EnokiStack&) = delete;
  EnokiStack& operator=(const EnokiStack&) = delete;

  std::unique_ptr<enoki::EnokiSched> MakeModule() {
    std::unique_ptr<enoki::EnokiSched> m = make_module();
    if (tracer != nullptr) {
      return std::make_unique<TimedModule>(std::move(m), tracer, &outcomes);
    }
    return m;
  }

  Tracer* tracer;
  ModuleFactory make_module;
  ModuleOutcomes outcomes;
  std::unique_ptr<enoki::Recorder> recorder;
  std::unique_ptr<enoki::SchedCore> core;
  std::unique_ptr<enoki::EnokiRuntime> runtime;
  std::unique_ptr<TimedClass> timed;
  std::unique_ptr<enoki::CfsClass> cfs;
  int policy = 0;
  int cfs_policy = 0;
};

std::unique_ptr<enoki::EnokiSched> MakeWfq() { return std::make_unique<enoki::WfqSched>(0); }

std::unique_ptr<enoki::EnokiSched> MakeShinjuku() {
  enoki::CpuMask workers;
  for (int cpu = 2; cpu < 7; ++cpu) {
    workers.Set(cpu);
  }
  return std::make_unique<enoki::ShinjukuSched>(
      0, enoki::ShinjukuSched::kDefaultPreemptionSliceNs, workers);
}

void AddStackCounts(const EnokiStack& s, RepResult* r) {
  const enoki::EventLoop& loop = s.core->loop();
  const enoki::WheelProfile& w = loop.wheel_profile();
  r->counts["event_loop.events"] = static_cast<double>(loop.events_executed());
  r->counts["event_loop.lane_hits"] = static_cast<double>(w.lane_hits);
  r->counts["event_loop.lane_spills"] = static_cast<double>(w.lane_spills);
  r->counts["event_loop.cascades"] = static_cast<double>(w.cascades);
  r->counts["event_loop.behind_inserts"] = static_cast<double>(w.behind_inserts);
  r->counts["sched_core.context_switches"] = static_cast<double>(s.core->context_switches());
  r->counts["sched_core.coalesced_ipis"] = static_cast<double>(s.core->coalesced_ipis());
  r->counts["enoki.module_calls"] = static_cast<double>(s.runtime->module_calls());
  r->counts["enoki.pick_errors"] = static_cast<double>(s.runtime->pick_errors());
  r->counts["sched.empty_picks"] = static_cast<double>(s.outcomes.empty_picks);
  r->counts["sched.balance_offers"] = static_cast<double>(s.outcomes.balance_offers);
}

// Write-side state of schbench_wfq_recorded, driven by benchmark-scheduled
// loop events and a simulated drain task.
struct WriteSide {
  EnokiStack* stack = nullptr;
  enoki::Time end = 0;
  uint64_t checkpoint_calls = 0;
  uint64_t checkpoint_saves = 0;
  uint64_t upgrades = 0;
  uint64_t upgrades_ok = 0;
  std::vector<Duration> pauses;
  uint64_t drained = 0;
};

struct CheckpointTick {
  WriteSide* ws;
  void operator()() const {
    {
      Span s(ws->stack->tracer, Layer::kWrite, kCheckpoint);
      ++ws->checkpoint_calls;
      if (ws->stack->runtime->CheckpointNow()) {
        ++ws->checkpoint_saves;
      }
    }
    enoki::EventLoop& loop = ws->stack->core->loop();
    if (loop.now() + kCheckpointEvery <= ws->end) {
      loop.ScheduleAfter(kCheckpointEvery, *this);
    }
  }
};

struct UpgradeTick {
  WriteSide* ws;
  void operator()() const {
    {
      Span s(ws->stack->tracer, Layer::kWrite, kUpgrade);
      const enoki::UpgradeReport report = ws->stack->runtime->Upgrade(ws->stack->MakeModule());
      ++ws->upgrades;
      if (report.ok) {
        ++ws->upgrades_ok;
        ws->pauses.push_back(report.pause_ns);
      }
    }
    enoki::EventLoop& loop = ws->stack->core->loop();
    if (loop.now() + kUpgradeEvery <= ws->end) {
      loop.ScheduleAfter(kUpgradeEvery, *this);
    }
  }
};

// ---- Repetitions -----------------------------------------------------------

struct Snapshot {
  uint64_t allocs = 0;
  uint64_t event_slabs = 0;
  uint64_t arena_chunks = 0;

  static Snapshot Take() {
    Snapshot s;
    s.allocs = AllocCount();
    s.event_slabs = enoki::GlobalCounters::Get().Value(enoki::GlobalCounters::kEventSlabs);
    s.arena_chunks = enoki::GlobalCounters::Get().Value(enoki::GlobalCounters::kArenaChunks);
    return s;
  }
};

// Builds the experiment several times (all but the last are torn down
// again), then times `run` on the last one. Slab and arena growth
// is counted over the kept construction plus the run; allocations over the
// run only. The tracer, if any, is reset so it holds the run phase alone.
template <typename T, typename Make, typename Run>
RepResult Timed(Tracer* tracer, Make make, Run run) {
  RepResult r;
  std::unique_ptr<T> obj;
  Snapshot before_setup;
  double setup_total = 0.0;
  for (int i = 0;
       i < kSetupMinSamples || (setup_total < kSetupBudgetS && i < kSetupMaxSamples); ++i) {
    obj.reset();
    before_setup = Snapshot::Take();
    const Clock::time_point t0 = Clock::now();
    obj = make();
    r.setup_s.push_back(Seconds(t0, Clock::now()));
    setup_total += r.setup_s.back();
  }
  if (tracer != nullptr) {
    tracer->Reset();
  }
  const Snapshot before_run = Snapshot::Take();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  run(*obj, &r);
  const Clock::time_point t1 = Clock::now();
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.run_s = Seconds(t0, t1);
  const Snapshot after = Snapshot::Take();
  r.counts["base.allocs"] = static_cast<double>(after.allocs - before_run.allocs);
  r.counts["base.event_slabs"] = static_cast<double>(after.event_slabs - before_setup.event_slabs);
  r.counts["base.arena_chunks"] =
      static_cast<double>(after.arena_chunks - before_setup.arena_chunks);
  return r;
}

RepResult RunPipe(const RepOptions& o, Tracer* tracer) {
  return Timed<EnokiStack>(
      tracer,
      [tracer] { return std::make_unique<EnokiStack>(MakeWfq, tracer, false); },
      [&o](EnokiStack& s, RepResult* r) {
        enoki::PipeBenchConfig cfg;
        cfg.messages = static_cast<uint64_t>(static_cast<double>(kPipeMessages) * o.scale);
        const enoki::PipeBenchResult res = enoki::RunPipeBench(*s.core, s.policy, cfg);
        r->outputs = Format("fingerprint=%016" PRIx64 " events=%" PRIu64 " elapsed_ns=%" PRId64
                            " wakeups=%" PRIu64 " usec_per_wakeup=%.6f completed=%d",
                            s.core->Fingerprint(), s.core->loop().events_executed(),
                            static_cast<int64_t>(res.elapsed_ns), res.wakeups,
                            res.usec_per_wakeup, res.completed ? 1 : 0);
        AddStackCounts(s, r);
      });
}

RepResult RunDispersiveRep(const RepOptions& o, Tracer* tracer) {
  return Timed<EnokiStack>(
      tracer,
      [tracer] { return std::make_unique<EnokiStack>(MakeShinjuku, tracer, false); },
      [&o](EnokiStack& s, RepResult* r) {
        enoki::DispersiveConfig cfg;
        cfg.rate_per_sec = kDispersiveRate;
        cfg.warmup = kDispersiveWarmup;
        cfg.runtime = Scaled(kDispersiveRuntime, o.scale);
        cfg.worker_policy = s.policy;
        cfg.cfs_policy = s.cfs_policy;
        cfg.seed = o.seed;
        const enoki::DispersiveResult res = enoki::RunDispersive(*s.core, cfg);
        r->outputs = Format("fingerprint=%016" PRIx64 " events=%" PRIu64 " p50_ns=%" PRId64
                            " p99_ns=%" PRId64 " p999_ns=%" PRId64 " completed=%" PRIu64,
                            s.core->Fingerprint(), s.core->loop().events_executed(),
                            static_cast<int64_t>(res.p50), static_cast<int64_t>(res.p99),
                            static_cast<int64_t>(res.p999), res.completed_requests);
        AddStackCounts(s, r);
      });
}

// schbench on Enoki WFQ in record mode with the watchdog armed, a
// CheckpointNow() every millisecond and a live WFQ->WFQ upgrade every
// 100 ms, all simulated.
struct RecordedStack {
  explicit RecordedStack(Tracer* tracer) : stack(MakeWfq, tracer, true) {
    stack.runtime->EnableWatchdog(enoki::WatchdogConfig{}, stack.cfs_policy);
    ws.stack = &stack;
    enoki::Recorder* recorder = stack.recorder.get();
    WriteSide* side = &ws;
    Tracer* tr = tracer;
    stack.core->CreateTaskOn("record-drain",
                             enoki::MakeFnBody([recorder, side, tr](enoki::SimContext&) {
                               Span s(tr, Layer::kWrite, kDrain);
                               side->drained += recorder->Drain();
                               // Discard what was drained: a kept log grows
                               // by ~112 B per entry.
                               (void)recorder->TakeLog();
                               return enoki::Action::Sleep(kDrainEvery);
                             }),
                             stack.cfs_policy, 0, enoki::CpuMask::Single(7));
  }

  EnokiStack stack;
  WriteSide ws;
};

RepResult RunRecorded(const RepOptions& o, Tracer* tracer) {
  return Timed<RecordedStack>(
      tracer, [tracer] { return std::make_unique<RecordedStack>(tracer); },
      [&o](RecordedStack& rs, RepResult* r) {
        EnokiStack& s = rs.stack;
        enoki::SchbenchConfig cfg;
        cfg.message_threads = 4;
        cfg.workers_per_thread = 4;
        cfg.warmup = kSchbenchWarmup;
        cfg.runtime = Scaled(kSchbenchRuntime, o.scale);
        WriteSide& ws = rs.ws;
        ws.end = s.core->now() + cfg.warmup + cfg.runtime;
        s.core->loop().ScheduleAfter(kCheckpointEvery, CheckpointTick{&ws});
        s.core->loop().ScheduleAfter(kUpgradeEvery, UpgradeTick{&ws});
        const enoki::SchbenchResult res = enoki::RunSchbench(*s.core, s.policy, cfg);
        Duration pause_sum = 0;
        for (Duration p : ws.pauses) {
          pause_sum += p;
        }
        const uint64_t trips = s.runtime->rollbacks() + s.runtime->module_restarts() +
                               (s.runtime->quarantined() ? 1 : 0);
        const uint64_t probation_commits =
            ws.upgrades_ok - s.runtime->rollbacks() - (s.runtime->in_probation() ? 1 : 0);
        r->outputs = Format(
            "fingerprint=%016" PRIx64 " events=%" PRIu64 " p50_ns=%" PRId64 " p99_ns=%" PRId64
            " wakeups=%" PRIu64 " upgrades_ok=%" PRIu64 "/%" PRIu64 " pause_sum_ns=%" PRId64
            " checkpoints=%" PRIu64 "/%" PRIu64 " record_appended=%" PRIu64
            " record_dropped=%" PRIu64 " trips=%" PRIu64,
            s.core->Fingerprint(), s.core->loop().events_executed(),
            static_cast<int64_t>(res.p50), static_cast<int64_t>(res.p99), res.wakeups,
            ws.upgrades_ok, ws.upgrades, static_cast<int64_t>(pause_sum), ws.checkpoint_saves,
            ws.checkpoint_calls, s.recorder->appended(), s.recorder->dropped(), trips);
        AddStackCounts(s, r);
        r->counts["enoki.record.entries"] = static_cast<double>(s.recorder->appended());
        r->counts["enoki.record.dropped"] = static_cast<double>(s.recorder->dropped());
        r->counts["enoki.record.drained"] = static_cast<double>(ws.drained);
        r->counts["enoki.checkpoint.calls"] = static_cast<double>(ws.checkpoint_calls);
        r->counts["enoki.checkpoint.saves"] = static_cast<double>(ws.checkpoint_saves);
        r->counts["enoki.upgrade.calls"] = static_cast<double>(ws.upgrades);
        r->counts["enoki.upgrade.ok"] = static_cast<double>(ws.upgrades_ok);
        r->counts["enoki.upgrade.sim_pause_ns"] = static_cast<double>(pause_sum);
        r->counts["fault.watchdog_trips"] = static_cast<double>(trips);
        r->counts["fault.probation_commits"] = static_cast<double>(probation_commits);
      });
}

enoki::MultitenantConfig MtConfig(const RepOptions& o) {
  enoki::MultitenantConfig cfg;
  cfg.machine = enoki::MachineSpec::EightNode256();
  cfg.nshards = o.flat_twin ? 1 : kMtShards;
  cfg.shard_threads = o.flat_twin ? 1 : kMtShardThreads;
  cfg.adaptive_epochs = true;
  cfg.remote_latency = Microseconds(100);
  cfg.warmup = kMtWarmup;
  cfg.runtime = Scaled(kMtRuntime, o.scale);
  cfg.seed = o.seed;
  return cfg;
}

RepResult RunMultitenant(const RepOptions& o) {
  const enoki::MultitenantConfig cfg = MtConfig(o);
  return Timed<enoki::MultitenantSim>(
      nullptr,
      [&cfg] { return std::make_unique<enoki::MultitenantSim>(cfg); },
      [](enoki::MultitenantSim& sim, RepResult* r) {
        const enoki::MultitenantResult res = sim.Run();
        r->outputs = Format("fingerprint=%016" PRIx64 " events=%" PRIu64 " completed=%" PRIu64
                            " handoffs=%" PRIu64 " cross_messages=%" PRIu64 " p50_ns=%" PRId64
                            " p99_ns=%" PRId64,
                            res.fingerprint, res.events, res.completed, res.handoffs,
                            res.cross_messages, static_cast<int64_t>(res.p50),
                            static_cast<int64_t>(res.p99));
        const enoki::WheelProfile w = sim.engine().WheelProfileSum();
        const enoki::ShardProfile p = sim.engine().profile();
        r->counts["event_loop.events"] = static_cast<double>(res.events);
        r->counts["event_loop.lane_hits"] = static_cast<double>(w.lane_hits);
        r->counts["event_loop.lane_spills"] = static_cast<double>(w.lane_spills);
        r->counts["event_loop.cascades"] = static_cast<double>(w.cascades);
        r->counts["event_loop.behind_inserts"] = static_cast<double>(w.behind_inserts);
        uint64_t switches = 0;
        uint64_t ipis = 0;
        for (int i = 0; i < sim.ncores(); ++i) {
          switches += sim.core(i).context_switches();
          ipis += sim.core(i).coalesced_ipis();
        }
        r->counts["sched_core.context_switches"] = static_cast<double>(switches);
        r->counts["sched_core.coalesced_ipis"] = static_cast<double>(ipis);
        r->counts["sharded.epochs"] = static_cast<double>(p.epochs);
        r->counts["sharded.idle_leaps"] = static_cast<double>(p.idle_leaps);
        r->counts["sharded.commit_msgs"] = static_cast<double>(p.commit_msgs);
        r->counts["sharded.batched_msgs"] = static_cast<double>(p.batched_msgs);
        r->counts["sharded.widens"] = static_cast<double>(p.widens);
        r->counts["sharded.narrows"] = static_cast<double>(p.narrows);
        r->counts["sharded.barrier_ns"] = static_cast<double>(p.barrier_ns);
        r->counts["sharded.commit_ns"] = static_cast<double>(p.commit_ns);
      });
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "pipe_wfq" || name == "dispersive_shinjuku" || name == "mt256_sharded" ||
         name == "schbench_wfq_recorded";
}

int WorkloadThreads(const std::string& name) {
  return name == "mt256_sharded" ? kMtShardThreads : 1;
}

RepResult RunRep(const RepOptions& opts, Tracer* tracer) {
  if (opts.workload == "pipe_wfq") {
    return RunPipe(opts, tracer);
  }
  if (opts.workload == "dispersive_shinjuku") {
    return RunDispersiveRep(opts, tracer);
  }
  if (opts.workload == "mt256_sharded") {
    return RunMultitenant(opts);
  }
  return RunRecorded(opts, tracer);
}

}  // namespace perfbench
