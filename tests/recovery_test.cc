// Tests for the deepened recovery ladder: the CheckpointStore generation
// ring, metadata-sealed checksums, periodic CheckpointNow() cadence,
// per-policy probation budgets, version-fingerprint flap damping,
// cross-MachineSpec checkpoint renormalization, and one table over every
// policy's checkpoint codec: payloads and verdicts pinned as literals,
// each rejection as its own row, refused loads leaving the module fresh, and
// a seeded mutation fuzzer. The capstone is a 100-seed sweep mixing upgrade-boundary faults with ring-slot bit-rot
// and crash-during-CheckpointNow, asserting zero task loss and
// byte-identical fallback order (restore timelines) across reruns.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/enoki/checkpoint.h"
#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/fault/injector.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/ext/central.h"
#include "src/sched/ext/layered.h"
#include "src/sched/ext/pair.h"
#include "src/sched/ext/ravg.h"
#include "src/sched/ext/rusty.h"
#include "src/sched/fifo.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/nest.h"
#include "src/sched/nice_weights.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/pipe.h"

namespace enoki {
namespace {

// ---- CheckpointStore: the generation ring ----

Checkpoint MakeSealed(uint64_t seq, Time taken_at = 0, uint64_t fp = 0) {
  ByteWriter w;
  w.U64(seq * 1000);
  Checkpoint ck;
  ck.state_version = 1;
  ck.sequence = seq;
  ck.taken_at = taken_at;
  ck.module_fingerprint = fp;
  ck.bytes = w.Take();
  ck.Seal();
  return ck;
}

TEST(CheckpointStore, PushEvictsOldestAtCapacity) {
  CheckpointStore store(3);
  EXPECT_TRUE(store.empty());
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    store.Push(MakeSealed(seq));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.pushed(), 5u);
  EXPECT_EQ(store.evicted(), 2u);
  // Newest-first indexing: generations 5, 4, 3 remain.
  EXPECT_EQ(store.FromNewest(0).sequence, 5u);
  EXPECT_EQ(store.FromNewest(1).sequence, 4u);
  EXPECT_EQ(store.FromNewest(2).sequence, 3u);
  EXPECT_EQ(store.newest()->sequence, 5u);
}

TEST(CheckpointStore, DropNewestWalksBackward) {
  CheckpointStore store(4);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    store.Push(MakeSealed(seq));
  }
  store.DropNewest();
  EXPECT_EQ(store.newest()->sequence, 2u);
  store.DropNewest();
  EXPECT_EQ(store.newest()->sequence, 1u);
  store.DropNewest();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.newest(), nullptr);
  store.DropNewest();  // harmless on empty
}

TEST(CheckpointStore, ShrinkingCapacityEvictsOldest) {
  CheckpointStore store(4);
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    store.Push(MakeSealed(seq));
  }
  store.set_capacity(2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.FromNewest(0).sequence, 4u);
  EXPECT_EQ(store.FromNewest(1).sequence, 3u);
  EXPECT_EQ(store.evicted(), 2u);
}

// ---- Metadata-sealed checksums ----

TEST(CheckpointSeal, CoversSequenceTakenAtAndFingerprint) {
  Checkpoint ck = MakeSealed(7, Milliseconds(3), 0xFEEDull);
  ASSERT_TRUE(ck.Valid());

  // A stale generation replayed into a different ring slot: same payload,
  // forged sequence. The seal must break.
  ck.sequence = 8;
  EXPECT_FALSE(ck.Valid());
  ck.sequence = 7;
  EXPECT_TRUE(ck.Valid());

  ck.taken_at = Milliseconds(4);
  EXPECT_FALSE(ck.Valid());
  ck.taken_at = Milliseconds(3);
  EXPECT_TRUE(ck.Valid());

  ck.module_fingerprint = 0xBEEFull;
  EXPECT_FALSE(ck.Valid());
  ck.module_fingerprint = 0xFEEDull;
  EXPECT_TRUE(ck.Valid());
}

// ---- Version fingerprints and per-policy probation defaults ----

TEST(VersionFingerprint, StablePerBuildDistinctAcrossPolicies) {
  WfqSched a(0), b(0), c(1);
  NestSched n(0);
  EXPECT_NE(a.VersionFingerprint(), 0u);
  EXPECT_EQ(a.VersionFingerprint(), b.VersionFingerprint());  // same build
  EXPECT_NE(a.VersionFingerprint(), c.VersionFingerprint());  // policy id folded
  EXPECT_NE(a.VersionFingerprint(), n.VersionFingerprint());  // type folded
}

TEST(DefaultProbation, PoliciesDeclareTheirOwnBudgets) {
  const ProbationConfig base;
  CentralSched central(0);
  EXPECT_EQ(central.DefaultProbation().max_pick_errors, 8u);
  EXPECT_EQ(central.DefaultProbation().window_ns, base.window_ns);
  EXPECT_EQ(central.DefaultProbation().window_calls, base.window_calls);
  RustySched rusty(0);
  EXPECT_EQ(rusty.DefaultProbation().max_balance_errors, 64u);
  EXPECT_EQ(rusty.DefaultProbation().window_ns, base.window_ns);
  // Policies without an override keep the ladder defaults.
  WfqSched wfq(0);
  EXPECT_EQ(wfq.DefaultProbation().max_pick_errors, base.max_pick_errors);
  // Decorators are transparent: the inner module's budgets and identity win.
  FaultPlan plan;
  FaultInjector inj(std::make_unique<CentralSched>(0), plan);
  EXPECT_EQ(inj.DefaultProbation().max_pick_errors, 8u);
  EXPECT_EQ(inj.VersionFingerprint(), CentralSched(0).VersionFingerprint());
}

// ---- Checkpoint renormalization across machine shapes (locality / nest) ----

TaskMessage Msg(uint64_t pid, int cpu, int nice = 0) {
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = cpu;
  msg.prev_cpu = cpu;
  msg.nice = nice;
  return msg;
}

TEST(LocalityCheckpoint, RoundTripKeepsCoLocationAcrossMachineShapes) {
  ReplayEnv env(4);
  LocalitySched a(0, /*use_hints=*/true);
  a.Attach(&env);
  HintBlob h;
  h.w[0] = 1;  // pid 1 -> group 7
  h.w[1] = 7;
  a.ParseHint(h);
  h.w[0] = 2;  // pid 2 -> group 7
  a.ParseHint(h);
  h.w[0] = 3;  // pid 3 -> group 9 (a second group advances the cursor)
  h.w[1] = 9;
  a.ParseHint(h);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 1u);
  const std::vector<uint8_t> bytes = w.Take();

  // Same shape: byte-for-byte identical placement.
  LocalitySched b(0, /*use_hints=*/true);
  b.Attach(&env);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(b.LoadCheckpoint(1, &r));
  }
  EXPECT_EQ(b.SelectTaskRq(Msg(1, 0)), a.SelectTaskRq(Msg(1, 0)));
  EXPECT_EQ(b.SelectTaskRq(Msg(1, 0)), b.SelectTaskRq(Msg(2, 0)));

  // Shrunk machine: homes renormalize by % live instead of being dropped —
  // the group still has one stable home and co-location survives.
  ReplayEnv small(2);
  LocalitySched c(0, /*use_hints=*/true);
  c.Attach(&small);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(c.LoadCheckpoint(1, &r));
  }
  const int home1 = c.SelectTaskRq(Msg(1, 0));
  EXPECT_LT(home1, 2);
  EXPECT_EQ(home1, c.SelectTaskRq(Msg(2, 0)));
}

TEST(NestCheckpoint, RoundTripKeepsWarmCoresAndFoldsOnShrink) {
  ReplayEnv env(8);
  NestSched a(0);
  a.Attach(&env);
  // Touch core 2 early (will have decayed cold by 3ms) and core 6 late
  // (still inside the 2ms decay horizon at 3ms).
  env.SetNow(Microseconds(500));
  a.TaskNew(Msg(1, 2), SchedulableMinter::Mint(1, 2, 1));
  (void)a.PickNextTask(2, std::nullopt);
  env.SetNow(Microseconds(2500));
  a.TaskNew(Msg(2, 6), SchedulableMinter::Mint(2, 6, 1));
  (void)a.PickNextTask(6, std::nullopt);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 1u);
  const std::vector<uint8_t> bytes = w.Take();

  // Same shape: warm cores restored exactly.
  NestSched b(0);
  b.Attach(&env);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(b.LoadCheckpoint(1, &r));
  }
  env.SetNow(Milliseconds(3));  // decay horizon 2ms: only the 2.5ms core is warm
  EXPECT_EQ(b.WarmCoreCount(), 1u);
  EXPECT_EQ(b.SelectTaskRq(Msg(9, 0)), 6);  // wakeup lands on the warm core

  // Shrunk machine: recency folds by cpu % live keeping the most recent use,
  // so cores 2 and 6 both land on slot 2 and the nest stays warm there.
  ReplayEnv small(4);
  small.SetNow(Milliseconds(3));
  NestSched c(0);
  c.Attach(&small);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(c.LoadCheckpoint(1, &r));
  }
  EXPECT_EQ(c.WarmCoreCount(), 1u);
  EXPECT_EQ(c.SelectTaskRq(Msg(9, 0)), 2);
}

// ---- Cross-MachineSpec renormalization (WFQ) ----

// Builds a WFQ v2 payload for `ncpus` with the given per-CPU vruntime
// baselines and no entities.
std::vector<uint8_t> WfqPayload(const std::vector<uint64_t>& cursors) {
  ByteWriter w;
  w.U64(cursors.size());
  for (uint64_t c : cursors) {
    w.U64(c);
  }
  w.U64(0);  // no entities
  return w.Take();
}

TEST(WfqRenormalization, ShrinkFoldsBaselinesByMin) {
  // 8 saved CPUs with baselines 10ms..80ms, restored onto 4: slot k folds
  // min(saved[k], saved[k+4]) so restored sleepers join at the *fair* (low)
  // frontier instead of a starving high one.
  std::vector<uint64_t> cursors;
  for (uint64_t cpu = 0; cpu < 8; ++cpu) {
    cursors.push_back(Milliseconds(10) * (cpu + 1));
  }
  const std::vector<uint8_t> bytes = WfqPayload(cursors);

  ReplayEnv env(4);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));

  // A first-sighting wakeup on cpu 1 adopts at the sleeper floor of that
  // cpu's baseline: min(20ms, 60ms) = 20ms, so vruntime lands within
  // [20ms - sched_latency, 20ms]. A max fold (60ms) would land far above.
  s.TaskWakeup(Msg(42, 1), SchedulableMinter::Mint(42, 1, 1));
  EXPECT_GE(s.VruntimeOf(42), Milliseconds(20) - WfqSched::kSchedLatencyNs);
  EXPECT_LE(s.VruntimeOf(42), Milliseconds(20));
}

TEST(WfqRenormalization, GrowSeedsNewCpusAtGlobalMin) {
  // 2 saved CPUs restored onto 8: the 6 new CPUs start at the global minimum
  // baseline (30ms), not at zero — a zero baseline would hand every task
  // placed there a huge fairness credit over restored ones.
  const std::vector<uint8_t> bytes =
      WfqPayload({Milliseconds(40), Milliseconds(30)});
  ReplayEnv env(8);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));

  s.TaskWakeup(Msg(43, 5), SchedulableMinter::Mint(43, 5, 1));
  EXPECT_GE(s.VruntimeOf(43), Milliseconds(30) - WfqSched::kSchedLatencyNs);
  EXPECT_LE(s.VruntimeOf(43), Milliseconds(30));
}

TEST(WfqRenormalization, EntityCpuRemapsInsteadOfDropping) {
  // An entity parked on cpu 6 restores onto a 4-CPU machine at cpu 6 % 4,
  // with its accounting intact.
  ByteWriter w;
  w.U64(8);
  for (int cpu = 0; cpu < 8; ++cpu) {
    w.U64(Milliseconds(1));
  }
  w.U64(1);  // one entity
  w.U64(7);  // pid
  w.U64(Milliseconds(2));
  w.U64(NiceToWeight(0));
  w.U64(0);
  w.U64(0);
  w.U64(6);  // cpu on the old machine
  const std::vector<uint8_t> bytes = w.Take();

  ReplayEnv env(4);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));
  EXPECT_EQ(s.VruntimeOf(7), Milliseconds(2));
  EXPECT_EQ(s.WeightOf(7), NiceToWeight(0));
}

// ---- Runtime integration: the generation ring end to end ----

struct FaultStack {
  std::unique_ptr<SchedCore> core;
  std::unique_ptr<EnokiRuntime> runtime;
  std::unique_ptr<CfsClass> cfs;
  int enoki_policy = 0;
  int cfs_policy = 1;
};

FaultStack MakeFaultStack(std::unique_ptr<EnokiSched> module,
                          MachineSpec spec = MachineSpec::OneSocket8()) {
  FaultStack s;
  s.core = std::make_unique<SchedCore>(spec, SimCosts{});
  s.runtime = std::make_unique<EnokiRuntime>(std::move(module));
  s.cfs = std::make_unique<CfsClass>();
  s.enoki_policy = s.core->RegisterClass(s.runtime.get());
  s.cfs_policy = s.core->RegisterClass(s.cfs.get());
  return s;
}

std::unique_ptr<FaultInjector> InjectedWfq(FaultPlan plan) {
  return std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);
}

TEST(GenerationRing, RestoreSkipsCorruptGenerationsInOrder) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->EnableSupervisor(SupervisorConfig{}, [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  // Three generations: the supervisor's seed plus two explicit saves.
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] { EXPECT_TRUE(rt->CheckpointNow()); });
  s.core->loop().ScheduleAfter(Milliseconds(2), [rt] { EXPECT_TRUE(rt->CheckpointNow()); });
  s.core->loop().ScheduleAfter(Milliseconds(3), [rt] {
    ASSERT_EQ(rt->checkpoint_store().size(), 3u);
    // Rot the two NEWEST generations in storage; the oldest stays clean.
    rt->mutable_checkpoint_store()->MutableFromNewest(0)->bytes[0] ^= 0xFF;
    rt->mutable_checkpoint_store()->MutableFromNewest(1)->bytes[0] ^= 0xFF;
    rt->AbortModule("abort with a rotten ring");
  });
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_EQ(rt->module_restarts(), 1u);
  // Both rotten generations were rejected by checksum — never deserialized —
  // and the walk landed on the third (depth 3), oldest, clean generation.
  EXPECT_EQ(rt->checkpoint_rejects(), 2u);
  EXPECT_GE(rt->restore_fallbacks(), 2u);
  EXPECT_EQ(rt->last_restore_depth(), 3u);
  EXPECT_GT(rt->last_restore_age_ns(), 0);
  ASSERT_GE(rt->supervisor()->timeline().size(), 1u);
  EXPECT_TRUE(rt->supervisor()->timeline()[0].restored_from_checkpoint);
  // The timeline records the walk newest -> oldest, with reasons.
  const std::string timeline = rt->RestoreTimelineString();
  const size_t skip3 = timeline.find("skip seq=3");
  const size_t skip2 = timeline.find("skip seq=2");
  const size_t restore1 = timeline.find("restore seq=1");
  ASSERT_NE(skip3, std::string::npos) << timeline;
  ASSERT_NE(skip2, std::string::npos) << timeline;
  ASSERT_NE(restore1, std::string::npos) << timeline;
  EXPECT_LT(skip3, skip2);
  EXPECT_LT(skip2, restore1);
  EXPECT_NE(timeline.find("reason=checksum"), std::string::npos);
}

TEST(GenerationRing, CapacityBoundsGenerations) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->SetCheckpointCapacity(2);
  EnokiRuntime* rt = s.runtime.get();
  for (int i = 1; i <= 4; ++i) {
    s.core->loop().ScheduleAfter(Milliseconds(i), [rt] { EXPECT_TRUE(rt->CheckpointNow()); });
  }
  PipeBenchConfig cfg;
  cfg.messages = 6000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->checkpoint_store().size(), 2u);
  EXPECT_EQ(rt->checkpoint_store().evicted(), 2u);
  EXPECT_EQ(rt->last_good_checkpoint()->sequence, 4u);
}

TEST(PeriodicCadence, SavesGenerationsAndSurvivesRestartDeterministically) {
  auto drive = [] {
    FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
    s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    s.runtime->EnableSupervisor(SupervisorConfig{},
                                [] { return std::make_unique<WfqSched>(0); });
    s.runtime->SetCheckpointInterval(Microseconds(500));
    EnokiRuntime* rt = s.runtime.get();
    s.core->loop().ScheduleAfter(Milliseconds(3), [rt] { rt->AbortModule("mid-cadence abort"); });
    PipeBenchConfig cfg;
    cfg.messages = 6000;
    auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
    EXPECT_TRUE(r.completed);
    struct Out {
      uint64_t periodic;
      uint64_t depth;
      Duration age;
      std::string timeline;
      Time end_time;
    } out;
    out.periodic = rt->periodic_checkpoints();
    out.depth = rt->last_restore_depth();
    out.age = rt->last_restore_age_ns();
    out.timeline = rt->RestoreTimelineString();
    out.end_time = s.core->now();
    return std::make_tuple(out.periodic, out.depth, out.age, out.timeline, out.end_time);
  };
  auto a = drive();
  auto b = drive();
  // The cadence actually saved between upgrades, the restore consumed the
  // newest (periodic) generation, and the lost window is below the interval
  // plus scheduling jitter — bounded by the cadence, not by upgrade timing.
  EXPECT_GE(std::get<0>(a), 4u);
  EXPECT_EQ(std::get<1>(a), 1u);
  EXPECT_GT(std::get<2>(a), 0);
  EXPECT_LE(std::get<2>(a), Milliseconds(1));
  EXPECT_NE(std::get<3>(a).find("restore"), std::string::npos);
  // Double-run determinism: byte-identical timelines and clocks.
  EXPECT_EQ(a, b);
}

TEST(PeriodicCadence, CrashDuringCheckpointNowKeepsRing) {
  FaultPlan plan;
  plan.seed = 11;
  plan.checkpoint_crash_rate = 1.0;  // every save crashes
  FaultStack s = MakeFaultStack(InjectedWfq(plan));
  EnokiRuntime* rt = s.runtime.get();
  // Without a watchdog the crash is contained and counted; the ring simply
  // keeps whatever generations it had.
  EXPECT_FALSE(rt->CheckpointNow());
  EXPECT_EQ(rt->checkpoint_save_failures(), 1u);
  EXPECT_TRUE(rt->checkpoint_store().empty());
  EXPECT_FALSE(rt->last_good_checkpoint().has_value());
}

TEST(PeriodicCadence, MidCadenceCrashEscalatesAndLosesNoTasks) {
  FaultPlan plan;
  plan.seed = 21;
  plan.checkpoint_crash_rate = 1.0;
  FaultStack s = MakeFaultStack(InjectedWfq(plan));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->EnableSupervisor(SupervisorConfig{}, [] {
    FaultPlan p;
    p.seed = 21;
    p.checkpoint_crash_rate = 1.0;
    return InjectedWfq(p);
  });
  s.runtime->SetCheckpointInterval(Microseconds(500));
  EnokiRuntime* rt = s.runtime.get();
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  // Every save crashes: each one is escalated to the watchdog like any other
  // escaped exception, the ladder runs, and no task is ever lost — the
  // terminal rung at worst.
  EXPECT_TRUE(r.completed);
  EXPECT_GE(rt->checkpoint_save_failures(), 1u);
  EXPECT_GE(rt->module_restarts() + (rt->quarantined() ? 1u : 0u), 1u);
}

// ---- Flap damping ----

TEST(FlapDamping, RepeatedProbationFailuresRefuseTheFingerprint) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  auto misbehaving = [] {
    FaultPlan plan;
    plan.seed = 5;
    plan.probation_misbehave_rate = 1.0;
    return InjectedWfq(plan);
  };
  // Three upgrades of the same build, each tripping inside probation.
  for (int i = 1; i <= 3; ++i) {
    s.core->loop().ScheduleAfter(Milliseconds(2 * i), [rt, misbehaving, i] {
      auto report = rt->Upgrade(misbehaving());
      EXPECT_TRUE(report.ok) << "upgrade " << i;
      EXPECT_NE(report.incoming_fingerprint, 0u);
    });
  }
  // The fourth is refused outright: same fingerprint, three failures inside
  // the rolling window. No quiesce, no pause.
  s.core->loop().ScheduleAfter(Milliseconds(8), [rt, misbehaving] {
    auto report = rt->Upgrade(misbehaving());
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.refused_flapping);
    EXPECT_EQ(report.pause_ns, 0);
    EXPECT_NE(report.error.find("flapping"), std::string::npos);
    // A different build (different policy id => different fingerprint) is
    // not damped by the flapping one's failures.
    auto other = rt->Upgrade(std::make_unique<WfqSched>(1));
    EXPECT_FALSE(other.refused_flapping);
  });
  PipeBenchConfig cfg;
  cfg.messages = 16000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->rollbacks(), 3u);
  EXPECT_EQ(rt->fingerprint_refusals(), 1u);
}

TEST(FlapDamping, WindowDrainAllowsTheFingerprintAgain) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  FlapDampingConfig damp;
  damp.max_failures = 1;
  damp.window_ns = Milliseconds(2);
  s.runtime->SetFlapDamping(damp);
  EnokiRuntime* rt = s.runtime.get();
  auto misbehaving = [] {
    FaultPlan plan;
    plan.seed = 7;
    plan.probation_misbehave_rate = 1.0;
    return InjectedWfq(plan);
  };
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt, misbehaving] {
    EXPECT_TRUE(rt->Upgrade(misbehaving()).ok);  // fails probation, rolls back
  });
  s.core->loop().ScheduleAfter(Milliseconds(2), [rt, misbehaving] {
    EXPECT_TRUE(rt->Upgrade(misbehaving()).refused_flapping);  // inside window
  });
  s.core->loop().ScheduleAfter(Milliseconds(6), [rt, misbehaving] {
    auto report = rt->Upgrade(misbehaving());  // window drained: admitted again
    EXPECT_FALSE(report.refused_flapping);
    EXPECT_TRUE(report.ok);
  });
  PipeBenchConfig cfg;
  cfg.messages = 12000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->fingerprint_refusals(), 1u);
  EXPECT_EQ(rt->rollbacks(), 2u);
}

// ---- Per-policy probation through the runtime ----

TEST(UpgradeProbation, UsesIncomingModulesDefaultBudgets) {
  FaultStack s = MakeFaultStack(std::make_unique<CentralSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    auto report = rt->Upgrade(std::make_unique<CentralSched>(0));
    EXPECT_TRUE(report.ok);
    ASSERT_TRUE(rt->in_probation());
    // No explicit override: the incoming CentralSched's own (looser pick)
    // budget governs the window.
    EXPECT_EQ(rt->watchdog()->probation().max_pick_errors, 8u);
  });
  s.core->loop().ScheduleAfter(Milliseconds(2), [rt] {
    // An explicit UpgradeOptions.probation still overrides the default.
    UpgradeOptions opts;
    ProbationConfig probation;
    probation.max_pick_errors = 2;
    opts.probation = probation;
    auto report = rt->Upgrade(std::make_unique<CentralSched>(0), opts);
    if (report.ok) {
      EXPECT_EQ(rt->watchdog()->probation().max_pick_errors, 2u);
    }
  });
  PipeBenchConfig cfg;
  cfg.messages = 8000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
}

TEST(Upgrade, OptionsReArmCheckpointCadence) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  EXPECT_EQ(rt->checkpoint_interval(), 0);
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    UpgradeOptions opts;
    opts.checkpoint_interval_ns = Microseconds(400);
    EXPECT_TRUE(rt->Upgrade(std::make_unique<WfqSched>(0), opts).ok);
  });
  PipeBenchConfig cfg;
  cfg.messages = 8000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->checkpoint_interval(), Microseconds(400));
  EXPECT_GE(rt->periodic_checkpoints(), 1u);
}

// ---- The 100-seed sweep (acceptance criteria) ----

struct RingSweepOutcome {
  bool completed = false;
  bool quarantined = false;
  bool fallback = false;
  uint64_t restarts = 0;
  uint64_t rollbacks = 0;
  uint64_t periodic = 0;
  uint64_t save_failures = 0;
  uint64_t rejects = 0;
  uint64_t restore_fallbacks = 0;
  uint64_t slot_rot = 0;
  std::string restore_timeline;
  std::string supervisor_timeline;
  std::string report;
  Time end_time = 0;

  bool operator==(const RingSweepOutcome& o) const {
    return completed == o.completed && quarantined == o.quarantined && fallback == o.fallback &&
           restarts == o.restarts && rollbacks == o.rollbacks && periodic == o.periodic &&
           save_failures == o.save_failures && rejects == o.rejects &&
           restore_fallbacks == o.restore_fallbacks && slot_rot == o.slot_rot &&
           restore_timeline == o.restore_timeline &&
           supervisor_timeline == o.supervisor_timeline && report == o.report &&
           end_time == o.end_time;
  }
};

RingSweepOutcome RunRingSweep(uint64_t seed) {
  FaultStack s =
      MakeFaultStack(InjectedWfq(FaultPlan::UpgradeMenu(seed, /*checkpoint_faults=*/true)));
  CheckpointSaboteur sab(seed, /*corrupt_rate=*/0.0, /*slot_rot_rate=*/0.5);
  s.runtime->SetCheckpointSaboteur(&sab);
  WatchdogConfig cfg;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  s.runtime->EnableSupervisor(SupervisorConfig{}, [seed] {
    return InjectedWfq(FaultPlan::UpgradeMenu(seed, /*checkpoint_faults=*/true));
  });
  s.runtime->SetCheckpointCapacity(3);
  s.runtime->SetCheckpointInterval(Microseconds(250));
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt, seed] {
    UpgradeOptions opts;
    opts.checkpoint_interval_ns = Microseconds(250);
    (void)rt->Upgrade(
        InjectedWfq(FaultPlan::UpgradeMenu(seed ^ 0xBADC0FFEull, /*checkpoint_faults=*/true)),
        opts);
  });
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  RingSweepOutcome out;
  out.completed = r.completed;
  out.quarantined = rt->quarantined();
  out.fallback = rt->fallback_done();
  out.restarts = rt->module_restarts();
  out.rollbacks = rt->rollbacks();
  out.periodic = rt->periodic_checkpoints();
  out.save_failures = rt->checkpoint_save_failures();
  out.rejects = rt->checkpoint_rejects();
  out.restore_fallbacks = rt->restore_fallbacks();
  out.slot_rot = sab.slot_corruptions();
  out.restore_timeline = rt->RestoreTimelineString();
  out.supervisor_timeline = rt->supervisor()->TimelineString();
  if (rt->crash_report().has_value()) {
    out.report = rt->crash_report()->ToString();
  }
  out.end_time = s.core->now();
  return out;
}

TEST(RecoverySweep, RingFaultsHundredSeedsZeroTaskLossIdenticalFallbackOrder) {
  uint64_t seeds_with_periodic = 0, seeds_with_save_crash = 0, seeds_with_rot = 0,
           seeds_with_fallback_walk = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RingSweepOutcome a = RunRingSweep(seed);
    // Zero task loss under ring-slot bit-rot + crash-during-CheckpointNow on
    // every rung — the terminal CFS rung included.
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    // Byte-identical fallback order across reruns: the restore timeline (the
    // exact generations skipped, in order, with reasons) plus the rest of
    // the recovery record.
    RingSweepOutcome b = RunRingSweep(seed);
    EXPECT_TRUE(a == b) << "seed " << seed << " diverged:\n"
                        << a.restore_timeline << "--- vs ---\n"
                        << b.restore_timeline;
    seeds_with_periodic += a.periodic > 0 ? 1 : 0;
    seeds_with_save_crash += a.save_failures > 0 ? 1 : 0;
    seeds_with_rot += a.slot_rot > 0 ? 1 : 0;
    seeds_with_fallback_walk += a.restore_fallbacks > 0 ? 1 : 0;
  }
  // The sweep must actually exercise the new failure modes, not skate by.
  EXPECT_GT(seeds_with_periodic, 0u);
  EXPECT_GT(seeds_with_save_crash, 0u);
  EXPECT_GT(seeds_with_rot, 0u);
  EXPECT_GT(seeds_with_fallback_walk, 0u);
}


// ---- One checkpoint table: every policy's codec, pinned and fuzzed ----
//
// Each row builds a fixed, non-trivial state for one checkpointing policy (or
// RunningAvg) and takes its SaveCheckpoint bytes as the row's oracle payload.
// kCkOracle pins, as literals recorded before the shared field-list codec
// replaced the hand-written SaveCheckpoint/LoadCheckpoint pairs:
//  - the payload bytes and CheckpointVersion();
//  - the Save bytes of a fresh instance after loading the payload;
//  - an FNV-1a digest over a seeded mutation corpus of each mutant's verdict
//    and, when accepted, the Save bytes after the load.
// The refusal, freshness and fuzz tests below run over the same rows.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// A freshly attached checkpointing instance plus whatever keeps it alive.
struct CkSubject {
  std::shared_ptr<void> env;  // declared first: destroyed after the instance
  std::function<uint32_t()> version;
  std::function<bool(ByteWriter*)> save;
  std::function<bool(uint32_t, ByteReader*)> load;
  EnokiSched* module = nullptr;  // Enoki policies: exercised after loads
  int ncpus = 0;

  std::vector<uint8_t> Save() const {
    ByteWriter w;
    EXPECT_TRUE(save(&w));
    return w.Take();
  }
  bool Load(uint32_t v, const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    return load(v, &r);
  }
};

template <class M>
CkSubject Attached(std::shared_ptr<EnokiKernelEnv> env, std::shared_ptr<M> m) {
  m->Attach(env.get());
  CkSubject s;
  s.env = env;
  s.version = [m] { return m->CheckpointVersion(); };
  s.save = [m](ByteWriter* w) { return m->SaveCheckpoint(w); };
  s.load = [m](uint32_t v, ByteReader* r) { return m->LoadCheckpoint(v, r); };
  s.module = m.get();
  s.ncpus = env->NumCpus();
  return s;
}

CkSubject GhostSubject(std::shared_ptr<SchedCore> core) {
  auto g = std::make_shared<GhostClass>(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
  g->Attach(core.get());
  CkSubject s;
  s.env = core;
  s.version = [g] { return g->CheckpointVersion(); };
  s.save = [g](ByteWriter* w) { return g->SaveCheckpoint(w); };
  s.load = [g](uint32_t v, ByteReader* r) { return g->LoadCheckpoint(v, r); };
  return s;
}

// RunningAvg has no format version of its own; its rows load at version 0.
CkSubject RavgSubject(std::shared_ptr<RunningAvg> avg) {
  CkSubject s;
  s.version = [] { return 0u; };
  s.save = [avg](ByteWriter* w) {
    avg->Save(w);
    return true;
  };
  s.load = [avg](uint32_t, ByteReader* r) { return avg->Load(r); };
  return s;
}

// Two NUMA nodes, so rusty has two balancing domains to checkpoint.
class TwoNodeEnv : public ReplayEnv {
 public:
  explicit TwoNodeEnv(int ncpus) : ReplayEnv(ncpus) {}
  int NodeOf(int cpu) const override { return cpu < NumCpus() / 2 ? 0 : 1; }
};

struct CkRow {
  std::string name;
  std::function<CkSubject()> fresh;
  std::vector<uint8_t> payload;  // the oracle payload
  uint32_t load_version = 0;
  // Loads pids into pid-indexed tables (see PlantsMidSizedWord).
  bool pid_tables = false;
};

void Hint(EnokiSched& m, uint64_t pid, uint64_t value) {
  HintBlob h;
  h.w[0] = pid;
  h.w[1] = value;
  m.ParseHint(h);
}

template <class M>
std::vector<uint8_t> SaveOf(const M& m) {
  ByteWriter w;
  EXPECT_TRUE(m.SaveCheckpoint(&w));
  return w.Take();
}

std::vector<CkRow> CkRows() {
  std::vector<CkRow> rows;
  auto env4 = [] { return std::make_shared<ReplayEnv>(4); };
  {
    // Baselines and vruntimes well above 2^24 ns so byte flips in them stay
    // outside the mid-sized band the fuzzer redraws.
    auto env = env4();
    WfqSched m(0);
    m.Attach(env.get());
    m.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
    m.TaskNew(Msg(2, 1, /*nice=*/-5), SchedulableMinter::Mint(2, 1, 1));
    m.TaskNew(Msg(3, 2, /*nice=*/3), SchedulableMinter::Mint(3, 2, 1));
    (void)m.PickNextTask(0, std::nullopt);
    m.TaskTick(0, 1, Milliseconds(30));
    TaskMessage again = Msg(1, 0);
    again.runtime = Milliseconds(30);
    m.TaskPreempt(again, SchedulableMinter::Mint(1, 0, 2));
    (void)m.PickNextTask(0, std::nullopt);  // cpu 0 baseline moves to 30ms
    m.TaskTick(0, 1, Milliseconds(47));
    rows.push_back({"wfq", [env4] { return Attached(env4(), std::make_shared<WfqSched>(0)); },
                    SaveOf(m), 2, true});
  }
  {
    // A v1 payload predates slice_start_runtime; it loads at version 1.
    ByteWriter w;
    w.U64(2);
    w.U64(Milliseconds(20));
    w.U64(Milliseconds(35));
    w.U64(2);
    for (uint64_t pid : {4, 9}) {
      w.U64(pid);
      w.U64(Milliseconds(30) + pid);
      w.U64(NiceToWeight(static_cast<int>(pid) - 6));
      w.U64(Milliseconds(40) + pid);
      w.U64(pid % 2);
    }
    rows.push_back({"wfq_v1", [env4] { return Attached(env4(), std::make_shared<WfqSched>(0)); },
                    w.Take(), 1, true});
  }
  {
    auto env = env4();
    FifoSched m(0);
    m.Attach(env.get());
    for (uint64_t pid = 1; pid <= 3; ++pid) {
      TaskMessage msg = Msg(pid, 0);
      msg.is_new = true;
      (void)m.SelectTaskRq(msg);  // advances the round-robin cursor
    }
    rows.push_back({"fifo", [env4] { return Attached(env4(), std::make_shared<FifoSched>(0)); },
                    SaveOf(m), 1});
  }
  {
    auto env = env4();
    ShinjukuSched m(0);
    m.Attach(env.get());
    for (uint64_t pid = 1; pid <= 3; ++pid) {
      m.TaskNew(Msg(pid, static_cast<int>(pid)), SchedulableMinter::Mint(pid, pid, 1));
    }
    rows.push_back({"shinjuku",
                    [env4] { return Attached(env4(), std::make_shared<ShinjukuSched>(0)); },
                    SaveOf(m), 1});
  }
  {
    auto env = env4();
    LocalitySched m(0, /*use_hints=*/true);
    m.Attach(env.get());
    Hint(m, 1, 7);
    Hint(m, 2, 7);
    Hint(m, 3, 9);
    Hint(m, 5, 11);
    rows.push_back({"locality",
                    [env4] {
                      return Attached(env4(), std::make_shared<LocalitySched>(0, true));
                    },
                    SaveOf(m), 1});
  }
  {
    auto env = env4();
    NestSched m(0);
    m.Attach(env.get());
    env->SetNow(Milliseconds(50));
    m.TaskNew(Msg(1, 2), SchedulableMinter::Mint(1, 2, 1));
    (void)m.PickNextTask(2, std::nullopt);
    env->SetNow(Milliseconds(80));
    m.TaskNew(Msg(2, 3), SchedulableMinter::Mint(2, 3, 1));
    (void)m.PickNextTask(3, std::nullopt);
    rows.push_back({"nest", [env4] { return Attached(env4(), std::make_shared<NestSched>(0)); },
                    SaveOf(m), 1});
  }
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    GhostClass g(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
    const int policy = core.RegisterClass(&g);
    for (int i = 0; i < 3; ++i) {
      core.CreateTaskOn("g", MakeFnBody([](SimContext&) { return Action::Exit(); }), policy, 0,
                        CpuMask::All(8));
    }
    auto shared = std::make_shared<SchedCore>(MachineSpec::OneSocket8(), SimCosts{});
    rows.push_back({"ghost", [shared] { return GhostSubject(shared); }, SaveOf(g), 1});
  }
  {
    auto env = env4();
    CentralSched m(0);
    m.Attach(env.get());
    m.TaskNew(Msg(1, 1), SchedulableMinter::Mint(1, 1, 1));
    m.TaskNew(Msg(2, 2), SchedulableMinter::Mint(2, 2, 1));
    rows.push_back({"central",
                    [env4] { return Attached(env4(), std::make_shared<CentralSched>(0)); },
                    SaveOf(m), 1});
  }
  {
    auto env = env4();
    PairSched m(0);
    m.Attach(env.get());
    m.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
    m.TaskNew(Msg(2, 2), SchedulableMinter::Mint(2, 2, 1));
    Hint(m, 1, 7);
    Hint(m, 2, 9);
    Hint(m, 6, 7);
    rows.push_back({"pair", [env4] { return Attached(env4(), std::make_shared<PairSched>(0)); },
                    SaveOf(m), 1, true});
  }
  {
    auto env = std::make_shared<ReplayEnv>(8);
    LayeredSched m(0, LayeredSched::DefaultThreeTier(8));
    m.Attach(env.get());
    m.TaskNew(Msg(1, 0, /*nice=*/-10), SchedulableMinter::Mint(1, 0, 1));
    m.TaskNew(Msg(2, 4, /*nice=*/0), SchedulableMinter::Mint(2, 4, 1));
    m.TaskNew(Msg(3, 6, /*nice=*/10), SchedulableMinter::Mint(3, 6, 1));
    for (int cpu = 0; cpu < 8; ++cpu) {
      (void)m.PickNextTask(cpu, std::nullopt);
    }
    m.TaskTick(0, 1, Milliseconds(2));
    rows.push_back({"layered",
                    [] {
                      return Attached(std::make_shared<ReplayEnv>(8),
                                      std::make_shared<LayeredSched>(
                                          0, LayeredSched::DefaultThreeTier(8)));
                    },
                    SaveOf(m), 1});
  }
  {
    auto env = std::make_shared<TwoNodeEnv>(8);
    RustySched m(0);
    m.Attach(env.get());
    env->SetNow(Microseconds(100));
    m.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
    m.TaskNew(Msg(2, 1), SchedulableMinter::Mint(2, 1, 1));
    m.TaskNew(Msg(3, 4), SchedulableMinter::Mint(3, 4, 1));
    env->SetNow(Milliseconds(8));
    (void)m.DomainLoad(0);
    (void)m.DomainLoad(1);
    rows.push_back({"rusty",
                    [] {
                      return Attached(std::make_shared<TwoNodeEnv>(8),
                                      std::make_shared<RustySched>(0));
                    },
                    SaveOf(m), 1});
  }
  {
    RunningAvg a(Milliseconds(5));
    a.Set(Microseconds(100), 40);
    a.Set(Microseconds(700), 90);
    (void)a.Read(Milliseconds(12));
    a.Set(Milliseconds(12) + Microseconds(3), 10);
    ByteWriter w;
    a.Save(&w);
    rows.push_back({"ravg",
                    [] { return RavgSubject(std::make_shared<RunningAvg>(Milliseconds(5))); },
                    w.Take(), 0});
  }
  return rows;
}

struct CkOracle {
  const char* name;
  uint32_t version;
  const char* payload_hex;
  const char* restored_hex;  // fresh instance's Save after loading the payload
  uint64_t fuzz_digest;
};

// Recorded from the hand-written codecs before the field-list rewrite.
const CkOracle kCkOracle[] = {
    {"wfq", 2u, "040000000000000080c3c90100000000000000000000000000000000000000000000000000000000"
     "03000000000000000100000000000000c029cd02000000000004000000000000c029cd0200000000"
     "80c3c90100000000000000000000000002000000000000000000000000000000310c000000000000"
     "00000000000000000000000000000000010000000000000003000000000000000000000000000000"
     "0e02000000000000000000000000000000000000000000000200000000000000",
     "040000000000000080c3c90100000000000000000000000000000000000000000000000000000000"
     "03000000000000000100000000000000c029cd02000000000004000000000000c029cd0200000000"
     "80c3c90100000000000000000000000002000000000000000000000000000000310c000000000000"
     "00000000000000000000000000000000010000000000000003000000000000000000000000000000"
     "0e02000000000000000000000000000000000000000000000200000000000000",
     0x71da9f2f94a6b387ull},
    {"wfq_v1", 2u, "0200000000000000002d310100000000c00e16020000000002000000000000000400000000000000"
     "84c3c901000000003206000000000000045a62020000000000000000000000000900000000000000"
     "89c3c901000000000e02000000000000095a6202000000000100000000000000",
     "0400000000000000002d310100000000c00e160200000000002d310100000000002d310100000000"
     "0200000000000000040000000000000084c3c901000000003206000000000000045a620200000000"
     "045a6202000000000000000000000000090000000000000089c3c901000000000e02000000000000"
     "095a620200000000095a6202000000000100000000000000",
     0xf67de8b6df05236full},
    {"fifo", 1u, "0300000000000000",
     "0300000000000000",
     0xb9fe0914f6215fbeull},
    {"shinjuku", 1u, "0400000000000000",
     "0400000000000000",
     0x9bb0951adf87ee82ull},
    {"locality", 1u, "03000000000000000300000000000000070000000000000000000000000000000900000000000000"
     "01000000000000000b00000000000000020000000000000004000000000000000100000000000000"
     "07000000000000000200000000000000070000000000000003000000000000000900000000000000"
     "05000000000000000b00000000000000",
     "03000000000000000300000000000000070000000000000000000000000000000900000000000000"
     "01000000000000000b00000000000000020000000000000004000000000000000100000000000000"
     "07000000000000000200000000000000070000000000000003000000000000000900000000000000"
     "05000000000000000b00000000000000",
     0x6e0e680502dcec74ull},
    {"nest", 1u, "04000000000000000000000000000000000000000000000080f0fa020000000000b4c40400000000",
     "04000000000000000000000000000000000000000000000080f0fa020000000000b4c40400000000",
     0x2d2d4e39fc35d724ull},
    {"ghost", 1u, "0400000000000000000000000000000003000000000000000300000000000000",
     "0400000000000000000000000000000003000000000000000300000000000000",
     0x02272056cb702701ull},
    {"central", 1u, "0300000000000000",
     "0300000000000000",
     0x3757dd7178f41e67ull},
    {"pair", 1u, "03000000000000000300000000000000010000000000000007000000000000000200000000000000"
     "090000000000000006000000000000000700000000000000",
     "03000000000000000300000000000000010000000000000007000000000000000200000000000000"
     "090000000000000006000000000000000700000000000000",
     0xb2b7e69d24e63d0full},
    {"layered", 1u, "0300000000000000001027000000000000409c000000000000007102000000000400000000000000",
     "0300000000000000001027000000000000409c000000000000007102000000000400000000000000",
     0x49f4962bdb205dedull},
    {"rusty", 1u, "04000000000000000200000000000000404b4c000000000000127a0000000000eb03000000000000"
     "0000366e010000000008000000000000404b4c000000000000127a0000000000f501000000000000"
     "00001bb7000000000004000000000000",
     "04000000000000000200000000000000404b4c000000000000127a0000000000eb03000000000000"
     "0000366e010000000008000000000000404b4c000000000000127a0000000000f501000000000000"
     "00001bb7000000000004000000000000",
     0x63084325e4047d5aull},
    {"ravg", 0u, "8096980000000000b826b700000000004100000000000000b0b3be0a000000000a00000000000000",
     "8096980000000000b826b700000000004100000000000000b0b3be0a000000000a00000000000000",
     0x80cd683092e78a5aull},
};

constexpr size_t kMutantsPerRow = 1000;

// A u64 word in [2^16, 2^24] is a legal pid, and a pid-indexed table (WFQ
// entities, pair cookies) grows to the largest pid a payload names — up to
// ~800 MB for WFQ at the 2^24 bound. To keep each fuzz iteration small, rows
// with such tables redraw a mutant that plants a word in that band the source
// payload did not have at the same offset. The bound itself is pinned by the
// pid rows of the rejection table.
bool PlantsMidSizedWord(const std::vector<uint8_t>& mutant, const std::vector<uint8_t>& source) {
  auto word = [](const std::vector<uint8_t>& b, size_t i) {
    uint64_t v = 0;
    for (size_t k = 0; k < 8; ++k) {
      v |= static_cast<uint64_t>(b[i + k]) << (8 * k);
    }
    return v;
  };
  for (size_t i = 0; i + 8 <= mutant.size(); i += 8) {
    const uint64_t v = word(mutant, i);
    if (v >= (uint64_t{1} << 16) && v <= (uint64_t{1} << 24) &&
        (i + 8 > source.size() || word(source, i) != v)) {
      return true;
    }
  }
  return false;
}

// Seeded mutant of rows[r]'s payload: one to three stacked byte flips,
// truncations, extensions and splices (with any row's payload).
std::vector<uint8_t> Mutant(const std::vector<CkRow>& rows, size_t r, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> b = rows[r].payload;
  const uint64_t n = 1 + rng.NextBelow(3);
  for (uint64_t k = 0; k < n; ++k) {
    switch (rng.NextBelow(4)) {
      case 0:
        if (!b.empty()) {
          b[rng.NextBelow(b.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
        }
        break;
      case 1:
        b.resize(rng.NextBelow(b.size() + 1));
        break;
      case 2:
        for (uint64_t extra = 1 + rng.NextBelow(16); extra > 0; --extra) {
          b.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      default: {
        const std::vector<uint8_t>& other = rows[rng.NextBelow(rows.size())].payload;
        b.resize(rng.NextBelow(b.size() + 1));
        b.insert(b.end(), other.begin() + rng.NextBelow(other.size() + 1), other.end());
        break;
      }
    }
  }
  return b;
}

// The fixed mutation corpus of row r: kMutantsPerRow mutants with their seeds.
std::vector<std::pair<uint64_t, std::vector<uint8_t>>> Corpus(const std::vector<CkRow>& rows,
                                                              size_t r) {
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> out;
  for (uint64_t seed = (uint64_t{r} << 32) + 1; out.size() < kMutantsPerRow; ++seed) {
    std::vector<uint8_t> m = Mutant(rows, r, seed);
    if (rows[r].pid_tables && PlantsMidSizedWord(m, rows[r].payload)) {
      continue;
    }
    out.emplace_back(seed, std::move(m));
  }
  return out;
}

uint64_t Fnv(uint64_t h, const std::vector<uint8_t>& bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

const CkOracle* OracleFor(const std::string& name) {
  for (const CkOracle& o : kCkOracle) {
    if (name == o.name) {
      return &o;
    }
  }
  return nullptr;
}

TEST(CheckpointOracle, PayloadsVersionsAndFuzzDigestsArePinned) {
  const std::vector<CkRow> rows = CkRows();
  std::string table;  // paste-ready literals, printed on any mismatch
  bool all_match = true;
  for (size_t r = 0; r < rows.size(); ++r) {
    const CkRow& row = rows[r];
    CkSubject s = row.fresh();
    const uint32_t version = s.version();
    EXPECT_TRUE(s.Load(row.load_version, row.payload)) << row.name;
    const std::vector<uint8_t> restored = s.Save();
    // Queue membership and tokens never travel in a checkpoint: every
    // restored task is parked until the runtime re-injects it.
    for (int cpu = 0; cpu < s.ncpus; ++cpu) {
      EXPECT_FALSE(s.module->PickNextTask(cpu, std::nullopt).has_value()) << row.name;
    }
    uint64_t digest = 14695981039346656037ull;
    for (const auto& [seed, mutant] : Corpus(rows, r)) {
      CkSubject m = row.fresh();
      const bool ok = m.Load(row.load_version, mutant);
      digest = Fnv(digest, {static_cast<uint8_t>(ok)});
      if (ok) {
        const std::vector<uint8_t> saved = m.Save();
        digest = Fnv(digest, {static_cast<uint8_t>(saved.size()),
                              static_cast<uint8_t>(saved.size() >> 8)});
        digest = Fnv(digest, saved);
      }
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%uu, ", version);
    table += "    {\"" + row.name + "\", " + line + "\"" + Hex(row.payload) + "\",\n     \"" +
             Hex(restored) + "\",\n     ";
    std::snprintf(line, sizeof(line), "0x%016llxull},\n",
                  static_cast<unsigned long long>(digest));
    table += line;

    const CkOracle* o = OracleFor(row.name);
    ASSERT_NE(o, nullptr) << row.name;
    const bool match = version == o->version && Hex(row.payload) == o->payload_hex &&
                       Hex(restored) == o->restored_hex && digest == o->fuzz_digest;
    EXPECT_TRUE(match) << row.name << " drifted from its recorded literals";
    all_match = all_match && match;
  }
  if (!all_match) {
    std::printf("Recorded oracle table:\n%s", table.c_str());
  }
}

// A refused load must leave the instance exactly as a fresh attached one: the
// same Save bytes, and (Enoki policies) still able to take a task and hand
// its token back.
void ExpectFresh(CkSubject& s, const CkRow& row, const std::string& where) {
  EXPECT_EQ(Hex(s.Save()), Hex(row.fresh().Save())) << "stale state after refusal: " << where;
  if (s.module != nullptr) {
    s.module->TaskNew(Msg(99, 0), SchedulableMinter::Mint(99, 0, 1));
    EXPECT_TRUE(s.module->TaskDeparted(Msg(99, 0)).has_value())
        << "unusable after refusal: " << where;
  }
}

const CkRow& RowNamed(const std::vector<CkRow>& rows, const std::string& name) {
  for (const CkRow& row : rows) {
    if (row.name == name) {
      return row;
    }
  }
  ADD_FAILURE() << "no row " << name;
  return rows.front();
}

TEST(CheckpointFresh, EveryTruncatedPrefixIsRefusedAndLeavesTheModuleFresh) {
  for (const CkRow& row : CkRows()) {
    const std::string fresh = Hex(row.fresh().Save());
    size_t stale = 0;
    for (size_t len = 0; len < row.payload.size(); ++len) {
      CkSubject s = row.fresh();
      const std::vector<uint8_t> prefix(row.payload.begin(), row.payload.begin() + len);
      EXPECT_FALSE(s.Load(row.load_version, prefix)) << row.name << " accepted " << len << " bytes";
      stale += Hex(s.Save()) != fresh ? 1 : 0;
    }
    EXPECT_EQ(stale, 0u) << row.name << ": " << stale << " of " << row.payload.size()
                         << " refused prefixes left non-fresh state";
  }
}

// Every specific bound, one row each: refused (and fresh afterwards) just
// past the bound, accepted at it.
struct CkBoundRow {
  const char* row;
  const char* why;
  bool accept;
  uint32_t version;
  std::vector<uint64_t> words;  // the payload, one u64 per word
  bool use_oracle = false;      // load the row's oracle payload instead
};

std::vector<uint64_t> Repeat(std::vector<uint64_t> head, size_t n, std::vector<uint64_t> unit,
                             std::vector<uint64_t> tail = {}) {
  for (size_t i = 0; i < n; ++i) {
    head.insert(head.end(), unit.begin(), unit.end());
  }
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST(CheckpointBounds, EachRejectionIsItsOwnRow) {
  constexpr uint64_t kId = uint64_t{1} << 24;
  const uint64_t w0 = NiceToWeight(0);
  const std::vector<CkBoundRow> table = {
      {"wfq", "future version", false, 3, {}, true},
      {"wfq", "zero cpus", false, 2, {0, 0}},
      {"wfq", "more than 4096 cpus", false, 2, Repeat({4097}, 4097, {0}, {0})},
      {"wfq", "4096 cpus", true, 2, Repeat({4096}, 4096, {0}, {0})},
      {"wfq", "pid 0", false, 2, {1, 0, 1, 0, 1, w0, 0, 0, 0}},
      {"wfq", "pid past 2^24", false, 2, {1, 0, 1, kId + 1, 1, w0, 0, 0, 0}},
      {"wfq", "weight 0", false, 2, {1, 0, 1, 5, 1, 0, 0, 0, 0}},
      {"wfq", "entity count past the payload", false, 2, {1, 0, 5, 5, 1, w0, 0, 0, 0}},
      {"wfq_v1", "v1 entity carries no slice_start", true, 1, {1, 0, 1, 5, 1, w0, 0, 0}},
      {"fifo", "future version", false, 2, {}, true},
      {"fifo", "empty payload", false, 1, {}},
      {"shinjuku", "future version", false, 2, {}, true},
      {"shinjuku", "seq 0", false, 1, {0}},
      {"shinjuku", "empty payload", false, 1, {}},
      {"locality", "future version", false, 2, {}, true},
      {"locality", "pid 0", false, 1, {0, 0, 1, 0, 3}},
      {"locality", "pid past 2^24", false, 1, {0, 0, 1, kId + 1, 3}},
      {"locality", "pid 2^24", true, 1, {0, 0, 1, kId, 3}},
      {"locality", "group count past 2^24", false, 1, {0, kId + 1}},
      {"locality", "pid count past 2^24", false, 1, {0, 0, kId + 1}},
      {"nest", "future version", false, 2, {}, true},
      {"nest", "zero cpus", false, 1, {0}},
      {"nest", "more than 4096 cpus", false, 1, Repeat({4097}, 4097, {0})},
      {"nest", "4096 cpus", true, 1, Repeat({4096}, 4096, {0})},
      {"ghost", "future version", false, 2, {}, true},
      {"ghost", "seq 0", false, 1, {0, 0, 0, 0}},
      {"ghost", "rr cursor past 4096", false, 1, {5, 2, 9, 4097}},
      {"ghost", "rr cursor 4096", true, 1, {5, 2, 9, 4096}},
      {"central", "future version", false, 2, {}, true},
      {"central", "seq 0", false, 1, {0}},
      {"central", "empty payload", false, 1, {}},
      {"pair", "future version", false, 2, {}, true},
      {"pair", "seq 0", false, 1, {0, 0}},
      {"pair", "pid 0", false, 1, {3, 1, 0, 7}},
      {"pair", "pid past 2^24", false, 1, {3, 1, kId + 1, 7}},
      {"pair", "cookie count past 2^24", false, 1, {3, kId + 1}},
      {"pair", "a million cookies in a short payload", false, 1, {3, 1000000}},
      {"layered", "future version", false, 2, {}, true},
      {"layered", "layer-count mismatch", false, 1, {2, 0, 0, 1}},
      {"layered", "seq 0", false, 1, {3, 0, 0, 0, 0}},
      {"rusty", "future version", false, 2, {}, true},
      {"rusty", "seq 0", false, 1, {0, 1, 0, 0, 0, 0, 0}},
      {"rusty", "zero domains", false, 1, {1, 0}},
      {"rusty", "more than 64 domains", false, 1, Repeat({1, 65}, 65, {0, 0, 0, 0, 0})},
      {"rusty", "64 domains", true, 1, Repeat({1, 64}, 64, {0, 0, 0, 0, 0})},
      {"rusty", "inverted ravg clock", false, 1, {1, 2, 0, 100, 7, 8, 9, 1000, 500, 0, 0, 0}},
      {"ravg", "inverted clock", false, 0, {1000, 500, 7, 8, 9}},
  };
  const std::vector<CkRow> rows = CkRows();
  for (const CkBoundRow& b : table) {
    const CkRow& row = RowNamed(rows, b.row);
    ByteWriter w;
    for (uint64_t v : b.words) {
      w.U64(v);
    }
    const std::vector<uint8_t> payload = b.use_oracle ? row.payload : w.Take();
    const std::string where = std::string(b.row) + ": " + b.why;
    CkSubject s = row.fresh();
    ASSERT_EQ(s.Load(b.version, payload), b.accept) << where;
    if (!b.accept) {
      ExpectFresh(s, row, where);
    }
  }
}

TEST(CheckpointFuzz, MutantsAreRefusedFreshOrAcceptedAsAFixedPoint) {
  const std::vector<CkRow> rows = CkRows();
  for (size_t r = 0; r < rows.size(); ++r) {
    const CkRow& row = rows[r];
    size_t accepted = 0;
    for (const auto& [seed, mutant] : Corpus(rows, r)) {
      // Replay one case with Mutant(CkRows(), r, seed).
      const std::string where = row.name + " seed=" + std::to_string(seed);
      CkSubject s = row.fresh();
      if (!s.Load(row.load_version, mutant)) {
        ExpectFresh(s, row, where);
        continue;
      }
      ++accepted;
      const std::vector<uint8_t> once = s.Save();
      CkSubject again = row.fresh();
      ASSERT_TRUE(again.Load(s.version(), once)) << "own Save refused: " << where;
      ASSERT_EQ(Hex(again.Save()), Hex(once)) << "Save -> Load -> Save moved: " << where;
    }
    EXPECT_GT(accepted, 0u) << row.name << ": the corpus never reached an accepting load";
  }
}

}  // namespace
}  // namespace enoki
