// The simulator cost model.
//
// Every mechanism-level cost in the simulated kernel is a named constant
// here. The defaults are calibrated so that the relative behaviour of the
// schedulers reproduces the paper's evaluation on its 8-core i7-9700
// (3 GHz) machine: a CFS pipe ping-pong costs ~3 us per wakeup, the Enoki
// framework adds 100-150 ns per scheduler invocation (4 invocations per
// schedule operation, section 5.2), and ghOSt pays agent-scheduling latency
// on every decision.

#ifndef SRC_SIMKERNEL_COSTS_H_
#define SRC_SIMKERNEL_COSTS_H_

#include "src/base/time.h"

namespace enoki {

struct SimCosts {
  // Direct cost of a context switch (register/state swap, rq lock traffic).
  Duration context_switch_ns = 900;

  // Kernel entry/exit plus wake-path work charged to the waking task
  // (try_to_wake_up: select_task_rq, enqueue, preemption check).
  Duration wake_syscall_ns = 700;

  // Kernel entry/exit plus dequeue work on the blocking side.
  Duration block_syscall_ns = 500;

  // Core-scheduler pick path (per schedule operation, native scheduler).
  Duration pick_path_ns = 900;

  // Cross-CPU reschedule interrupt delivery.
  Duration ipi_ns = 400;

  // C-state ladder: cores descend through sleep states as idle time grows
  // (menu-governor behaviour). Exit latency is paid at wakeup.
  //   shallow (C1):  idle < medium threshold
  //   medium  (C3):  idle < deep threshold
  //   deep    (C6+): prolonged idle; tens of microseconds to exit, which
  //                  dominates schbench-style wakeup latencies (Tables 4, 6)
  //                  and is what warm-core placement (Nest) avoids.
  Duration shallow_idle_exit_ns = 500;
  Duration medium_idle_exit_ns = 6'000;
  Duration deep_idle_exit_ns = 30'000;

  Duration medium_idle_threshold_ns = 15'000;
  Duration deep_idle_threshold_ns = 300'000;

  // Per-invocation overhead of the Enoki framework: message marshalling,
  // the RwLock read acquire, and the dispatch through the module's
  // processing function. The paper measured 100-150 ns per invocation.
  Duration enoki_call_ns = 125;

  // Additional per-invocation cost when the Enoki record system is active
  // (serializing the call message into the record buffer).
  Duration enoki_record_ns = 3'000;

  // ghOSt: producing a message into an agent channel.
  Duration ghost_msg_ns = 400;

  // ghOSt: agent-side handling cost per message (parse, policy, txn setup).
  Duration ghost_agent_op_ns = 1'700;

  // ghOSt: committing a transaction (syscall + commit protocol).
  Duration ghost_commit_ns = 1'000;

  // Live upgrade: per-CPU cost of draining in-flight read-locked calls while
  // the upgrade holds the write lock (scales the pause with core count,
  // section 5.7).
  Duration upgrade_percpu_drain_ns = 110;

  // Live upgrade: fixed cost of the module pointer swap plus lock handoff.
  Duration upgrade_swap_ns = 300;

  // Watchdog fallback: per-task cost of re-policying a quarantined module's
  // task onto the fallback class (setscheduler path minus syscall entry).
  Duration fallback_pertask_ns = 150;

  // Transactional upgrade: serializing a quiesced module's accounting state
  // into a checkpoint (memcpy-dominated; flat approximation).
  Duration checkpoint_save_ns = 600;

  // Recovery: per-task cost of re-minting a token and re-injecting a parked
  // task into a restored module after a rollback or supervised restart.
  Duration restore_pertask_ns = 180;

  // Supervised restart: constructing and attaching a fresh module instance
  // (module load minus the original registration syscall).
  Duration module_restart_ns = 2'000;

  // Arming a per-CPU hrtimer from an Enoki scheduler.
  Duration timer_arm_ns = 350;

  // Timer tick period (CONFIG_HZ=1000).
  Duration tick_ns = 1'000'000;

  // User-level thread context switch (Arachne runtime).
  Duration user_switch_ns = 45;

  // Writing a hint into a user->kernel queue (store + optional kick).
  Duration hint_write_ns = 100;

  // Socket round-trip latency (original Arachne arbiter communication).
  Duration socket_rtt_ns = 25'000;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_COSTS_H_
