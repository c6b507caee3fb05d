// The locality-aware Enoki scheduler (section 4.2.3).
//
// Applications send hints through the user-to-kernel queue pairing a thread
// id with a locality class; the scheduler co-locates all threads of a class
// on one core. Unlike cgroup/cpuset pinning, the hint names only the
// *grouping* — the scheduler chooses (and may override) the core, e.g. when
// a core is oversubscribed. With hints disabled the scheduler degrades to
// seeded-random placement, the paper's "Random" baseline in Table 6.
//
// Hint layout: w[0] = pid, w[1] = locality class id.

#ifndef SRC_SCHED_LOCALITY_H_
#define SRC_SCHED_LOCALITY_H_

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class LocalitySched : public EnokiSched {
 public:
  // Refuse to co-locate more than this many runnable tasks on one core; the
  // scheduler may ignore hints when a core is oversubscribed.
  static constexpr size_t kMaxColocated = 16;

  LocalitySched(int policy_id, bool use_hints, uint64_t seed = 42)
      : policy_id_(policy_id), use_hints_(use_hints), rng_(seed) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      Reset();
    }
  }

  int GetPolicy() const override { return policy_id_; }

  void ParseHint(const HintBlob& hint) override {
    if (!use_hints_) {
      return;
    }
    SpinLockGuard g(lock_);
    const uint64_t pid = hint.w[0];
    const uint64_t group = hint.w[1];
    group_of_[pid] = group;
    if (group_cpu_.find(group) == group_cpu_.end()) {
      // Assign groups to cores round-robin.
      group_cpu_[group] = next_group_cpu_;
      next_group_cpu_ = (next_group_cpu_ + 1) % env_->NumCpus();
    }
  }

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    auto git = group_of_.find(msg.pid);
    if (git != group_of_.end()) {
      const int cpu = group_cpu_[git->second];
      if (queues_[cpu].size() < kMaxColocated) {
        return cpu;
      }
      // Oversubscribed: the hint is advisory; fall through.
    }
    // Unhinted tasks get a random *initial* placement (the Table 6 "Random"
    // baseline) and then stay on their CPU across wakeups.
    if (msg.is_new || msg.prev_cpu < 0) {
      return static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(env_->NumCpus())));
    }
    return msg.prev_cpu;
  }

  void TaskNew(const TaskMessage& msg, Schedulable sched) override { Enqueue(msg.pid, std::move(sched)); }
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }

  void TaskBlocked(const TaskMessage& msg) override { Remove(msg.pid); }
  void TaskDead(uint64_t pid) override {
    {
      SpinLockGuard g(lock_);
      group_of_.erase(pid);
    }
    Remove(pid);
  }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    auto it = tokens_.find(msg.pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    return s;
  }

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    SpinLockGuard g(lock_);
    auto& q = queues_[cpu];
    if (q.empty()) {
      return std::nullopt;
    }
    const uint64_t pid = q.front();
    q.pop_front();
    auto it = tokens_.find(pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    return s;
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    queues_[msg.to_cpu].push_back(msg.pid);
    auto it = tokens_.find(msg.pid);
    ENOKI_CHECK(it != tokens_.end());
    Schedulable old = std::move(it->second);
    it->second = std::move(sched);
    return old;
  }

  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      env_->ReschedCpu(cpu);  // round-robin among co-located tasks
    }
  }

  // ---- Checkpointing (recovery ladder) ----
  // v1: the placement accounting only — group->core assignments, pid->group
  // memberships, and the round-robin cursor. Queue membership and tokens
  // stay with the runtime; the rng is not saved (random placement is a
  // baseline, not accounting). unordered_map contents are serialized in
  // sorted key order so identical state always yields identical bytes — the
  // checkpoint itself is part of the determinism contract.
  bool SaveCheckpoint(ByteWriter* out) const override {
    SpinLockGuard g(lock_);
    Snapshot s;
    s.next_group_cpu = static_cast<uint64_t>(next_group_cpu_);
    s.group_cpu.assign(group_cpu_.begin(), group_cpu_.end());
    s.group_of.assign(group_of_.begin(), group_of_.end());
    std::sort(s.group_cpu.begin(), s.group_cpu.end());
    std::sort(s.group_of.begin(), s.group_of.end());
    return EncodeFields(out, CheckpointVersion(), std::move(s));
  }

  uint32_t CheckpointVersion() const override { return 1; }

  bool LoadCheckpoint(uint32_t version, ByteReader* in) override {
    return DecodeThenCommit(this, &lock_, env_ != nullptr, version, in, &LocalitySched::Reset,
                            &LocalitySched::Commit);
  }

 private:
  using Entry = std::pair<uint64_t, uint64_t>;

  struct Snapshot {
    uint64_t next_group_cpu = 0;
    std::vector<Entry> group_cpu;  // group -> core
    std::vector<Entry> group_of;   // pid -> group
    void Fields(FieldIo& io) {
      io.U64(next_group_cpu);
      io.List(group_cpu, 0, kMaxCheckpointId, [&](Entry& e) {
        io.U64(e.first);
        io.U64(e.second);
      });
      io.List(group_of, 0, kMaxCheckpointId, [&](Entry& e) {
        io.U64(e.first, 1, kMaxCheckpointId);  // pids are dense, assigned from 1
        io.U64(e.second);
      });
    }
  };

  // Fresh per-CPU shape, shared by Attach and LoadCheckpoint.
  void Reset() {
    queues_.assign(LiveCpus(), {});
    tokens_.clear();
    group_of_.clear();
    group_cpu_.clear();
    next_group_cpu_ = 0;
  }
  // Cross-machine renormalization: cores remap by % live rather than being
  // dropped, so a group keeps *a* stable home on a smaller machine.
  void Commit(const Snapshot& s) {
    const size_t live = queues_.size();
    next_group_cpu_ = static_cast<int>(OntoLive(s.next_group_cpu, live));
    for (const auto& [group, cpu] : s.group_cpu) {
      group_cpu_[group] = static_cast<int>(OntoLive(cpu, live));
    }
    for (const auto& [pid, group] : s.group_of) {
      group_of_[pid] = group;
    }
  }

  void Enqueue(uint64_t pid, Schedulable sched) {
    SpinLockGuard g(lock_);
    queues_[sched.cpu()].push_back(pid);
    tokens_.insert_or_assign(pid, std::move(sched));
  }

  void Remove(uint64_t pid) {
    SpinLockGuard g(lock_);
    RemoveLocked(pid);
    tokens_.erase(pid);
  }

  void RemoveLocked(uint64_t pid) {
    for (auto& q : queues_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == pid) {
          q.erase(it);
          return;
        }
      }
    }
  }

  const int policy_id_;
  const bool use_hints_;
  Rng rng_;
  // mutable: SaveCheckpoint is const but must still serialize readers.
  mutable SpinLock lock_;
  std::vector<std::deque<uint64_t>> queues_;
  std::unordered_map<uint64_t, Schedulable> tokens_;
  std::unordered_map<uint64_t, uint64_t> group_of_;   // pid -> group
  std::unordered_map<uint64_t, int> group_cpu_;       // group -> core
  int next_group_cpu_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_LOCALITY_H_
