// ShardedEventLoop: conservative parallel discrete-event engine with a
// deterministic cross-shard merge.
//
// One simulation run is split into K shards, each owning a private EventLoop
// (timing wheel + slab pool) and, by convention, one NUMA-node group of the
// simulated machine (see MachineSpec::ShardSpec). Shards execute epochs in
// parallel on up to T host threads; cross-shard interactions (wakeup on a
// remote node, steal, IPI-like pulses) go through bounded per-shard outboxes
// and are committed between epochs by a single deterministic merge rule. The
// headline property is determinism-by-construction:
//
//   ENOKI_SHARD_THREADS=1..T produces byte-identical runs.
//
// Epoch protocol (conservative PDES with lookahead = epoch_ns):
//
//   1. All shards run independently to a shared horizon H' = H + epoch_ns.
//      Within the window each shard is strictly single-threaded and
//      deterministic on its own loop.
//   2. Cross-shard messages carry latency >= epoch_ns, so a message sent at
//      t in [H, H'] delivers at t + latency >= H + epoch_ns >= H' — never
//      inside the window that produced it. Shards therefore cannot observe
//      each other mid-epoch, and the parallel execution is race-free by
//      construction (each loop is touched by exactly one thread per epoch;
//      the epoch barrier orders the hand-off).
//   3. At the barrier, all outboxes are drained and committed in sorted
//      (deliver_time, src_shard, src_seq) order. The sort key is a total
//      order independent of which thread ran which shard when, so the
//      insertion sequence numbers the destination loops assign — and hence
//      all downstream tie-breaking — are identical for every T.
//
// When every shard is quiet the horizon leaps directly to the global next
// event time (minus one window) instead of stepping epoch-by-epoch; this is
// safe because no event exists in the skipped span, and it makes idle
// stretches free.
//
// Epoch control: a deterministic EpochController sets the *effective* window
// between epochs, from committed simulation state only — cross-shard message
// rate, idle-leap frequency, and event density over a sliding window of
// epochs. Wider windows amortize the barrier over more events; narrower
// windows protect the bounded outboxes under cross-shard pressure. The window
// moves within [floor, ceiling]: the floor is Options::min_epoch_ns, the
// ceiling the minimum cross-shard latency registered via RegisterCrossLatency
// — the clamp that keeps the lookahead argument intact. Both default to
// epoch_ns, and floor == ceiling == epoch_ns is what static epochs are: the
// controller runs but can never move the window. All controller inputs are
// byte-identical across host thread counts, so the window schedule — and
// therefore the run — still is too.
//
// With K=1 the engine degrades to a zero-overhead forwarder around the plain
// EventLoop — benchmarks comparing "sharded vs unsharded" compare against
// the true single-threaded hot path.

#ifndef SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_
#define SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/base/check.h"
#include "src/base/profile.h"
#include "src/base/time.h"
#include "src/simkernel/event_loop.h"

namespace enoki {

// Deterministic per-epoch window controller. Fed one sample per *committed*
// epoch; every kPeriod samples it makes one decision:
//
//         ┌─────────────────────────────────────────────────┐
//         │                   HOLD (start)                  │
//         └─────────────────────────────────────────────────┘
//    msgs/epoch ≥ slots/4 │        │ leaps ≥ kPeriod/2 │ dense & headroom
//            ▼            │        ▼                   ▼
//         NARROW (w /= 2) │      HOLD          WIDEN (w *= 2)
//
//  1. NARROW when committed cross-shard messages per epoch approach the
//     per-epoch outbox bound (≥ slots/4): halve the window (clamped to
//     `floor`) so one epoch's traffic cannot overflow an outbox — overflow
//     is a checked error, so pressure must be relieved before the cliff.
//  2. HOLD when idle-leap epochs dominate the window (≥ half): the engine is
//     leaping over idle spans, so window width is already irrelevant and
//     drifting it would only add noise.
//  3. WIDEN when the epochs are dense (events/epoch ≥ kWidenDensity) and
//     cross traffic has ample headroom (msgs/epoch ≤ slots/8): double the
//     window (clamped to `ceiling`) to amortize the barrier over more events.
//
// Every input is a pure function of the simulation (committed counts), never
// of host timing, so decision sequences are identical for any thread count.
// The ceiling is the lookahead clamp: callers must set it no higher than the
// minimum registered cross-shard latency.
class EpochController {
 public:
  static constexpr uint64_t kPeriod = 8;         // epochs per decision
  static constexpr uint64_t kWidenDensity = 16;  // events/epoch needed to WIDEN

  struct Config {
    Duration floor = 0;
    Duration ceiling = 0;
    size_t mailbox_slots = 4096;  // NARROW threshold base
  };

  explicit EpochController(Config cfg) : cfg_(cfg) {
    ENOKI_CHECK(cfg.floor > 0 && cfg.ceiling >= cfg.floor);
  }

  // Records one committed epoch and returns the window for the next one.
  Duration OnEpoch(Duration window, uint64_t committed_msgs, uint64_t events, bool leapt) {
    msgs_ += committed_msgs;
    events_ += events;
    leaps_ += leapt ? 1 : 0;
    if (++samples_ < kPeriod) {
      return Clamp(window);
    }
    const uint64_t avg_msgs = msgs_ / kPeriod;
    const uint64_t avg_events = events_ / kPeriod;
    const bool leap_dominated = leaps_ * 2 >= kPeriod;
    msgs_ = events_ = leaps_ = 0;
    samples_ = 0;
    if (avg_msgs * 4 >= cfg_.mailbox_slots) {
      const Duration w = Clamp(window / 2);
      narrows_ += (w != window) ? 1 : 0;
      return w;
    }
    if (leap_dominated) {
      return Clamp(window);
    }
    if (avg_events >= kWidenDensity && avg_msgs * 8 <= cfg_.mailbox_slots) {
      const Duration w = Clamp(window * 2);
      widens_ += (w != window) ? 1 : 0;
      return w;
    }
    return Clamp(window);
  }

  uint64_t widens() const { return widens_; }
  uint64_t narrows() const { return narrows_; }

 private:
  Duration Clamp(Duration w) const { return std::clamp(w, cfg_.floor, cfg_.ceiling); }

  const Config cfg_;
  uint64_t msgs_ = 0;
  uint64_t events_ = 0;
  uint64_t leaps_ = 0;
  uint64_t samples_ = 0;
  uint64_t widens_ = 0;
  uint64_t narrows_ = 0;
};

class ShardedEventLoop {
 public:
  struct Options {
    int nshards = 1;
    // Lookahead: initial epoch width and the minimum cross-shard latency.
    // 20 us is several times the simulated IPI + idle-exit cost, so remote
    // wakeups modelled through PostCross stay physically plausible.
    Duration epoch_ns = 20'000;
    // Host threads. 0 = take ENOKI_SHARD_THREADS from the environment
    // (default 1). Clamped to [1, nshards]. Thread count never affects
    // simulation output, only wall-clock.
    int threads = 0;
    // Cross-shard messages one shard may send per epoch, and the base of the
    // controller's NARROW threshold. Exceeding it is a checked error, not a
    // drop — dropping would make output depend on timing.
    size_t mailbox_slots = 4096;
    // Floor the epoch controller may narrow the window to. 0 = epoch_ns: the
    // window never narrows. (The ceiling is the smallest latency passed to
    // RegisterCrossLatency; with none registered the window never widens.)
    Duration min_epoch_ns = 0;
  };

  explicit ShardedEventLoop(Options opts) : opts_(opts), window_(opts.epoch_ns) {
    ENOKI_CHECK(opts.nshards >= 1);
    ENOKI_CHECK(opts.epoch_ns > 0);
    ENOKI_CHECK(opts.min_epoch_ns <= opts.epoch_ns);
    threads_ = ResolveThreads(opts.threads, opts.nshards);
    shards_.reserve(static_cast<size_t>(opts.nshards));
    for (int i = 0; i < opts.nshards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    // Workers own a static shard partition (worker j runs shards with
    // index % threads == j+1; the calling thread runs index % threads == 0).
    // Static partitioning keeps the barrier logic minimal and is fair when
    // shards are symmetric, which NUMA-node shards are.
    for (int j = 1; j < threads_; ++j) {
      workers_.emplace_back([this, j] { WorkerMain(j); });
    }
  }

  ~ShardedEventLoop() {
    stop_.store(true, std::memory_order_release);
    epoch_gen_.fetch_add(1, std::memory_order_release);  // wake waiters
    for (auto& w : workers_) {
      w.join();
    }
  }

  ShardedEventLoop(const ShardedEventLoop&) = delete;
  ShardedEventLoop& operator=(const ShardedEventLoop&) = delete;

  int nshards() const { return opts_.nshards; }
  int threads() const { return threads_; }
  Duration epoch_ns() const { return opts_.epoch_ns; }
  // Current effective window (== epoch_ns until the controller moves it).
  Duration window_ns() const { return window_; }
  EventLoop& shard(int i) { return shards_[static_cast<size_t>(i)]->loop; }

  // Committed horizon: no shard has unexecuted events at or before this time.
  Time now() const { return now_; }

  // Declares that every future PostCross through this engine carries at
  // least `latency`. Must be called before the first epoch runs. The
  // controller may then widen the window up to the smallest registered
  // latency — the clamp that keeps the lookahead argument (no message lands
  // inside the window that sent it) intact. Without a registration the
  // window stays at or below epoch_ns.
  void RegisterCrossLatency(Duration latency) {
    ENOKI_CHECK_MSG(prof_.epochs == 0, "RegisterCrossLatency after the engine started");
    ENOKI_CHECK_MSG(latency >= opts_.epoch_ns,
                    "registered cross-shard latency below the base epoch window");
    min_cross_latency_ = std::min(min_cross_latency_, latency);
  }

  // Barrier/merge/controller counters. Count-type fields are deterministic
  // across hosts and thread counts; *_ns fields are wall-clock.
  ShardProfile profile() const {
    ShardProfile p = prof_;
    if (controller_) {
      p.widens = controller_->widens();
      p.narrows = controller_->narrows();
    }
    return p;
  }

  // Sum of the per-shard wheel profiles (cascades, slab growth, ...).
  WheelProfile WheelProfileSum() const {
    WheelProfile sum;
    for (const auto& sh : shards_) {
      sum.MergeFrom(sh->loop.wheel_profile());
    }
    return sum;
  }

  // Sends work across a shard boundary: `fn` runs on shard `dst`'s loop at
  // (send time + latency). Must be called from shard `src`'s execution
  // context (its callbacks), which is single-threaded per epoch. Cross-shard
  // latency must be >= the window ceiling — that inequality is the entire
  // correctness argument for running shards in parallel. Same-shard posts
  // have no floor and schedule directly.
  //
  // Consecutive sends with the same deliver time share one outbox header,
  // expanded at commit (prof batched_msgs counts the riders); the committed
  // order is the per-message one either way (see CommitMailboxes).
  void PostCross(int src, int dst, Duration latency, std::function<void()> fn) {
    ENOKI_CHECK(src >= 0 && src < opts_.nshards && dst >= 0 && dst < opts_.nshards);
    Shard& s = *shards_[static_cast<size_t>(src)];
    if (dst == src) {
      s.loop.ScheduleAfter(latency, std::move(fn));
      return;
    }
    ENOKI_CHECK_MSG(latency >= Ceiling(),
                    "cross-shard latency below the epoch lookahead bound "
                    "(register the smallest latency in use)");
    const Time deliver_at = s.loop.now() + latency;
    const uint64_t seq = ++s.out_seq;
    ENOKI_CHECK_MSG(s.subs.size() < opts_.mailbox_slots,
                    "shard outbox overflow (bounded mailbox)");
    s.subs.push_back(CrossSub{dst, std::move(fn)});
    // A message with the same deliver time as the last batch rides it — its
    // seq is the next in the batch's contiguous run by construction (out_seq
    // increments once per send, and the batch has absorbed every send since
    // it opened).
    if (!s.outbox.empty() && s.outbox.back().deliver_at == deliver_at) {
      ++s.outbox.back().count;
      return;
    }
    s.outbox.push_back(
        CrossMsg{deliver_at, src, seq, static_cast<uint32_t>(s.subs.size() - 1), 1});
  }

  // Runs all events with time <= deadline; on return now() == deadline.
  void RunUntil(Time deadline) {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntil(deadline);
      now_ = deadline;
      return;
    }
    while (now_ < deadline) {
      const Time gmin = GlobalNextTime();
      if (gmin > deadline) {
        break;
      }
      bool leapt = false;
      const Time target = EpochTarget(gmin, deadline, &leapt);
      RunEpoch(target, leapt);
    }
    if (now_ < deadline) {
      // No events in (now_, deadline]: just advance every clock.
      for (auto& sh : shards_) {
        sh->loop.RunUntil(deadline);
      }
      now_ = deadline;
    }
  }

  void RunUntilIdle() {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntilIdle();
      now_ = shards_[0]->loop.now();
      return;
    }
    for (;;) {
      const Time gmin = GlobalNextTime();
      if (gmin == kTimeMax) {
        return;
      }
      bool leapt = false;
      const Time target = EpochTarget(gmin, kTimeMax, &leapt);
      RunEpoch(target, leapt);
    }
  }

  bool HasWork() const {
    for (const auto& sh : shards_) {
      if (sh->loop.HasWork()) {
        return true;
      }
    }
    return false;
  }

  uint64_t events_executed() const {
    uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->loop.events_executed();
    }
    return n;
  }

  uint64_t cross_messages() const { return prof_.commit_msgs; }
  uint64_t epochs() const { return prof_.epochs; }

  // FNV-1a digest of the committed merge order: every cross-shard message's
  // (deliver_time, src, dst, seq) in commit order. Identical across thread
  // counts by construction; the determinism tests assert exactly that.
  uint64_t MergeFingerprint() const { return merge_hash_; }

  // Observer invoked for each committed cross-shard message in commit order;
  // used to record the merge sequence into an Enoki trace (see
  // AttachShardMergeRecorder in enoki/runtime.h).
  using MergeObserver = std::function<void(Time deliver_at, int src, int dst, uint64_t seq)>;
  void set_merge_observer(MergeObserver obs) { merge_observer_ = std::move(obs); }

  static int ResolveThreads(int requested, int nshards) {
    int t = requested;
    if (t <= 0) {
      const char* env = std::getenv("ENOKI_SHARD_THREADS");
      t = (env != nullptr) ? std::atoi(env) : 1;
    }
    return std::clamp(t, 1, nshards);
  }

 private:
  // One sub-message of a batch: destination shard + closure. Stored in the
  // sending shard's `subs` side vector; batch headers reference contiguous
  // runs of it by index.
  struct CrossSub {
    int dst = 0;
    std::function<void()> fn;
  };

  // Batch header in a shard's outbox: `count` sub-messages sharing one
  // (deliver_at, src), with contiguous seqs starting at first_seq and
  // payloads at subs[sub_base .. sub_base+count).
  struct CrossMsg {
    Time deliver_at = 0;
    int src = 0;
    uint64_t first_seq = 0;
    uint32_t sub_base = 0;
    uint32_t count = 0;
  };

  struct Shard {
    EventLoop loop;
    // This epoch's batch headers, in send order, and their (dst, fn)
    // payloads. Written by the shard's epoch thread, read and cleared by the
    // barrier thread at commit — the epoch barrier's acquire/release pair
    // orders both directions. Every header owns at least one sub, so the
    // subs.size() < mailbox_slots check in PostCross bounds both.
    std::vector<CrossMsg> outbox;
    std::vector<CrossSub> subs;
    uint64_t out_seq = 0;
  };

  // Earliest pending event time across all shards. Mailboxes are always
  // empty here (drained at every barrier), so shard loops are the whole
  // picture.
  Time GlobalNextTime() {
    Time t = kTimeMax;
    for (auto& sh : shards_) {
      t = std::min(t, sh->loop.PeekTime());
    }
    return t;
  }

  // Upper bound the effective window may ever reach — the lookahead clamp
  // PostCross latencies are checked against: the smallest registered
  // cross-shard latency (never below epoch_ns), or epoch_ns with nothing
  // registered.
  Duration Ceiling() const {
    return min_cross_latency_ == kTimeMax ? opts_.epoch_ns : min_cross_latency_;
  }

  // Next horizon. The window must be at most window_ wide so the lookahead
  // argument holds; when the next event is beyond one window the start leaps
  // to (gmin - window_), which is safe because the skipped span is empty.
  // Sets *leapt when the start leapt an idle span (a controller input).
  Time EpochTarget(Time gmin, Time deadline, bool* leapt) const {
    Time start = now_;
    *leapt = false;
    if (gmin > window_ && gmin - window_ > start) {
      start = gmin - window_;
      *leapt = true;
    }
    return std::min(start + window_, deadline);
  }

  // With one thread there are no workers: the calling thread runs every
  // shard, in index order, and the barrier wait falls through.
  void RunEpoch(Time target, bool leapt) {
    ++prof_.epochs;
    prof_.idle_leaps += leapt ? 1 : 0;
    const uint64_t events_before = events_executed();
    target_ = target;
    // Release on the generation bump publishes target_ (and all prior shard
    // state) to workers; their acquire load pairs with it.
    epoch_gen_.fetch_add(1, std::memory_order_release);
    RunOwnedShards(/*worker=*/0, target);
    {
      // Workers' release increments of done_workers_ pair with this acquire
      // loop: once observed, all their shard mutations and outbox writes
      // happen-before the merge below.
      ProfTimer wait_timer(&prof_.barrier_ns);
      while (done_workers_.load(std::memory_order_acquire) < threads_ - 1) {
        std::this_thread::yield();
      }
      done_workers_.store(0, std::memory_order_relaxed);
    }
    const uint64_t committed = CommitMailboxes(target);
    now_ = target;
    if (!controller_) {
      // Built at the first epoch: registrations are closed from here on.
      const Duration floor = opts_.min_epoch_ns > 0 ? opts_.min_epoch_ns : opts_.epoch_ns;
      controller_.emplace(EpochController::Config{floor, Ceiling(), opts_.mailbox_slots});
    }
    // Committed counts only: identical for every host thread count, so the
    // window schedule (and the run) stays byte-identical too.
    window_ = controller_->OnEpoch(window_, committed, events_executed() - events_before, leapt);
  }

  void RunOwnedShards(int worker, Time target) {
    for (int i = worker; i < opts_.nshards; i += threads_) {
      shards_[static_cast<size_t>(i)]->loop.RunUntil(target);
    }
  }

  void WorkerMain(int worker) {
    uint64_t seen = 0;
    for (;;) {
      const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      if (gen == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = gen;
      RunOwnedShards(worker, target_);
      done_workers_.fetch_add(1, std::memory_order_release);
    }
  }

  // Drains every outbox and commits the messages in (deliver_at, src, seq)
  // order — a total order (seq is unique per src) that does not depend on
  // which thread ran which shard, so destination-loop insertion sequence
  // numbers are reproducible for any thread count.
  //
  // Batching preserves that order exactly: headers sort by
  // (deliver_at, src, first_seq) and each expands to its contiguous seq run
  // first_seq .. first_seq+count-1 at a single (deliver_at, src). Any two
  // batches either differ in (deliver_at, src) — ordered the same as every
  // message they contain — or share it, in which case their seq runs are
  // disjoint and the earlier first_seq's entire run precedes the later's
  // (seqs are assigned monotonically per src). Expansion therefore emits the
  // identical sequence a per-message sort would, and the fingerprint mixes
  // each (deliver_at, src, dst, seq) individually — byte-for-byte the digest
  // of one entry per message.
  uint64_t CommitMailboxes(Time target) {
    ProfTimer commit_timer(&prof_.commit_ns);
    scratch_.clear();
    for (auto& sh : shards_) {
      scratch_.insert(scratch_.end(), sh->outbox.begin(), sh->outbox.end());
      sh->outbox.clear();
    }
    if (scratch_.empty()) {
      return 0;
    }
    std::sort(scratch_.begin(), scratch_.end(), [](const CrossMsg& a, const CrossMsg& b) {
      if (a.deliver_at != b.deliver_at) {
        return a.deliver_at < b.deliver_at;
      }
      if (a.src != b.src) {
        return a.src < b.src;
      }
      return a.first_seq < b.first_seq;
    });
    uint64_t committed = 0;
    for (const CrossMsg& m : scratch_) {
      // Lookahead held: the message cannot land inside the epoch that sent it.
      ENOKI_CHECK(m.deliver_at >= target);
      Shard& src_shard = *shards_[static_cast<size_t>(m.src)];
      prof_.batched_msgs += m.count - 1;
      for (uint32_t i = 0; i < m.count; ++i) {
        CrossSub& sub = src_shard.subs[m.sub_base + i];
        const uint64_t seq = m.first_seq + i;
        merge_hash_ = MixMerge(merge_hash_, m.deliver_at, m.src, sub.dst, seq);
        if (merge_observer_) {
          merge_observer_(m.deliver_at, m.src, sub.dst, seq);
        }
        shards_[static_cast<size_t>(sub.dst)]->loop.ScheduleAt(m.deliver_at,
                                                               std::move(sub.fn));
        ++committed;
      }
    }
    for (auto& sh : shards_) {
      sh->subs.clear();
    }
    prof_.commit_msgs += committed;
    return committed;
  }

  static uint64_t MixMerge(uint64_t h, Time deliver_at, int src, int dst, uint64_t seq) {
    auto mix = [](uint64_t acc, uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        acc ^= (v >> (i * 8)) & 0xff;
        acc *= 1099511628211ull;
      }
      return acc;
    };
    h = mix(h, deliver_at);
    h = mix(h, static_cast<uint64_t>(src));
    h = mix(h, static_cast<uint64_t>(dst));
    h = mix(h, seq);
    return h;
  }

  const Options opts_;
  int threads_ = 1;
  Time now_ = 0;
  uint64_t merge_hash_ = 14695981039346656037ull;
  Duration window_;  // effective epoch width (moved by the controller)
  Duration min_cross_latency_ = kTimeMax;  // smallest RegisterCrossLatency
  std::optional<EpochController> controller_;  // built at the first epoch
  ShardProfile prof_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<CrossMsg> scratch_;  // reused merge buffer
  MergeObserver merge_observer_;

  // Epoch barrier state. target_ is plain: it is published by the release
  // bump of epoch_gen_ and read only after the paired acquire.
  Time target_ = 0;
  std::atomic<uint64_t> epoch_gen_{0};
  std::atomic<int> done_workers_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_
