// Checkpoints: versioned, checksummed snapshots of a module's accounting
// state, taken at upgrade boundaries and consumed by the recovery ladder
// (probation rollback and supervised restart — see DESIGN.md).
//
// A checkpoint deliberately captures *less* than a live-upgrade
// TransferState: only the module's own accounting (weights, virtual times,
// placement cursors), never queue membership and never Schedulable tokens.
// The runtime's kernel-side bookkeeping is authoritative for those; after a
// restore it re-injects every queued task as a wakeup with a freshly minted
// token, so a checkpoint can never smuggle a stale proof back into a module.
//
// The byte format is little-endian u64 fields, listed once per policy (a
// Snapshot's Fields()) for both SaveCheckpoint and LoadCheckpoint. Every load
// decodes the whole payload before resetting the module and commits only a
// clean decode (DecodeThenCommit), so a truncated or hostile payload is
// refused without UB and leaves the module fresh, not half restored.
//
// Seal() computes an FNV-1a checksum over the payload folded with every
// metadata field (format version, sequence, capture time, saver
// fingerprint); Valid() recomputes it. Folding the metadata means a stale
// generation replayed into a different ring slot — same payload, forged
// sequence — fails Valid() instead of being silently accepted. The runtime
// refuses to hand a checkpoint that fails Valid() to LoadCheckpoint at all —
// corruption is detected, not deserialized.
//
// CheckpointStore keeps a small ring of the K newest sealed generations.
// Restore walks it newest→oldest, dropping generations that fail Valid() or
// that the module refuses to load, so one rotted slot costs a bounded window
// of accounting instead of the whole restore.

#ifndef SRC_ENOKI_CHECKPOINT_H_
#define SRC_ENOKI_CHECKPOINT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/lock.h"

namespace enoki {

// Append-only little-endian serializer for checkpoint payloads.
class ByteWriter {
 public:
  // Writes into `buf` from its start, keeping its capacity: a recycled
  // payload buffer makes a steady-state save allocation-free.
  explicit ByteWriter(std::vector<uint8_t> buf = {}) : buf_(std::move(buf)) { buf_.clear(); }

  void U64(uint64_t v) {
    const size_t at = buf_.size();
    buf_.resize(at + 8);
    for (size_t i = 0; i < 8; ++i) {
      buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked reader. Every read reports success; once a read runs past
// the end the reader is poisoned and all further reads fail, so a truncated
// payload cannot produce partially-garbage values silently.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : b_(&bytes) {}

  bool U64(uint64_t* out) {
    if (overrun_ || b_->size() - pos_ < 8) {
      overrun_ = true;
      return false;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>((*b_)[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }

  bool overrun() const { return overrun_; }
  size_t remaining() const { return overrun_ ? 0 : b_->size() - pos_; }

 private:
  const std::vector<uint8_t>* b_;
  size_t pos_ = 0;
  bool overrun_ = false;
};

// ---- Field-list codec ----
//
// A policy's Snapshot lists its payload once, in wire order, in a member
// `void Fields(FieldIo& io)` built from:
//
//   io.U64(v, lo, hi)              u64 scalar; a load refuses v outside [lo, hi]
//   io.List(items, lo, hi, each)   u64 count in [lo, hi], then each(item)
//   io.Since(version, v, absent)   u64 present from format `version` on; an
//                                  older payload decodes it as `absent`
//   io.Require(cond)               cross-field check; a load refuses on false
//
// The same list encodes (FieldIo over a ByteWriter) and decodes (over a
// ByteReader), so SaveCheckpoint and LoadCheckpoint cannot drift apart.

// Largest pid, and largest entry count of a pid- or group-keyed list, a
// payload may name. Pids are dense and assigned from 1; the bound refuses a
// payload that would force an absurd resize even when its checksum passed
// (e.g. a version-confused writer).
inline constexpr uint64_t kMaxCheckpointId = uint64_t{1} << 24;
// Largest CPU count, or CPU cursor, a payload may name.
inline constexpr uint64_t kMaxCheckpointCpus = 4096;

class FieldIo {
 public:
  FieldIo(ByteWriter* out, uint32_t version) : out_(out), version_(version) {}
  FieldIo(ByteReader* in, uint32_t version) : in_(in), version_(version) {}

  // False once a decode hit a short read, a bound or a failed Require; the
  // remaining fields are then skipped. Encoding never fails.
  bool ok() const { return ok_; }

  void U64(uint64_t& v, uint64_t lo = 0, uint64_t hi = ~uint64_t{0}) {
    if (out_ != nullptr) {
      out_->U64(v);
    } else {
      ok_ = ok_ && in_->U64(&v) && v >= lo && v <= hi;
    }
  }
  // Decoded items start as copies of `blank`. Every item holds at least one
  // u64, so a count the rest of the payload cannot hold is refused before
  // anything is allocated for it.
  template <class T, class Each>
  void List(std::vector<T>& items, uint64_t lo, uint64_t hi, Each each, const T& blank = T()) {
    uint64_t n = items.size();
    U64(n, lo, hi);
    if (in_ != nullptr) {
      ok_ = ok_ && n <= in_->remaining() / sizeof(uint64_t);
      items.assign(ok_ ? n : 0, blank);
    }
    for (size_t i = 0; ok_ && i < items.size(); ++i) {
      each(items[i]);
    }
  }
  void Since(uint32_t version, uint64_t& v, uint64_t absent) {
    if (version_ >= version) {
      U64(v);
    } else {
      v = absent;
    }
  }
  void Require(bool cond) { ok_ = ok_ && (out_ != nullptr || cond); }

 private:
  ByteWriter* out_ = nullptr;
  ByteReader* in_ = nullptr;
  uint32_t version_;
  bool ok_ = true;
};

// Appends `s` at format `version`; returns true for SaveCheckpoint to pass on.
template <class Snapshot>
bool EncodeFields(ByteWriter* out, uint32_t version, Snapshot s) {
  FieldIo io(out, version);
  s.Fields(io);
  return true;
}

// The load path every policy shares, in this order:
//  1. refuse a detached module (no machine shape to renormalize onto) and a
//     version outside [1, CheckpointVersion()] (a policy reads every format
//     it has written; fields added later are gated with io.Since);
//  2. decode the whole payload into a local Snapshot, starting from `proto`;
//  3. take `lock` (null for a module without one) and reset the module to
//     the fresh shape Attach builds;
//  4. commit the snapshot only if the decode succeeded.
// Everything a load can refuse is decided before the module is touched, so
// a refused load leaves it exactly as fresh as a newly attached instance.
template <class Module, class Snapshot>
bool DecodeThenCommit(Module* m, SpinLock* lock, bool attached, uint32_t version, ByteReader* in,
                      void (Module::*reset)(), void (Module::*commit)(const Snapshot&),
                      Snapshot proto = Snapshot()) {
  const bool known = attached && version >= 1 && version <= m->CheckpointVersion();
  FieldIo io(in, version);
  if (known) {
    proto.Fields(io);
  }
  std::optional<SpinLockGuard> guard;
  if (lock != nullptr) {
    guard.emplace(*lock);
  }
  (m->*reset)();
  const bool decoded = known && io.ok();
  if (decoded) {
    (m->*commit)(proto);
  }
  return decoded;
}

// ---- Cross-MachineSpec renormalization ----
//
// A value saved for CPU (or NUMA domain) i of a differently-sized machine
// lands on slot i % live of this one, so a group or cursor keeps *a* stable
// home instead of being dropped. `live` must be nonzero.
inline uint64_t OntoLive(uint64_t i, size_t live) { return i % live; }

// How values that fold onto one live slot combine: keep the smallest, keep
// the largest, or keep the first and drop the rest (a saved slot beyond the
// live count is dropped).
enum class Fold { kMin, kMax, kDrop };

// Folds per-slot values saved on a saved.size()-slot machine onto `live`
// slots. Slots nothing lands on (a grown machine) take `fill`.
template <Fold kFold, class T>
std::vector<T> FoldOntoLive(const std::vector<T>& saved, size_t live, const T& fill) {
  std::vector<T> out(live, fill);
  for (size_t i = 0; live > 0 && i < saved.size(); ++i) {
    T& slot = out[OntoLive(i, live)];
    if (i < live) {
      slot = saved[i];
    } else if constexpr (kFold == Fold::kMin) {
      slot = std::min(slot, saved[i]);
    } else if constexpr (kFold == Fold::kMax) {
      slot = std::max(slot, saved[i]);
    }
  }
  return out;
}

// A sealed snapshot of one module's accounting state.
struct Checkpoint {
  uint32_t state_version = 0;  // the module's CheckpointVersion() at save
  uint64_t sequence = 0;       // runtime-assigned, monotonically increasing
  Time taken_at = 0;           // simulated time of the snapshot
  // VersionFingerprint() of the saving module. Restore skips generations
  // whose fingerprint does not match the module being restored, so a
  // cross-policy ring (older generations from a replaced predecessor) can
  // never feed one policy's payload into another policy's loader. 0 means
  // "unknown" (pre-fingerprint fixtures) and matches anything.
  uint64_t module_fingerprint = 0;
  std::vector<uint8_t> bytes;  // payload written by SaveCheckpoint
  uint64_t checksum = 0;       // FNV-1a over all metadata + length + payload

  // The seal covers sequence, taken_at, and module_fingerprint in addition
  // to the version and payload: replaying a stale generation under forged
  // metadata (a different ring slot, a rewritten capture time) breaks the
  // checksum just like flipping a payload byte does.
  uint64_t Fnv1a() const {
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ull;
    };
    auto mix64 = [&mix](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        mix(static_cast<uint8_t>(v >> (8 * i)));
      }
    };
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<uint8_t>(state_version >> (8 * i)));
    }
    mix64(sequence);
    mix64(static_cast<uint64_t>(taken_at));
    mix64(module_fingerprint);
    mix64(bytes.size());
    for (uint8_t byte : bytes) {
      mix(byte);
    }
    return h;
  }

  void Seal() { checksum = Fnv1a(); }
  bool Valid() const { return checksum == Fnv1a(); }
  size_t size_bytes() const { return bytes.size(); }
};

// A bounded ring of sealed checkpoint generations, newest first. Push
// evicts the oldest generation once `capacity` is reached; the restore walk
// reads (and drops) from the newest end. K is small — eviction is a deque
// pop, and the store is only touched at checkpoint/restore boundaries, never
// on the scheduling hot path.
class CheckpointStore {
 public:
  static constexpr size_t kDefaultCapacity = 4;

  explicit CheckpointStore(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }

  // Resizing below the current population evicts the oldest generations.
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    while (ring_.size() > capacity_) {
      ring_.pop_front();
      ++evicted_;
    }
  }

  bool empty() const { return ring_.empty(); }
  size_t size() const { return ring_.size(); }
  uint64_t pushed() const { return pushed_; }
  uint64_t evicted() const { return evicted_; }

  // Appends a new newest generation, evicting the oldest at capacity. The
  // evicted payload buffer is kept for the next save (TakeSpareBytes).
  void Push(Checkpoint ck) {
    if (ring_.size() == capacity_) {
      spare_bytes_ = std::move(ring_.front().bytes);
      ring_.pop_front();
      ++evicted_;
    }
    ring_.push_back(std::move(ck));
    ++pushed_;
  }

  // i = 0 is the newest generation, i = size()-1 the oldest.
  const Checkpoint& FromNewest(size_t i) const { return ring_[ring_.size() - 1 - i]; }
  // Mutable access for fault injection (ring-slot bit-rot) and fixtures.
  Checkpoint* MutableFromNewest(size_t i) { return &ring_[ring_.size() - 1 - i]; }

  const Checkpoint* newest() const { return ring_.empty() ? nullptr : &ring_.back(); }

  // The restore walk discards a generation it rejected (bad checksum, load
  // refusal) so it is never offered twice.
  void DropNewest() {
    if (!ring_.empty()) {
      ring_.pop_back();
    }
  }

  void Clear() { ring_.clear(); }

  // The last evicted generation's payload buffer (empty if none), for a
  // ByteWriter to reuse.
  std::vector<uint8_t> TakeSpareBytes() { return std::exchange(spare_bytes_, {}); }

 private:
  size_t capacity_;
  std::deque<Checkpoint> ring_;
  std::vector<uint8_t> spare_bytes_;
  uint64_t pushed_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace enoki

#endif  // SRC_ENOKI_CHECKPOINT_H_
