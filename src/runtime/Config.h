//===- runtime/Config.h - Machine and global configurations ----------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global and per-machine configurations of the operational semantics
/// (Section 3.1). A machine configuration is the paper's (σ, s, stmt, q):
///
///   σ    — Frames: a call stack of (state, inherited-handler map) pairs;
///   s    — Vars plus the special Msg/Arg registers;
///   stmt — Exec: a stack of resumable bytecode frames, together with the
///          pending raise (the dynamic `raise` of Figure 5) and the
///          pending transfer (the inserted Exit(m,n); continuations);
///   q    — Queue: the FIFO input buffer with ⊎-unique entries.
///
/// Machine configurations are held behind copy-on-write snapshots
/// (CowMachine): copying a Config is O(#machines) pointer bumps, and a
/// machine's state is cloned only when someone is about to mutate it
/// (CowMachine::mut — the checker's successor generation touches one
/// machine per slice, so successor cost is proportional to what
/// changed, not to the whole system). Each snapshot also carries a
/// cached 64-bit fingerprint slot that mut() invalidates, which is what
/// makes the checker's incremental state hashing safe. The fingerprint
/// is streamed from the machine's fields, with no bytes built; the
/// canonical serialization is the oracle it is tested against (see
/// checker/StateHash.h).
///
//===----------------------------------------------------------------------===//

#ifndef P_RUNTIME_CONFIG_H
#define P_RUNTIME_CONFIG_H

#include "runtime/Errors.h"
#include "runtime/Value.h"
#include "support/RefCount.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace p {

/// What kind of body a bytecode frame is executing.
enum class FrameKind : uint8_t {
  Entry,  ///< A state's entry statement.
  Exit,   ///< A state's exit statement.
  Action, ///< An action body.
  Model,  ///< A foreign function's model body.
};

/// One resumable bytecode activation.
struct ExecFrame {
  int32_t Body = -1;
  int32_t PC = 0;
  FrameKind Kind = FrameKind::Entry;
  std::vector<Value> Operands;
  std::vector<Value> Params; ///< Model frames: the call arguments.
  Value Result;              ///< Model frames: the `result` register.

  bool operator==(const ExecFrame &O) const = default;
};

/// Inherited-handler map entries (the `a` component of the semantics):
/// InheritNone is ⊥ ("no handler"), InheritDeferred is ⊤ ("deferred"),
/// values >= 0 are action ids.
inline constexpr int32_t InheritNone = -2;
inline constexpr int32_t InheritDeferred = -1;

/// One (state, inherited map) pair on the machine's call stack, plus the
/// saved continuation when the frame was pushed by a `call S;` statement.
struct StateFrame {
  int32_t State = -1;
  std::vector<int32_t> Inherit;     ///< Indexed by event id.
  std::vector<ExecFrame> SavedCont; ///< Resumed when this frame returns.

  bool operator==(const StateFrame &O) const = default;
};

/// A deferred state change that must wait for the exit statement to run
/// (the `Exit(m,n); ...` insertions of Figure 5).
enum class TransferKind : uint8_t {
  None,
  Step,      ///< Replace the top state with Target and run its entry.
  PopRaise,  ///< POP1: pop the frame, keep propagating the raised event.
  PopReturn, ///< POP2: pop the frame, resume its saved continuation.
};

/// The machine configuration (σ, s, stmt, q).
struct MachineState {
  int32_t MachineIndex = -1;
  bool Alive = false;
  /// Fault model: the machine was crashed (by an explored crash fault
  /// or Host::crashMachine) rather than deleted by its own `delete`.
  /// Crashed implies !Alive; unlike deletion, sends to a crashed
  /// machine are silently dropped instead of erroring, and the host can
  /// restart it. Always false when no fault layer is active.
  bool Crashed = false;

  std::vector<StateFrame> Frames; ///< σ; back() is the top of the stack.
  std::vector<ExecFrame> Exec;    ///< Remaining statement; back() runs.
  std::vector<Value> Vars;
  Value Msg; ///< Last raised/dequeued event (an Event value or ⊥).
  Value Arg; ///< Its payload.

  /// The pending dynamic raise of Figure 5 (raise-bar).
  bool HasRaise = false;
  int32_t RaiseEvent = -1;
  Value RaiseArg;

  /// Pending transfer applied once Exec drains (after the exit body).
  TransferKind Transfer = TransferKind::None;
  int32_t TransferTarget = -1;

  /// The FIFO input buffer q; entries are unique under ⊎.
  std::vector<std::pair<int32_t, Value>> Queue;

  /// Set by the model checker to resume past a Nondet choice point.
  std::optional<bool> InjectedChoice;

  /// Set by the model checker to resume past a foreign-call fault point
  /// (Executor::Options::ForeignFaultPoints): true fails the call (it
  /// returns ⊥), false executes it normally. Unset in every
  /// configuration explored without fault injection.
  std::optional<bool> InjectedForeignFail;

  bool operator==(const MachineState &O) const = default;
};

/// Copy-on-write handle to a MachineState. Copies share one immutable
/// snapshot; `mut()` is the single "about to mutate machine i" hook:
/// it clones the snapshot when it is shared and invalidates the cached
/// fingerprint either way. Reads go through `operator*`/`operator->`
/// and never clone.
///
/// The snapshot carries its own reference count (one allocation, no
/// control block; see support/RefCount.h for the memory orders). `mut()`
/// writes in place only when RefCount::unique() says no other holder
/// is left. A serial search copies Configs several times per node, so
/// the count takes no locked instruction until a second thread starts.
///
/// Thread-safety: a snapshot shared between configurations owned by
/// different checker workers is never mutated (mut() unshares first),
/// and the fingerprint cache slot is atomic, so concurrent fingerprint
/// computation is a benign same-value race. `mut()` itself must only be
/// called by the thread that owns the enclosing Config.
class CowMachine {
public:
  CowMachine() : Snap(new Snapshot()) {}
  explicit CowMachine(MachineState S) : Snap(new Snapshot(std::move(S))) {}
  CowMachine(const CowMachine &O) : Snap(O.Snap) { Snap->Count.retain(); }
  CowMachine(CowMachine &&O) noexcept : Snap(O.Snap) { O.Snap = nullptr; }
  CowMachine &operator=(CowMachine O) noexcept {
    std::swap(Snap, O.Snap);
    return *this;
  }
  ~CowMachine() { release(); }

  const MachineState &operator*() const { return Snap->S; }
  const MachineState *operator->() const { return &Snap->S; }

  /// Clone-before-mutate: unshares the snapshot if any other Config
  /// still points at it, and invalidates the cached fingerprint.
  MachineState &mut() {
    if (!Snap->Count.unique()) {
      Snapshot *Clone = new Snapshot(Snap->S); // caches not copied
      release();
      Snap = Clone;
    } else {
      Snap->Fp.store(0, std::memory_order_relaxed);
      Snap->Refs.store(0, std::memory_order_relaxed);
    }
    return Snap->S;
  }

  /// Cached 64-bit fingerprint of the snapshot; 0 = not computed.
  /// Valid fingerprints are never 0 (the hasher remaps 0 — see
  /// checker/StateHash.cpp), so one sentinel suffices.
  uint64_t cachedFingerprint() const {
    return Snap->Fp.load(std::memory_order_acquire);
  }
  void cacheFingerprint(uint64_t F) const {
    Snap->Fp.store(F, std::memory_order_release);
  }

  /// Cached mask of machine ids this snapshot's state references (see
  /// checker/StateHash.h machineRefsMask); 0 = not computed (computed
  /// masks always carry the marker bit). Used by the symmetry reduction
  /// to reuse cached fingerprints for machines untouched by a candidate
  /// permutation. Same benign-race discipline as the fingerprint slot.
  uint64_t cachedRefsMask() const {
    return Snap->Refs.load(std::memory_order_acquire);
  }
  void cacheRefsMask(uint64_t R) const {
    Snap->Refs.store(R, std::memory_order_release);
  }

  /// True when both handles share one physical snapshot (used by the
  /// checker's shared-representation memory accounting).
  bool sharesSnapshotWith(const CowMachine &O) const {
    return Snap == O.Snap;
  }
  /// Stable identity of the underlying snapshot allocation.
  const void *snapshotKey() const { return Snap; }
  /// Heap bytes owned by this snapshot (counted once across sharers).
  uint64_t snapshotBytes() const;

  bool operator==(const CowMachine &O) const {
    return Snap == O.Snap || Snap->S == O.Snap->S;
  }

private:
  struct Snapshot {
    Snapshot() = default;
    explicit Snapshot(MachineState S) : S(std::move(S)) {}
    /// Clones the state but not the fingerprint cache: the clone is
    /// only made on the way to a mutation.
    Snapshot(const Snapshot &O) : S(O.S) {}
    Snapshot &operator=(const Snapshot &) = delete;

    /// Handles sharing this snapshot. First, so mut()'s check shares a
    /// cache line with the start of the state it hands out.
    RefCount Count;
    MachineState S;
    mutable std::atomic<uint64_t> Fp{0};
    mutable std::atomic<uint64_t> Refs{0};
  };

  /// Drops this handle's reference; the last one deletes the snapshot.
  void release() {
    if (Snap && Snap->Count.release())
      delete Snap;
  }

  Snapshot *Snap;
};

inline uint64_t CowMachine::snapshotBytes() const {
  // Estimated heap footprint of one snapshot, for shared-representation
  // memory accounting (a snapshot shared by many configs is counted
  // once, keyed by snapshotKey()).
  auto ExecBytes = [](const ExecFrame &F) {
    return (F.Operands.capacity() + F.Params.capacity()) * sizeof(Value);
  };
  const MachineState &S = Snap->S;
  uint64_t B = sizeof(Snapshot);
  B += S.Frames.capacity() * sizeof(StateFrame);
  for (const StateFrame &F : S.Frames) {
    B += F.Inherit.capacity() * sizeof(int32_t);
    B += F.SavedCont.capacity() * sizeof(ExecFrame);
    for (const ExecFrame &E : F.SavedCont)
      B += ExecBytes(E);
  }
  B += S.Exec.capacity() * sizeof(ExecFrame);
  for (const ExecFrame &E : S.Exec)
    B += ExecBytes(E);
  B += S.Vars.capacity() * sizeof(Value);
  B += S.Queue.capacity() * sizeof(std::pair<int32_t, Value>);
  return B;
}

/// What a send does when the receiving queue is at Config::MaxQueue.
enum class OverflowPolicy : uint8_t {
  /// Raise ErrorKind::QueueOverflow (the verification default: prove
  /// the program respects the bound).
  Error,
  /// Discard the new event and count it in Config::OverflowDropped
  /// (lossy degradation; the drop is traced as QueueOverflow).
  DropNewest,
  /// Back-pressure: Host::addEvent blocks the producing thread until
  /// space frees up or the target dies. Only the host boundary can
  /// block — machine-to-machine sends under this policy behave like
  /// Error (a machine cannot wait mid-slice; see DESIGN.md).
  Block,
};

/// A global configuration M plus the error flag of Figure 6.
struct Config {
  /// Machine id == index. Each entry is a copy-on-write handle: copying
  /// a Config shares every snapshot; mutate through
  /// `Machines[Id].mut()` (or the mutableMachine helper) only.
  std::vector<CowMachine> Machines;

  /// The error flag of Figure 6. Plain field so Config stays trivially
  /// copyable state, but cross-thread access (reactor workers polling
  /// while another raises) goes through errorKind()/storeErrorKind()
  /// below, which wrap it in a std::atomic_ref. Single-threaded code may
  /// keep reading/writing it directly.
  ErrorKind Error = ErrorKind::None;
  std::string ErrorMessage;
  int32_t ErrorMachine = -1;

  /// Per-machine queue capacity; 0 = unbounded (the semantics of the
  /// paper). Constant over a run — set before execution starts — so it
  /// is not part of the serialized state.
  uint32_t MaxQueue = 0;
  OverflowPolicy Overflow = OverflowPolicy::Error;
  /// Events discarded by OverflowPolicy::DropNewest. Diagnostic only:
  /// excluded from serialization/equality, exported as a host metric.
  uint64_t OverflowDropped = 0;

  /// Error flag accessors, safe under the reactor host's concurrency:
  /// the release store in storeErrorKind pairs with the acquire load
  /// here, so a reader that observes the flag also observes
  /// ErrorMessage/ErrorMachine (written before the store, serialized by
  /// Executor's error mutex when one is installed).
  ErrorKind errorKind() const {
    return std::atomic_ref<ErrorKind>(const_cast<ErrorKind &>(Error))
        .load(std::memory_order_acquire);
  }
  void storeErrorKind(ErrorKind Kind) {
    std::atomic_ref<ErrorKind>(Error).store(Kind,
                                            std::memory_order_release);
  }
  /// Atomic increment for OverflowDropped (DropNewest shedding can
  /// happen on several reactor workers at once).
  void countOverflowDrop() {
    std::atomic_ref<uint64_t>(OverflowDropped)
        .fetch_add(1, std::memory_order_relaxed);
  }

  bool hasError() const { return errorKind() != ErrorKind::None; }

  /// True when the id denotes a live machine.
  bool isLive(int32_t Id) const {
    return Id >= 0 && Id < static_cast<int32_t>(Machines.size()) &&
           Machines[Id]->Alive;
  }

  /// Read-only view of machine \p Id.
  const MachineState &machine(int32_t Id) const { return *Machines[Id]; }
  /// The "about to mutate machine Id" hook: unshares the snapshot and
  /// invalidates its cached fingerprint.
  MachineState &mutableMachine(int32_t Id) { return Machines[Id].mut(); }
};

} // namespace p

#endif // P_RUNTIME_CONFIG_H
