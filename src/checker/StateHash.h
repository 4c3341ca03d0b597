//===- checker/StateHash.h - Canonical state fingerprints ------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical state fingerprints and the canonical byte serialization
/// they are tested against. One field walk covers every semantically
/// relevant component (call stacks with inherited handler maps and
/// saved continuations, resumable exec frames with operand stacks,
/// variable stores, msg/arg, pending raise/transfer, queues) and feeds
/// one of three sinks: bytes (serializeConfig — the oracle, and the key
/// of VisitedMode::Exact and symmetry's exact path); words folded into
/// a 64-bit fingerprint as the walk reaches them (counts included, so
/// the stream is prefix-free like the bytes, and no bytes are built);
/// or the machine ids the values reference (symmetry's refs masks).
///
/// Fingerprints are *incremental*: the config hash is an ordered
/// combination of per-machine fingerprints (plus the global error
/// component), and each machine's fingerprint is cached inside its
/// copy-on-write snapshot (CowMachine). A scheduler slice mutates one
/// machine, so re-hashing a successor costs one machine walk, not a
/// whole-system pass. `hashConfigFresh` re-walks every machine while
/// ignoring and not touching the caches, and the checker's
/// P_VERIFY_HASHES debug path cross-checks the two on every node.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_STATEHASH_H
#define P_CHECKER_STATEHASH_H

#include "runtime/Config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace p {

/// Appends the canonical serialization of \p Cfg to \p Out.
void serializeConfig(const Config &Cfg, std::string &Out);

/// 64-bit fingerprint of one machine snapshot, streamed from the field
/// walk that emits its block of serializeConfig (never returns 0; 0 is
/// the CowMachine cache sentinel).
uint64_t machineFingerprintFresh(const MachineState &M);

/// As above, but consults and fills the snapshot's fingerprint cache:
/// O(1) when the snapshot was hashed before and has not been mutated.
uint64_t machineFingerprint(const CowMachine &M);

/// 64-bit fingerprint of \p Cfg: the ordered hashCombine of the global
/// error component, the machine count, and every machine fingerprint.
/// Uses the per-snapshot caches, so successors of a hashed config cost
/// one machine re-hash. Deterministic across runs and worker counts.
uint64_t hashConfig(const Config &Cfg);

/// Cache-oblivious cross-check: re-walks every machine without reading
/// or writing the caches. Equal to hashConfig by construction unless a
/// cache went stale — the P_VERIFY_HASHES cross-check compares the two
/// on every node.
uint64_t hashConfigFresh(const Config &Cfg);

/// Source-compatible overloads from when hashing serialized into a
/// caller's buffer; the buffer is no longer touched.
inline uint64_t hashConfig(const Config &Cfg, std::string &) {
  return hashConfig(Cfg);
}
inline uint64_t hashConfigFresh(const Config &Cfg, std::string &) {
  return hashConfigFresh(Cfg);
}

//===----------------------------------------------------------------------===//
// Symmetry support (CheckOptions::Reduce — see DESIGN.md "Reduction")
//===----------------------------------------------------------------------===//

/// Marker bit of a computed refs mask (a computed mask is never 0, so
/// the CowMachine cache can use 0 as its sentinel).
inline constexpr uint64_t RefsComputedBit = 1ull << 63;
/// Set when the state references a machine id outside [0, 62): such a
/// machine must be treated as touched by every permutation.
inline constexpr uint64_t RefsOverflowBit = 1ull << 62;

/// Mask of machine ids referenced by \p M's state (one bit per id in
/// [0, 62), plus RefsOverflowBit for ids outside that range and
/// RefsComputedBit always). A machine whose refs mask is disjoint from
/// a permutation's support walks the same fields under that
/// permutation, so its cached fingerprint can be reused.
uint64_t machineRefsMaskFresh(const MachineState &M);

/// As above, but consults and fills the snapshot's refs-mask cache.
uint64_t machineRefsMask(const CowMachine &M);

/// Appends the canonical serialization of the permuted configuration
/// π·Cfg: machine old-id i's block lands at slot Perm[i] (\p InvPerm is
/// the inverse: slot k reads machine InvPerm[k]), and every
/// machine-typed value is renamed through Perm. With the identity this
/// equals serializeConfig.
void serializeConfigPermuted(const Config &Cfg,
                             const std::vector<int32_t> &Perm,
                             const std::vector<int32_t> &InvPerm,
                             std::string &Out);

/// Fingerprint of π·Cfg: hashConfig's combination over the slots of
/// serializeConfigPermuted, each machine streamed with its values
/// renamed. \p Support is the mask of ids moved by Perm (bits as in
/// machineRefsMask): machines whose refs mask is disjoint from it reuse
/// their cached fingerprint, so the identity equals hashConfig at the
/// cost of one cached pass.
uint64_t hashConfigPermuted(const Config &Cfg,
                            const std::vector<int32_t> &Perm,
                            const std::vector<int32_t> &InvPerm,
                            uint64_t Support);

} // namespace p

#endif // P_CHECKER_STATEHASH_H
