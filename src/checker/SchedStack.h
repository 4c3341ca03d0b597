//===- checker/SchedStack.h - The delaying scheduler's stack --------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delaying scheduler's stack S: machine ids, top first. Every
/// search node carries one and every child copies it, so the ids live
/// in an inline array and spill to the heap only past InlineCap. They
/// are stored bottom-first, making the top's push and pop O(1);
/// iteration is top-first, the order node keys fold and serialize.
/// afterSlice is the one statement of how a slice's outcome moves S.
///
//===----------------------------------------------------------------------===//

#ifndef P_CHECKER_SCHEDSTACK_H
#define P_CHECKER_SCHEDSTACK_H

#include "runtime/Executor.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <vector>

namespace p {

class SchedStack {
public:
  static constexpr uint32_t InlineCap = 9; ///< 64 bytes in all.
  using const_iterator = std::reverse_iterator<const int32_t *>;

  bool empty() const { return size() == 0; }
  size_t size() const { return Heap.empty() ? InlineSize : Heap.size(); }
  int32_t top() const { return data()[size() - 1]; }
  const_iterator begin() const { return const_iterator(data() + size()); }
  const_iterator end() const { return const_iterator(data()); }
  bool contains(int32_t Id) const {
    return std::find(begin(), end(), Id) != end();
  }

  void push(int32_t Id) {
    if (Heap.empty() && InlineSize < InlineCap) {
      Inline[InlineSize++] = Id;
      return;
    }
    if (Heap.empty()) { // Spill: Heap takes every id from here on.
      Heap.assign(Inline.begin(), Inline.end());
      InlineSize = 0;
    }
    Heap.push_back(Id);
  }
  void pop() {
    if (Heap.empty())
      --InlineSize;
    else
      Heap.pop_back();
  }
  /// Moves the top to the bottom: a Delay decision.
  void rotate() {
    int32_t *D = Heap.empty() ? Inline.data() : Heap.data();
    std::rotate(D, D + size() - 1, D + size());
  }
  /// Puts \p Id on top unless it is in S already: how a send, a `new`
  /// and a host enqueue, creation or restart schedule their machine.
  void arm(int32_t Id) {
    if (!contains(Id))
      push(Id);
  }
  void clear() {
    Heap.clear();
    InlineSize = 0;
  }
  /// Removes every occurrence of \p Id.
  void remove(int32_t Id) {
    if (!Heap.empty())
      std::erase(Heap, Id);
    else
      InlineSize = static_cast<uint32_t>(
          std::remove(Inline.begin(), Inline.begin() + InlineSize, Id) -
          Inline.begin());
  }

  /// Moves S after machine \p Id, the top, ran a slice that ended in
  /// \p R: a send or `new` pushes its target unless already in S, a
  /// blocked machine pops, a halted one leaves S. Any other outcome
  /// leaves S as it is: the machine resumes after a choice or a foreign
  /// call, and an error ends the path.
  void afterSlice(int32_t Id, const Executor::StepResult &R) {
    switch (R.Outcome) {
    case Executor::StepOutcome::SchedulingPoint:
      arm(R.Other);
      return;
    case Executor::StepOutcome::Blocked:
      assert(!empty() && top() == Id);
      pop();
      return;
    case Executor::StepOutcome::Halted:
      remove(Id);
      return;
    case Executor::StepOutcome::ChoicePoint:
    case Executor::StepOutcome::ForeignCall:
    case Executor::StepOutcome::Error:
      return;
    }
  }

private:
  // The ids live in the first InlineSize slots of Inline until they
  // outgrow it, then in Heap with InlineSize 0, so a stack whose Heap
  // drains (or is moved from) reads as a valid empty inline one.
  const int32_t *data() const {
    return Heap.empty() ? Inline.data() : Heap.data();
  }

  uint32_t InlineSize = 0;
  std::array<int32_t, InlineCap> Inline{};
  std::vector<int32_t> Heap;
};

} // namespace p

#endif // P_CHECKER_SCHEDSTACK_H
