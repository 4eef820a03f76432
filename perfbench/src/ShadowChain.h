//===- perfbench/src/ShadowChain.h - Incremental shadow stack ----*- C++ -*-===//
//
// Keeps a ShadowStack holding a trace record's call chain the way
// LIFEPRED_FUNCTION() frames would over a real run: moving from one chain
// to the next pops only down to the common prefix and pushes the rest,
// each frame with EncryptedId = id & 0xffff.  The running call-chain
// encryption key therefore evolves exactly as it would at call/return, so
// a heap that reads it can be measured without changing this harness.
//
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_PERFBENCH_SHADOWCHAIN_H
#define LIFEPRED_PERFBENCH_SHADOWCHAIN_H

#include "callchain/ShadowStack.h"

#include <algorithm>
#include <vector>

namespace perfbench {

/// The encryption id the harness gives function \p Id.
inline lifepred::ChainKey encryptedIdFor(lifepred::FunctionId Id) {
  return static_cast<lifepred::ChainKey>(Id & 0xffff);
}

class ShadowChain {
public:
  /// Drives \p Stack, which must outlive this object.  Frames already on
  /// the stack stay below the ones this object pushes.
  explicit ShadowChain(lifepred::ShadowStack &Stack) : Stack(Stack) {}
  ~ShadowChain() { clear(); }

  ShadowChain(const ShadowChain &) = delete;
  ShadowChain &operator=(const ShadowChain &) = delete;

  /// Makes the pushed frames equal \p Target (outermost first); returns
  /// the number of frames pushed.
  size_t moveTo(const std::vector<lifepred::FunctionId> &Target) {
    size_t Limit = std::min(Frames.size(), Target.size());
    size_t Common = 0;
    while (Common < Limit && Frames[Common] == Target[Common])
      ++Common;
    while (Frames.size() > Common) {
      Stack.pop();
      Frames.pop_back();
    }
    for (size_t I = Common; I < Target.size(); ++I) {
      Stack.push(Target[I], encryptedIdFor(Target[I]));
      Frames.push_back(Target[I]);
    }
    return Target.size() - Common;
  }

  /// Pops every frame this object pushed.
  void clear() {
    while (!Frames.empty()) {
      Stack.pop();
      Frames.pop_back();
    }
  }

private:
  lifepred::ShadowStack &Stack;
  std::vector<lifepred::FunctionId> Frames;
};

} // namespace perfbench

#endif // LIFEPRED_PERFBENCH_SHADOWCHAIN_H
