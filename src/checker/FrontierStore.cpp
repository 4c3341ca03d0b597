//===- checker/FrontierStore.cpp ---------------------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/FrontierStore.h"

#include <cerrno>
#include <cstring>

using namespace p;
using namespace p::ckpt;

FrontierStore::FrontierStore(std::string PathIn) : Path(std::move(PathIn)) {
  F = std::fopen(Path.c_str(), "wb+");
}

FrontierStore::~FrontierStore() {
  if (F)
    std::fclose(F);
  std::remove(Path.c_str());
}

bool FrontierStore::spill(const std::vector<FrontierNode> &Nodes,
                          std::string *Why) {
  if (Nodes.empty())
    return true;
  std::string Blob;
  for (const FrontierNode &N : Nodes)
    appendFrontierNode(N, Blob);

  std::lock_guard<std::mutex> Lock(Mu);
  if (!F) {
    if (Why)
      *Why = "spill file " + Path + " is not open";
    return false;
  }
  if (std::fseek(F, static_cast<long>(WriteOff), SEEK_SET) != 0 ||
      std::fwrite(Blob.data(), 1, Blob.size(), F) != Blob.size()) {
    if (Why)
      *Why = "cannot write spill segment to " + Path + ": " +
             std::strerror(errno);
    return false;
  }
  Segments.push_back({WriteOff, Blob.size(), Nodes.size()});
  WriteOff += Blob.size();
  Pending += Nodes.size();
  TotalNodes += Nodes.size();
  TotalBytes += Blob.size();
  return true;
}

bool FrontierStore::readSegment(const Segment &S,
                                std::vector<FrontierNode> &Out,
                                std::string *Why) {
  std::string Blob(S.Bytes, '\0');
  if (std::fseek(F, static_cast<long>(S.Offset), SEEK_SET) != 0 ||
      std::fread(Blob.data(), 1, Blob.size(), F) != Blob.size()) {
    if (Why)
      *Why = "cannot read spill segment from " + Path + ": " +
             std::strerror(errno);
    return false;
  }
  ByteReader R(Blob.data(), Blob.size());
  for (uint64_t I = 0; I != S.Nodes; ++I) {
    Out.emplace_back();
    if (!readFrontierNode(R, Out.back())) {
      if (Why)
        *Why = "malformed spill segment in " + Path;
      return false;
    }
  }
  return true;
}

bool FrontierStore::reload(std::vector<FrontierNode> &Nodes,
                           std::string *Why, uint64_t *DroppedNodes,
                           std::atomic<unsigned> *Busy) {
  Nodes.clear();
  if (DroppedNodes)
    *DroppedNodes = 0;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!F || Segments.empty())
    return false;
  Segment S = Segments.back();
  const bool Read = readSegment(S, Nodes, Why);
  Segments.pop_back();
  Pending -= S.Nodes;
  if (!Read) {
    // The segment is unreadable now and will stay unreadable; keeping
    // it queued would make every idle worker retry it forever.
    Nodes.clear();
    if (DroppedNodes)
      *DroppedNodes = S.Nodes;
    if (Segments.empty())
      WriteOff = 0;
    return false;
  }
  // Fully drained: rewind the append position so a spiky search does
  // not grow the file monotonically.
  if (Segments.empty())
    WriteOff = 0;
  if (Busy)
    Busy->fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool FrontierStore::snapshot(std::vector<FrontierNode> &Out,
                             std::string *Why) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (!F)
    return Segments.empty();
  for (const Segment &S : Segments)
    if (!readSegment(S, Out, Why))
      return false;
  return true;
}

uint64_t FrontierStore::pendingNodes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Pending;
}
