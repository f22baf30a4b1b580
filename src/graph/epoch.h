// Snapshot-epoch manager: the versioning half of the concurrent-write
// contract (see the contract comment in src/graph/engine.h).
//
// Time is divided into epochs numbered from 0. Readers pin the current
// epoch when a QuerySession is created and unpin it when the session is
// destroyed; for the session's whole lifetime the engine it reads is the
// immutable snapshot published as that epoch. A single writer advances
// time: BeginApply() closes the gate (new pins block) and drains the
// pinned readers of the current epoch; the writer then mutates the store
// in place with exclusive access; EndApply() publishes the next epoch and
// reopens the gate.
//
// The manager is a synchronization object only: it never touches graph
// data. Engines expose one via GraphEngine::epochs().

#ifndef GDBMICRO_GRAPH_EPOCH_H_
#define GDBMICRO_GRAPH_EPOCH_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace gdbmicro {

class EpochManager {
 public:
  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // --- reader side --------------------------------------------------------

  /// Pins the current epoch and returns it. Blocks while a writer is
  /// between BeginApply() and EndApply() (writer preference: a stream of
  /// new readers cannot starve the writer).
  uint64_t Pin();

  /// Releases one pin (no-op when none is held).
  void Unpin();

  // --- writer side --------------------------------------------------------

  /// Closes the pin gate and blocks until every pinned reader has
  /// unpinned. On return the caller has exclusive access to the store.
  void BeginApply();

  /// Publishes the next epoch, reopens the pin gate, and returns the new
  /// current epoch. Must follow BeginApply() on the same thread.
  uint64_t EndApply();

  // --- observers ----------------------------------------------------------

  uint64_t current() const;
  /// Outstanding pins. Every pin holds the current epoch: a writer
  /// publishes only once the pins have drained, and Pin() waits out a
  /// publish.
  uint64_t pinned() const;
  /// True while a writer sits in BeginApply() waiting for readers to
  /// drain (the window the concurrency golden inspects).
  bool writer_waiting() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable reader_cv_;  // waits: gate open
  std::condition_variable writer_cv_;  // waits: pins drained
  uint64_t current_ = 0;
  bool applying_ = false;
  uint64_t pins_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_EPOCH_H_
