// Intra-node fork-join thread pool.
//
// One join process historically drove its partition table with the single
// thread its actor runs on; IntraPool is the "additional resource" *inside*
// a node -- a fixed crew of workers that fan one TupleBatch out across
// cores during build and probe (DESIGN.md §11).
//
// The shape is deliberately minimal: run(body) executes body(t) for every
// t in [0, threads) and returns when all of them finished.  The calling
// thread participates as lane 0, so a pool of N threads spawns only N-1
// workers and a pool of 1 degenerates to a plain call with no
// synchronization at all.  run() is not reentrant and must always be
// called from the owning thread (the join actor's message handler) -- the
// actor model already serializes everything around it, so the pool carries
// no job queue, no futures, no work stealing.
//
// The mutex/condvar handshake doubles as the memory fence between fork-join
// regions: everything the caller wrote before run() happens-before every
// lane's body, and everything lane t wrote happens-before run() returns.
// That is what lets NodeTable do the shared LocalHashTable's serial steps
// (slab growth, counters, index rebuilds) around a region with plain loads
// and stores.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ehja {

class IntraPool {
 public:
  /// Spawns `threads - 1` workers; `threads` must be >= 1.
  explicit IntraPool(unsigned threads);
  ~IntraPool();

  IntraPool(const IntraPool&) = delete;
  IntraPool& operator=(const IntraPool&) = delete;

  unsigned threads() const { return threads_; }

  /// Execute body(t) for every lane t in [0, threads); the caller runs
  /// lane 0.  Returns after every lane finished.  body must not throw and
  /// must not call run() recursively.
  void run(const std::function<void(unsigned)>& body);

  /// Lane t's half-open slice of [0, n): the canonical way callers cut a
  /// batch so every lane sees the same contiguous rows at every call.
  static std::pair<std::size_t, std::size_t> slice(std::size_t n,
                                                   unsigned threads,
                                                   unsigned t) {
    return {n * t / threads, n * (t + 1) / threads};
  }

 private:
  void worker_main(unsigned lane);

  const unsigned threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned done_ = 0;  // workers finished this generation
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ehja
