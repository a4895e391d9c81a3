// A spill partition: byte accounting plus buffered-write cost hooks.
//
// Rows themselves are held by the caller (the simulated "disk contents"
// live in host memory, as TupleBatches in join/grace_join); SpillFile
// tracks the accounted on-disk size and translates appends/scans into
// SimDisk time, buffering appends so that a seek is charged once per
// flushed buffer rather than once per record -- matching how the 2004
// implementation would batch partition writes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "storage/sim_disk.hpp"

namespace ehja {

class SpillFile {
 public:
  SpillFile(SimDisk& disk, std::uint64_t stream_id)
      : disk_(&disk), stream_id_(stream_id) {}

  /// Account `bytes` appended; returns the virtual time consumed now (zero
  /// while the write buffer absorbs the append).
  double append(std::size_t bytes);

  /// Flush any buffered bytes; returns the time consumed.
  double flush();

  /// Time to scan the whole file sequentially from the start (flushes
  /// first); adds the flush cost.
  double scan_all();

  /// Time to scan an arbitrary `bytes`-sized slice (for multi-pass joins).
  double scan(std::size_t bytes);

  std::uint64_t bytes() const { return total_bytes_; }

 private:
  SimDisk* disk_;
  std::uint64_t stream_id_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace ehja
