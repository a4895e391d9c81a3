// Unit tests for the disk model and spill files: bandwidth math, seek
// charging on stream switches, buffered append behaviour.
#include <gtest/gtest.h>

#include "storage/sim_disk.hpp"
#include "storage/spill_file.hpp"

namespace ehja {
namespace {

DiskConfig test_disk() {
  DiskConfig disk;
  disk.write_bytes_per_sec = 1e6;
  disk.read_bytes_per_sec = 2e6;
  disk.seek_sec = 0.01;
  disk.io_buffer_bytes = 1000;
  return disk;
}

TEST(SimDiskTest, SequentialWriteNoExtraSeeks) {
  SimDisk disk(test_disk());
  const double first = disk.write_cost(1, 1000);
  const double second = disk.write_cost(1, 1000);
  EXPECT_DOUBLE_EQ(first, 0.01 + 0.001);  // initial seek + transfer
  EXPECT_DOUBLE_EQ(second, 0.001);        // same stream: no seek
}

TEST(SimDiskTest, StreamSwitchChargesSeek) {
  SimDisk disk(test_disk());
  disk.write_cost(1, 1000);
  const double other = disk.write_cost(2, 1000);
  EXPECT_DOUBLE_EQ(other, 0.01 + 0.001);
  EXPECT_EQ(disk.seeks(), 2u);
}

TEST(SimDiskTest, ReadUsesReadBandwidth) {
  SimDisk disk(test_disk());
  const double cost = disk.read_cost(7, 2000);
  EXPECT_DOUBLE_EQ(cost, 0.01 + 0.001);
}

TEST(SimDiskTest, ByteCountersAccumulate) {
  SimDisk disk(test_disk());
  disk.write_cost(1, 500);
  disk.write_cost(1, 700);
  disk.read_cost(1, 300);
  EXPECT_EQ(disk.bytes_written(), 1200u);
  EXPECT_EQ(disk.bytes_read(), 300u);
}

TEST(SpillFileTest, BufferedAppendDefersCost) {
  SimDisk disk(test_disk());
  SpillFile file(disk, 1);
  // 400 bytes stays inside the 1000-byte buffer: no time yet.
  EXPECT_DOUBLE_EQ(file.append(400), 0.0);
  EXPECT_EQ(file.bytes(), 400u);
  // Crossing the buffer boundary flushes one buffer's worth.
  const double cost = file.append(700);
  EXPECT_GT(cost, 0.0);
}

TEST(SpillFileTest, FlushDrainsResidual) {
  SimDisk disk(test_disk());
  SpillFile file(disk, 1);
  file.append(250);
  const double cost = file.flush();
  EXPECT_GT(cost, 0.0);
  EXPECT_DOUBLE_EQ(file.flush(), 0.0);  // idempotent when empty
}

TEST(SpillFileTest, ScanAllReadsEverything) {
  SimDisk disk(test_disk());
  SpillFile file(disk, 3);
  file.append(5000);
  const double cost = file.scan_all();
  EXPECT_GE(cost, 5000 / 2e6);  // at least the read transfer time
  EXPECT_EQ(disk.bytes_read(), 5000u);
}

TEST(SpillFileTest, InterleavedStreamsPaySeeks) {
  SimDisk disk(test_disk());
  SpillFile a(disk, 1), b(disk, 2);
  double total = 0.0;
  for (int i = 0; i < 5; ++i) {
    total += a.append(1000);
    total += b.append(1000);
  }
  // 10 buffer flushes alternating streams: 10 seeks.
  EXPECT_EQ(disk.seeks(), 10u);
  EXPECT_GT(total, 10 * 0.01);
}

}  // namespace
}  // namespace ehja
