// Wire-format size constants, split out of net/wire.hpp so that lower
// layers (relation/chunk.hpp models per-chunk transport overhead) can agree
// with the socket runtime's actual framing without depending on the codec.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace ehja::wire {

/// Frame header: magic u32 | version u8 | kind u8 | reserved u16 |
/// body_len u32 | crc32(body) u32 -- 16 bytes, all little-endian.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Modeled per-chunk envelope beyond the frame header: the message header
/// (tag + from + wire_bytes varints) plus the chunk body header (relation
/// tag, tuple count, forwarded flag, epoch).  A generous varint bound, kept
/// constant so chunk wire costs stay a pure function of tuple count.
inline constexpr std::size_t kChunkEnvelopeBytes = 16;

/// Bytes Writer::varint spends on `v`: LEB128 carries 7 bits per byte.
constexpr std::size_t varint_bytes(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

}  // namespace ehja::wire
