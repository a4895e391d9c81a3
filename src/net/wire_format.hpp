// Wire-format size constants, split out of net/wire.hpp so that lower
// layers (relation/chunk.hpp models per-chunk transport overhead, and config
// validation bounds what one frame must carry) can agree with the socket
// runtime's actual framing without depending on the codec.
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

/// Upper bound on one frame body; a corrupt length past this is an error,
/// not an allocation.
inline constexpr std::uint32_t kMaxFrameBody = 64u << 20;

/// Bytes Writer::varint spends on `v`: LEB128 carries 7 bits per byte.
constexpr std::size_t varint_bytes(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// The most bytes one varint takes: a u64 needs ten 7-bit groups.
inline constexpr std::size_t kMaxVarintBytes = varint_bytes(~0ull);

/// Most rows one frame body may carry as an id column and a key column:
/// worst-case rows (a 10-byte varint id and an 8-byte key) still leave
/// 4 MiB of the body cap for the envelope around them.
/// EhjaConfig::validate_or_error bounds the transport chunk (data,
/// forwarded and result chunks are cut at chunk_tuples rows), a
/// materialized relation (it rides inside the config frame) and a data
/// source's generation slice by it.
inline constexpr std::size_t kMaxFrameRows =
    (kMaxFrameBody - (4u << 20)) / (kMaxVarintBytes + 8);

}  // namespace ehja::wire
