// Tuple and schema types.
//
// The paper's synthetic schema: a 64-bit index, a 64-bit join attribute, and
// an n-byte data payload (ss5, "Data Generation").  The payload's *content*
// never affects any measured quantity, so only the index and join attribute
// are materialized; the payload contributes to every memory- and
// network-cost computation through Schema::tuple_bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ehja {

/// Which relation a tuple/chunk belongs to.
enum class RelTag : std::uint8_t { kR = 0, kS = 1 };

inline const char* rel_name(RelTag tag) { return tag == RelTag::kR ? "R" : "S"; }

struct Tuple {
  std::uint64_t id = 0;   // unique row index
  std::uint64_t key = 0;  // join attribute

  friend bool operator==(const Tuple&, const Tuple&) = default;
  /// "(id, key)" -- also how gtest prints tuples and TupleBatch rows.
  friend std::ostream& operator<<(std::ostream& os, const Tuple& t) {
    return os << '(' << t.id << ", " << t.key << ')';
  }
};

struct Schema {
  /// Full on-wire / in-table size of one tuple: 8 B index + 8 B join
  /// attribute + payload.  The paper's default is 100 B.
  std::uint32_t tuple_bytes = 100;

  std::uint32_t payload_bytes() const {
    EHJA_CHECK(tuple_bytes >= 16);
    return tuple_bytes - 16;
  }
};

/// Hash-table bookkeeping overhead per stored tuple (chain pointer + length
/// field in a 2004-era implementation); part of the memory footprint.
inline constexpr std::uint32_t kHashEntryOverheadBytes = 24;

/// Bytes one tuple occupies in a node's hash table.
inline std::uint64_t tuple_footprint(const Schema& schema) {
  return schema.tuple_bytes + kHashEntryOverheadBytes;
}

/// Order-independent signature of one (r, s) output pair.  Join results are
/// compared across algorithms/runtimes as (cardinality, sum of signatures):
/// addition is commutative, so any production order yields the same value,
/// and the mixed signature makes compensating errors astronomically
/// unlikely.
inline std::uint64_t match_signature(std::uint64_t r_id, std::uint64_t s_id) {
  return SplitMix64::mix(r_id * 0x9e3779b97f4a7c15ull ^
                         (s_id + 0x632be59bd9b4e019ull));
}

}  // namespace ehja
