// Unit tests for tuples, schemas, chunks, relations and match signatures.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "relation/chunk.hpp"
#include "relation/relation.hpp"
#include "relation/tuple.hpp"
#include "relation/tuple_batch.hpp"

namespace ehja {
namespace {

TEST(SchemaTest, PayloadBytes) {
  EXPECT_EQ(Schema{100}.payload_bytes(), 84u);
  EXPECT_EQ(Schema{16}.payload_bytes(), 0u);
}

TEST(SchemaTest, TupleFootprintIncludesOverhead) {
  EXPECT_EQ(tuple_footprint(Schema{100}), 100u + kHashEntryOverheadBytes);
}

TEST(ChunkTest, WireBytesScaleWithSchema) {
  Chunk chunk;
  for (int i = 0; i < 10; ++i) chunk.batch.append(i, i);
  constexpr std::size_t kHeader =
      wire::kFrameHeaderBytes + wire::kChunkEnvelopeBytes;
  EXPECT_EQ(chunk.wire_bytes(Schema{100}), kHeader + 1000u);
  EXPECT_EQ(chunk.wire_bytes(Schema{400}), kHeader + 4000u);
}

TEST(ChunkTest, ChunksForRoundsUp) {
  EXPECT_EQ(chunks_for(0, 100), 0u);
  EXPECT_EQ(chunks_for(1, 100), 1u);
  EXPECT_EQ(chunks_for(100, 100), 1u);
  EXPECT_EQ(chunks_for(101, 100), 2u);
  EXPECT_EQ(chunks_for(10'000'000, 10'000), 1000u);
}

TEST(RelationTest, AppendChunk) {
  Relation rel(RelTag::kR, Schema{100});
  Chunk chunk;
  chunk.rel = RelTag::kR;
  chunk.batch = TupleBatch::from_tuples({{1, 10}, {2, 20}});
  rel.append(chunk);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel[1].key, 20u);
  EXPECT_EQ(rel.total_bytes(), 200u);
}

TEST(MatchSignatureTest, OrderIndependentSum) {
  const std::uint64_t ab = match_signature(1, 2) + match_signature(3, 4);
  const std::uint64_t ba = match_signature(3, 4) + match_signature(1, 2);
  EXPECT_EQ(ab, ba);
}

TEST(MatchSignatureTest, AsymmetricInArguments) {
  // (r, s) and (s, r) are different pairs and must sign differently.
  EXPECT_NE(match_signature(1, 2), match_signature(2, 1));
}

TEST(MatchSignatureTest, NoObviousCollisions) {
  std::set<std::uint64_t> sigs;
  for (std::uint64_t r = 0; r < 100; ++r) {
    for (std::uint64_t s = 0; s < 100; ++s) {
      sigs.insert(match_signature(r, s));
    }
  }
  EXPECT_EQ(sigs.size(), 10000u);
}

TEST(RelTagTest, Names) {
  EXPECT_STREQ(rel_name(RelTag::kR), "R");
  EXPECT_STREQ(rel_name(RelTag::kS), "S");
}

TEST(TupleTest, FailuresPrintIdAndKey) {
  // A failing EXPECT_EQ on tuples or batches shows rows, not bytes.
  EXPECT_EQ(::testing::PrintToString(Tuple{7, 42}), "(7, 42)");
  TupleBatch batch;
  batch.append(1, 2);
  batch.append(3, 4);
  EXPECT_EQ(::testing::PrintToString(batch), "{ (1, 2), (3, 4) }");
}

TEST(TupleBatchTest, BuildersAgreeAndPositionsAreTheKeysTopBits) {
  // Both edges of position 0, the first key of position 1 and the last key
  // of the last position.
  const std::vector<Tuple> rows = {
      {10, 0}, {11, (1ull << 44) - 1}, {12, 1ull << 44}, {13, ~0ull}};
  const TupleBatch from = TupleBatch::from_tuples(rows);

  TupleBatch pushed;
  for (const Tuple& t : rows) pushed.push_back(t);
  TupleBatch by_row;
  for (std::size_t i = 0; i < from.size(); ++i) by_row.append_row(from, i);
  TupleBatch by_range;
  by_range.append_range(from, 0, 1);
  by_range.append_range(from, 1, from.size());
  TupleBatch in_place;
  const TupleBatch::Columns cols = in_place.append_rows(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    cols.ids[i] = rows[i].id;
    cols.keys[i] = rows[i].key;
  }
  EXPECT_EQ(pushed, from);
  EXPECT_EQ(by_row, from);
  EXPECT_EQ(by_range, from);
  EXPECT_EQ(in_place, from);

  ASSERT_EQ(from.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(from.tuple(i), rows[i]);
    EXPECT_EQ(from.position(i), position_of(rows[i].key));
  }
  EXPECT_EQ(from.position(0), 0u);
  EXPECT_EQ(from.position(1), 0u);
  EXPECT_EQ(from.position(2), 1u);
  EXPECT_EQ(from.position(3), kPositionCount - 1);
}

}  // namespace
}  // namespace ehja
