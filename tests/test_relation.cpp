// Unit tests for tuples, schemas, chunks, relations and match signatures.
#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace ehja
