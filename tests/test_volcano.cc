// Copyright 2026 The CrackStore Authors
//
// Tests for the Volcano iterators of the row engine.

#include <gtest/gtest.h>

#include "engine/sinks.h"
#include "engine/volcano.h"

namespace crackstore {
namespace {

Schema PairSchema() {
  return Schema({{"k", ValueType::kInt64}, {"a", ValueType::kInt64}});
}

std::shared_ptr<RowTable> MakeTable(const std::string& name, int64_t rows,
                                    int64_t a_mult = 1) {
  auto table = RowTable::Create(name, PairSchema());
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table->Insert({Value(i), Value(i * a_mult)}).ok());
  }
  table->Commit();
  return table;
}

TEST(SeqScanTest, ScansAllTuplesInOrder) {
  auto table = MakeTable("t", 100);
  SeqScanIterator scan(table);
  CountSink sink;
  auto count = Execute(&scan, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100u);
}

TEST(SeqScanTest, EmptyTable) {
  auto table = RowTable::Create("e", PairSchema());
  SeqScanIterator scan(table);
  CountSink sink;
  auto count = Execute(&scan, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(SeqScanTest, Rescannable) {
  auto table = MakeTable("t", 10);
  SeqScanIterator scan(table);
  CountSink s1, s2;
  ASSERT_TRUE(Execute(&scan, &s1).ok());
  auto again = Execute(&scan, &s2);  // Open() resets the cursor
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 10u);
}

TEST(FilterTest, KeepsMatching) {
  auto table = MakeTable("t", 100);
  FilterIterator filter(std::make_unique<SeqScanIterator>(table), 0,
                        RangeBounds::Closed(10, 19));
  CountSink sink;
  auto count = Execute(&filter, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);
}

TEST(FilterTest, NegatedKeepsComplement) {
  auto table = MakeTable("t", 100);
  FilterIterator filter(std::make_unique<SeqScanIterator>(table), 0,
                        RangeBounds::Closed(10, 19), /*negate=*/true);
  CountSink sink;
  auto count = Execute(&filter, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 90u);
}

TEST(FilterTest, FiltersOnSecondColumn) {
  auto table = MakeTable("t", 50, /*a_mult=*/3);
  FilterIterator filter(std::make_unique<SeqScanIterator>(table), 1,
                        RangeBounds::AtMost(30));  // a = 3i <= 30 -> i <= 10
  CountSink sink;
  auto count = Execute(&filter, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 11u);
}

TEST(ProjectTest, ReordersColumns) {
  auto table = MakeTable("t", 3, /*a_mult=*/10);
  ProjectIterator project(std::make_unique<SeqScanIterator>(table), {1, 0});
  ASSERT_TRUE(project.Open().ok());
  std::vector<Value> row;
  bool eof = false;
  ASSERT_TRUE(project.Next(&row, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 0);  // a first
  EXPECT_EQ(row[1].AsInt64(), 0);  // k second
  ASSERT_TRUE(project.Next(&row, &eof).ok());
  EXPECT_EQ(row[0].AsInt64(), 10);
  EXPECT_EQ(row[1].AsInt64(), 1);
}

TEST(NestedLoopJoinTest, EquiJoin) {
  auto left = MakeTable("l", 20);
  auto right = MakeTable("r", 10);
  NestedLoopJoinIterator join(std::make_unique<SeqScanIterator>(left),
                              std::make_unique<SeqScanIterator>(right), 0, 0);
  CountSink sink;
  auto count = Execute(&join, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);  // keys 0..9 match
}

TEST(NestedLoopJoinTest, ConcatenatesTuples) {
  auto left = MakeTable("l", 2, 100);
  auto right = MakeTable("r", 2, 1000);
  NestedLoopJoinIterator join(std::make_unique<SeqScanIterator>(left),
                              std::make_unique<SeqScanIterator>(right), 0, 0);
  ASSERT_TRUE(join.Open().ok());
  std::vector<Value> row;
  bool eof = false;
  ASSERT_TRUE(join.Next(&row, &eof).ok());
  ASSERT_FALSE(eof);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1].AsInt64(), row[0].AsInt64() * 100);
  EXPECT_EQ(row[3].AsInt64(), row[2].AsInt64() * 1000);
}

TEST(NestedLoopJoinTest, NoMatches) {
  auto left = MakeTable("l", 5);
  auto right = RowTable::Create("r", PairSchema());
  for (int64_t i = 100; i < 105; ++i) {
    ASSERT_TRUE(right->Insert({Value(i), Value(i)}).ok());
  }
  NestedLoopJoinIterator join(std::make_unique<SeqScanIterator>(left),
                              std::make_unique<SeqScanIterator>(right), 0, 0);
  CountSink sink;
  auto count = Execute(&join, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(HashJoinTest, MatchesNestedLoop) {
  auto left = MakeTable("l", 50);
  auto right = MakeTable("r", 30);
  NestedLoopJoinIterator nl(std::make_unique<SeqScanIterator>(left),
                            std::make_unique<SeqScanIterator>(right), 0, 0);
  HashJoinIterator hash(std::make_unique<SeqScanIterator>(left),
                        std::make_unique<SeqScanIterator>(right), 0, 0);
  CountSink s1, s2;
  auto c1 = Execute(&nl, &s1);
  auto c2 = Execute(&hash, &s2);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*c1, *c2);
}

TEST(HashJoinTest, DuplicateKeysProduceCrossProduct) {
  auto left = RowTable::Create("l", PairSchema());
  auto right = RowTable::Create("r", PairSchema());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(left->Insert({Value(int64_t{7}), Value(int64_t{i})}).ok());
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(right->Insert({Value(int64_t{7}), Value(int64_t{i})}).ok());
  }
  HashJoinIterator join(std::make_unique<SeqScanIterator>(left),
                        std::make_unique<SeqScanIterator>(right), 0, 0);
  CountSink sink;
  auto count = Execute(&join, &sink);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(SinksTest, CountSinkCounts) {
  CountSink sink;
  ASSERT_TRUE(sink.Consume({Value(int64_t{1})}).ok());
  ASSERT_TRUE(sink.Consume({Value(int64_t{2})}).ok());
  EXPECT_EQ(sink.count(), 2u);
}

TEST(SinksTest, FrontendSinkShipsBytes) {
  FrontendSink sink(/*flush_bytes=*/16);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        sink.Consume({Value(int64_t{i}), Value(std::string("payload"))})
            .ok());
  }
  EXPECT_EQ(sink.count(), 100u);
  // frame: 4 len + (1+8) int64 + (1+4+7) string = 25 bytes per row.
  EXPECT_EQ(sink.bytes_shipped(), 100u * 25);
}

TEST(SinksTest, RowMaterializeSinkInsertsAndCommits) {
  auto target = RowTable::Create("out", PairSchema());
  RowMaterializeSink sink(target);
  ASSERT_TRUE(sink.Consume({Value(int64_t{1}), Value(int64_t{2})}).ok());
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(target->num_rows(), 1u);
  EXPECT_EQ(target->journal()->num_commits(), 1u);
}

}  // namespace
}  // namespace crackstore
