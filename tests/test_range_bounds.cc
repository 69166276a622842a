// Copyright 2026 The CrackStore Authors
//
// Tests for RangeBounds (the predicate vocabulary shared by the cracker and
// both engines). Also compiles the umbrella header as a smoke check of the
// public include surface.

#include <gtest/gtest.h>

#include "crackstore/crackstore.h"

namespace crackstore {
namespace {

TEST(RangeBoundsTest, ClosedContainsEndpoints) {
  RangeBounds r = RangeBounds::Closed(10, 20);
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(15));
  EXPECT_TRUE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_FALSE(r.Contains(21));
}

TEST(RangeBoundsTest, HalfOpenExcludesUpper) {
  RangeBounds r = RangeBounds::HalfOpen(10, 20);
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
}

TEST(RangeBoundsTest, OpenExcludesBoth) {
  RangeBounds r = RangeBounds::Open(10, 20);
  EXPECT_FALSE(r.Contains(10));
  EXPECT_TRUE(r.Contains(11));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
}

TEST(RangeBoundsTest, OneSidedHelpers) {
  EXPECT_TRUE(RangeBounds::LessThan(5).Contains(4));
  EXPECT_FALSE(RangeBounds::LessThan(5).Contains(5));
  EXPECT_TRUE(RangeBounds::AtMost(5).Contains(5));
  EXPECT_FALSE(RangeBounds::AtMost(5).Contains(6));
  EXPECT_FALSE(RangeBounds::GreaterThan(5).Contains(5));
  EXPECT_TRUE(RangeBounds::GreaterThan(5).Contains(6));
  EXPECT_TRUE(RangeBounds::AtLeast(5).Contains(5));
  EXPECT_FALSE(RangeBounds::AtLeast(5).Contains(4));
}

TEST(RangeBoundsTest, EqualIsPointRange) {
  RangeBounds r = RangeBounds::Equal(7);
  EXPECT_TRUE(r.Contains(7));
  EXPECT_FALSE(r.Contains(6));
  EXPECT_FALSE(r.Contains(8));
  EXPECT_FALSE(r.IsEmpty());
}

TEST(RangeBoundsTest, AllContainsExtremes) {
  RangeBounds r = RangeBounds::All();
  EXPECT_TRUE(r.Contains(INT64_MIN));
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(INT64_MAX));
}

TEST(RangeBoundsTest, EmptyDetection) {
  EXPECT_TRUE((RangeBounds{5, true, 4, true}).IsEmpty());    // inverted
  EXPECT_TRUE((RangeBounds{5, false, 5, true}).IsEmpty());   // (5,5]
  EXPECT_TRUE((RangeBounds{5, true, 5, false}).IsEmpty());   // [5,5)
  EXPECT_TRUE((RangeBounds{5, false, 5, false}).IsEmpty());  // (5,5)
  EXPECT_FALSE((RangeBounds{5, true, 5, true}).IsEmpty());   // [5,5]
  EXPECT_FALSE(RangeBounds::All().IsEmpty());
}

TEST(RangeBoundsTest, EmptyRangeContainsNothing) {
  RangeBounds r{5, false, 5, false};
  EXPECT_FALSE(r.Contains(5));
  EXPECT_FALSE(r.Contains(4));
  EXPECT_FALSE(r.Contains(6));
}

TEST(RangeBoundsTest, SentinelBoundsAtDomainEdges) {
  EXPECT_TRUE(RangeBounds::AtMost(INT64_MIN).Contains(INT64_MIN));
  EXPECT_FALSE(RangeBounds::LessThan(INT64_MIN).Contains(INT64_MIN));
  EXPECT_TRUE(RangeBounds::AtLeast(INT64_MAX).Contains(INT64_MAX));
  EXPECT_FALSE(RangeBounds::GreaterThan(INT64_MAX).Contains(INT64_MAX));
}

TEST(UmbrellaHeaderTest, PublicTypesVisible) {
  // The umbrella include must expose the whole public vocabulary.
  DbOptions db_opts;
  (void)db_opts;
  CrackerIndexOptions index_opts;
  (void)index_opts;
  TapestryOptions tapestry_opts;
  (void)tapestry_opts;
  MqsSpec mqs;
  (void)mqs;
  CrackSimOptions sim;
  (void)sim;
  RowEngineOptions row;
  (void)row;
  SUCCEED();
}

}  // namespace
}  // namespace crackstore
