// Copyright 2026 The CrackStore Authors
//
// Tests for the SQL frontend: lexer, parser, and execution against the
// AdaptiveStore (cross-checked with the direct API).

#include <gtest/gtest.h>

#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace sql {
namespace {

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesKeywordsCaseInsensitively) {
  auto tokens = *Tokenize("select FROM Where");
  ASSERT_EQ(tokens.size(), 4u);  // + end
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
  EXPECT_EQ(tokens[3].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = *Tokenize("MyTable c0");
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MyTable");
  EXPECT_EQ(tokens[1].text, "c0");
}

TEST(LexerTest, Numbers) {
  auto tokens = *Tokenize("42 -17 0");
  EXPECT_EQ(tokens[0].number, 42);
  EXPECT_EQ(tokens[1].number, -17);
  EXPECT_EQ(tokens[2].number, 0);
}

TEST(LexerTest, Operators) {
  auto tokens = *Tokenize("< <= > >= = <>");
  EXPECT_EQ(tokens[0].text, "<");
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[2].text, ">");
  EXPECT_EQ(tokens[3].text, ">=");
  EXPECT_EQ(tokens[4].text, "=");
  EXPECT_EQ(tokens[5].text, "<>");
}

TEST(LexerTest, SymbolsAndQualifiedNames) {
  auto tokens = *Tokenize("R.c0, (*);");
  EXPECT_EQ(tokens[0].text, "R");
  EXPECT_EQ(tokens[1].text, ".");
  EXPECT_EQ(tokens[2].text, "c0");
  EXPECT_EQ(tokens[3].text, ",");
  EXPECT_EQ(tokens[4].text, "(");
  EXPECT_EQ(tokens[5].text, "*");
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("select @ from t").ok());
  EXPECT_FALSE(Tokenize("select # t").ok());
}

TEST(LexerTest, StringLiterals) {
  auto tokens = *Tokenize("'hello' 'it''s' ''");
  ASSERT_EQ(tokens.size(), 4u);  // three strings + end
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].type, TokenType::kString);
  EXPECT_EQ(tokens[1].text, "it's");  // '' decodes to a single quote
  EXPECT_EQ(tokens[2].type, TokenType::kString);
  EXPECT_EQ(tokens[2].text, "");  // the empty string is a valid literal
}

TEST(LexerTest, UnterminatedStringLiteral) {
  auto result = Tokenize("SELECT * FROM t WHERE name = 'oops");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unterminated string literal"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("position"), std::string::npos);
  // A trailing '' escape must not read past the end either.
  EXPECT_FALSE(Tokenize("WHERE name = 'trailing''").ok());
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

TEST(ParserTest, CountStar) {
  auto stmt = *Parse("SELECT COUNT(*) FROM R");
  EXPECT_TRUE(stmt.count_star);
  EXPECT_EQ(stmt.table, "R");
  EXPECT_TRUE(stmt.where.empty());
}

TEST(ParserTest, SelectStarWithWhere) {
  auto stmt = *Parse("SELECT * FROM R WHERE c0 BETWEEN 10 AND 20");
  EXPECT_TRUE(stmt.select_star);
  ASSERT_EQ(stmt.where.size(), 1u);
  EXPECT_EQ(stmt.where[0].column, "c0");
  EXPECT_TRUE(stmt.where[0].range.Contains(10));
  EXPECT_TRUE(stmt.where[0].range.Contains(20));
  EXPECT_FALSE(stmt.where[0].range.Contains(21));
}

TEST(ParserTest, AllComparisonOperators) {
  auto lt = *Parse("SELECT COUNT(*) FROM R WHERE a < 5");
  EXPECT_FALSE(lt.where[0].range.Contains(5));
  EXPECT_TRUE(lt.where[0].range.Contains(4));
  auto le = *Parse("SELECT COUNT(*) FROM R WHERE a <= 5");
  EXPECT_TRUE(le.where[0].range.Contains(5));
  auto gt = *Parse("SELECT COUNT(*) FROM R WHERE a > 5");
  EXPECT_FALSE(gt.where[0].range.Contains(5));
  auto ge = *Parse("SELECT COUNT(*) FROM R WHERE a >= 5");
  EXPECT_TRUE(ge.where[0].range.Contains(5));
  auto eq = *Parse("SELECT COUNT(*) FROM R WHERE a = 5");
  EXPECT_TRUE(eq.where[0].range.Contains(5));
  EXPECT_FALSE(eq.where[0].range.Contains(4));
}

TEST(ParserTest, StringPredicates) {
  auto eq = *Parse("SELECT COUNT(*) FROM P WHERE name = 'gadget'");
  ASSERT_EQ(eq.where.size(), 1u);
  EXPECT_TRUE(eq.where[0].range.has_string());
  EXPECT_TRUE(eq.where[0].range.Contains("gadget"));
  EXPECT_FALSE(eq.where[0].range.Contains("gizmo"));

  auto between = *Parse("SELECT * FROM P WHERE name BETWEEN 'a' AND 'mzz'");
  EXPECT_TRUE(between.where[0].range.Contains("banana"));
  EXPECT_FALSE(between.where[0].range.Contains("zebra"));

  auto lt = *Parse("SELECT COUNT(*) FROM P WHERE name < 'm'");
  EXPECT_TRUE(lt.where[0].range.Contains("alpha"));
  EXPECT_FALSE(lt.where[0].range.Contains("m"));

  // Mixed-family BETWEEN endpoints are a parse error.
  EXPECT_FALSE(Parse("SELECT * FROM P WHERE name BETWEEN 'a' AND 5").ok());
}

TEST(ParserTest, UpdateWithStringLiteral) {
  auto stmt = *ParseStatement("UPDATE P SET name = 'widget' WHERE qty = 3");
  ASSERT_EQ(stmt.update.sets.size(), 1u);
  EXPECT_EQ(stmt.update.sets[0].value, Value(std::string("widget")));
}

TEST(ParserTest, ConjunctiveWhere) {
  auto stmt = *Parse(
      "SELECT COUNT(*) FROM R WHERE c0 > 10 AND c1 BETWEEN 5 AND 9 AND "
      "c2 <= 100");
  ASSERT_EQ(stmt.where.size(), 3u);
  EXPECT_EQ(stmt.where[0].column, "c0");
  EXPECT_EQ(stmt.where[1].column, "c1");
  EXPECT_EQ(stmt.where[2].column, "c2");
}

TEST(ParserTest, ColumnList) {
  auto stmt = *Parse("SELECT c0, c1 FROM R WHERE c0 < 5");
  EXPECT_FALSE(stmt.select_star);
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].column, "c0");
  EXPECT_EQ(stmt.items[1].column, "c1");
}

TEST(ParserTest, Aggregates) {
  auto stmt = *Parse("SELECT SUM(c1) FROM R GROUP BY c0");
  ASSERT_EQ(stmt.items.size(), 1u);
  EXPECT_EQ(stmt.items[0].agg, AggFunc::kSum);
  EXPECT_EQ(stmt.items[0].column, "c1");
  ASSERT_TRUE(stmt.group_by.has_value());
  EXPECT_EQ(*stmt.group_by, "c0");
}

TEST(ParserTest, Join) {
  auto stmt = *Parse("SELECT COUNT(*) FROM R JOIN S ON R.c0 = S.c1");
  ASSERT_TRUE(stmt.join.has_value());
  EXPECT_EQ(stmt.join->table, "S");
  EXPECT_EQ(stmt.join->left_table, "R");
  EXPECT_EQ(stmt.join->left_column, "c0");
  EXPECT_EQ(stmt.join->right_table, "S");
  EXPECT_EQ(stmt.join->right_column, "c1");
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(Parse("SELECT COUNT(*) FROM R;").ok());
}

TEST(ParserTest, InsertStatement) {
  auto stmt = *ParseStatement("INSERT INTO R VALUES (1, -2, 30);");
  ASSERT_EQ(stmt.kind, StatementKind::kInsert);
  EXPECT_EQ(stmt.insert.table, "R");
  ASSERT_EQ(stmt.insert.values.size(), 3u);
  EXPECT_EQ(stmt.insert.values[0], Value(int64_t{1}));
  EXPECT_EQ(stmt.insert.values[1], Value(int64_t{-2}));
  EXPECT_EQ(stmt.insert.values[2], Value(int64_t{30}));
}

TEST(ParserTest, InsertStatementWithStringLiterals) {
  auto stmt = *ParseStatement("INSERT INTO P VALUES ('widget', 7, 'a''b')");
  ASSERT_EQ(stmt.kind, StatementKind::kInsert);
  ASSERT_EQ(stmt.insert.values.size(), 3u);
  EXPECT_EQ(stmt.insert.values[0], Value(std::string("widget")));
  EXPECT_EQ(stmt.insert.values[1], Value(int64_t{7}));
  EXPECT_EQ(stmt.insert.values[2], Value(std::string("a'b")));
}

TEST(ParserTest, DeleteStatement) {
  auto stmt = *ParseStatement("DELETE FROM R WHERE c0 BETWEEN 5 AND 9");
  ASSERT_EQ(stmt.kind, StatementKind::kDelete);
  EXPECT_EQ(stmt.del.table, "R");
  ASSERT_EQ(stmt.del.where.size(), 1u);
  EXPECT_TRUE(stmt.del.where[0].range.Contains(5));
  EXPECT_FALSE(stmt.del.where[0].range.Contains(10));

  auto all = *ParseStatement("DELETE FROM R");
  EXPECT_TRUE(all.del.where.empty());
}

TEST(ParserTest, UpdateStatement) {
  auto stmt = *ParseStatement(
      "UPDATE R SET c0 = 5, c1 = -7 WHERE c0 > 100 AND c1 <= 50");
  ASSERT_EQ(stmt.kind, StatementKind::kUpdate);
  EXPECT_EQ(stmt.update.table, "R");
  ASSERT_EQ(stmt.update.sets.size(), 2u);
  EXPECT_EQ(stmt.update.sets[0].column, "c0");
  EXPECT_EQ(stmt.update.sets[0].value, Value(int64_t{5}));
  EXPECT_EQ(stmt.update.sets[1].column, "c1");
  EXPECT_EQ(stmt.update.sets[1].value, Value(int64_t{-7}));
  EXPECT_EQ(stmt.update.where.size(), 2u);
}

TEST(ParserTest, ParseStatementStillHandlesSelect) {
  auto stmt = *ParseStatement("SELECT COUNT(*) FROM R WHERE c0 < 5");
  ASSERT_EQ(stmt.kind, StatementKind::kSelect);
  EXPECT_TRUE(stmt.select.count_star);
}

TEST(ParserTest, DmlErrors) {
  EXPECT_FALSE(ParseStatement("INSERT INTO R").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO R VALUES ()").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO R VALUES (1, 2").ok());
  EXPECT_FALSE(ParseStatement("DELETE R WHERE c0 < 5").ok());
  EXPECT_FALSE(ParseStatement("UPDATE R c0 = 5").ok());
  EXPECT_FALSE(ParseStatement("UPDATE R SET c0 5").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO R VALUES (1) trailing").ok());
  // The SELECT-only legacy entry rejects DML.
  EXPECT_FALSE(Parse("INSERT INTO R VALUES (1)").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("SELECT * R").ok());
  EXPECT_FALSE(Parse("SELECT * FROM R WHERE").ok());
  EXPECT_FALSE(Parse("SELECT * FROM R WHERE c0 <").ok());
  EXPECT_FALSE(Parse("SELECT * FROM R WHERE c0 BETWEEN 5").ok());
  EXPECT_FALSE(Parse("SELECT * FROM R extra garbage").ok());
  EXPECT_FALSE(Parse("SELECT * FROM R WHERE c0 <> 5").ok());  // unsupported
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM R JOIN S ON c0 = c1").ok());
}

TEST(ParserTest, ErrorMessagesCarryPosition) {
  auto result = Parse("SELECT * FROM R WHERE c0 !! 5");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("position"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Executor (against a real store).
// ---------------------------------------------------------------------------

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TapestryOptions opts;
    opts.num_rows = 2000;
    opts.num_columns = 2;
    opts.seed = 61;
    ASSERT_TRUE(store_.AddTable(*BuildTapestry("R", opts)).ok());
    opts.seed = 62;
    ASSERT_TRUE(store_.AddTable(*BuildTapestry("S", opts)).ok());
  }

  std::unique_ptr<AdaptiveStore> db_ = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store_ = *db_;
};

TEST_F(SqlExecutorTest, CountStarNoWhere) {
  auto out = *ExecuteSql(&store_, "SELECT COUNT(*) FROM R");
  EXPECT_EQ(out.kind, OutputKind::kCount);
  EXPECT_EQ(out.count, 2000u);
}

TEST_F(SqlExecutorTest, CountStarWithRange) {
  auto out =
      *ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 BETWEEN 100 AND 199");
  EXPECT_EQ(out.count, 100u);  // permutation of 1..2000
}

TEST_F(SqlExecutorTest, CountMatchesDirectApi) {
  auto via_sql =
      *ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 <= 500");
  auto direct = *store_.SelectRange("R", "c0", RangeBounds::AtMost(500));
  EXPECT_EQ(via_sql.count, direct.count);
  EXPECT_EQ(via_sql.count, 500u);
}

TEST_F(SqlExecutorTest, ConjunctionCracksBothColumns) {
  auto out = *ExecuteSql(
      &store_, "SELECT COUNT(*) FROM R WHERE c0 <= 1000 AND c1 <= 1000");
  // Independent permutations: expect ~ n * (1/2) * (1/2) = 500.
  EXPECT_GT(out.count, 350u);
  EXPECT_LT(out.count, 650u);
  EXPECT_GT(*store_.NumPieces("R", "c0"), 1u);
  EXPECT_GT(*store_.NumPieces("R", "c1"), 1u);
}

TEST_F(SqlExecutorTest, SelectStarMaterializesRows) {
  auto out = *ExecuteSql(&store_, "SELECT * FROM R WHERE c0 BETWEEN 1 AND 10");
  ASSERT_EQ(out.kind, OutputKind::kRows);
  ASSERT_NE(out.rows, nullptr);
  EXPECT_EQ(out.rows->num_rows(), 10u);
  EXPECT_EQ(out.rows->num_columns(), 2u);
}

TEST_F(SqlExecutorTest, ProjectionKeepsRequestedColumns) {
  auto out = *ExecuteSql(&store_, "SELECT c1 FROM R WHERE c0 = 7");
  ASSERT_EQ(out.kind, OutputKind::kRows);
  EXPECT_EQ(out.rows->num_columns(), 1u);
  EXPECT_EQ(out.rows->num_rows(), 1u);
  EXPECT_EQ(out.rows->schema().column(0).name, "c1");
}

TEST_F(SqlExecutorTest, GlobalAggregate) {
  auto out = *ExecuteSql(&store_, "SELECT SUM(c0) FROM R");
  ASSERT_EQ(out.kind, OutputKind::kGroups);
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_EQ(out.groups[0].value, 2000 * 2001 / 2);  // sum of 1..2000
}

TEST_F(SqlExecutorTest, GlobalAggregateWithWhere) {
  auto out = *ExecuteSql(&store_, "SELECT MAX(c0) FROM R WHERE c0 <= 1234");
  ASSERT_EQ(out.groups.size(), 1u);
  EXPECT_EQ(out.groups[0].value, 1234);
  auto min = *ExecuteSql(&store_, "SELECT MIN(c0) FROM R WHERE c0 > 1500");
  EXPECT_EQ(min.groups[0].value, 1501);
}

TEST_F(SqlExecutorTest, JoinCount) {
  auto out =
      *ExecuteSql(&store_, "SELECT COUNT(*) FROM R JOIN S ON R.c0 = S.c0");
  EXPECT_EQ(out.count, 2000u);  // permutation x permutation
  // Reversed qualifier order resolves too.
  auto reversed =
      *ExecuteSql(&store_, "SELECT COUNT(*) FROM R JOIN S ON S.c0 = R.c0");
  EXPECT_EQ(reversed.count, 2000u);
}

TEST_F(SqlExecutorTest, GroupByAggregate) {
  // Build a small grouped table.
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kInt64}});
  auto rel = *Relation::Create("G", schema);
  for (int64_t i = 0; i < 90; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i % 3), Value(i)}).ok());
  }
  ASSERT_TRUE(store_.AddTable(rel).ok());
  auto out = *ExecuteSql(&store_, "SELECT SUM(v) FROM G GROUP BY g");
  ASSERT_EQ(out.kind, OutputKind::kGroups);
  ASSERT_EQ(out.groups.size(), 3u);
  int64_t total = 0;
  for (const auto& g : out.groups) total += g.value;
  EXPECT_EQ(total, 89 * 90 / 2);
  auto counts = *ExecuteSql(&store_, "SELECT COUNT(*) FROM G GROUP BY g");
  for (const auto& g : counts.groups) EXPECT_EQ(g.value, 30);
}

TEST_F(SqlExecutorTest, ExecutionErrors) {
  EXPECT_TRUE(ExecuteSql(&store_, "SELECT COUNT(*) FROM missing")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE zz < 5")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ExecuteSql(&store_, "SELECT zz FROM R WHERE c0 < 5")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      ExecuteSql(&store_,
                 "SELECT COUNT(*) FROM R JOIN S ON R.c0 = S.c0 GROUP BY c0")
          .status()
          .IsUnimplemented());
}

TEST_F(SqlExecutorTest, SqlQueriesDriveCracking) {
  EXPECT_EQ(*store_.NumPieces("R", "c0"), 1u);
  ASSERT_TRUE(
      ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 BETWEEN 50 AND 90")
          .ok());
  EXPECT_EQ(*store_.NumPieces("R", "c0"), 3u);
  // The repeat is answered from the index.
  auto repeat = *ExecuteSql(
      &store_, "SELECT COUNT(*) FROM R WHERE c0 BETWEEN 50 AND 90");
  EXPECT_EQ(repeat.io.cracks, 0u);
}

TEST_F(SqlExecutorTest, InsertRoundTrip) {
  auto ins = *ExecuteSql(&store_, "INSERT INTO R VALUES (5001, 5002)");
  EXPECT_EQ(ins.kind, OutputKind::kAffected);
  EXPECT_EQ(ins.count, 1u);
  auto count = *ExecuteSql(&store_, "SELECT COUNT(*) FROM R");
  EXPECT_EQ(count.count, 2001u);
  auto rows = *ExecuteSql(&store_, "SELECT * FROM R WHERE c0 >= 5000");
  ASSERT_EQ(rows.rows->num_rows(), 1u);
  EXPECT_EQ(rows.rows->GetRow(0)[0].AsInt64(), 5001);
  EXPECT_EQ(rows.rows->GetRow(0)[1].AsInt64(), 5002);
}

TEST_F(SqlExecutorTest, DeleteRoundTrip) {
  auto del =
      *ExecuteSql(&store_, "DELETE FROM R WHERE c0 BETWEEN 1 AND 100");
  EXPECT_EQ(del.kind, OutputKind::kAffected);
  EXPECT_EQ(del.count, 100u);
  EXPECT_EQ(ExecuteSql(&store_, "SELECT COUNT(*) FROM R")->count, 1900u);
  EXPECT_EQ(
      ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 <= 100")->count,
      0u);
  // Deleting the same band again touches nothing.
  EXPECT_EQ(
      ExecuteSql(&store_, "DELETE FROM R WHERE c0 BETWEEN 1 AND 100")->count,
      0u);
  // SELECT * must not materialize ghosts.
  auto rows = *ExecuteSql(&store_, "SELECT * FROM R WHERE c0 <= 110");
  EXPECT_EQ(rows.rows->num_rows(), 10u);
}

TEST_F(SqlExecutorTest, UpdateRoundTrip) {
  auto upd = *ExecuteSql(&store_, "UPDATE R SET c1 = 9999 WHERE c0 <= 50");
  EXPECT_EQ(upd.kind, OutputKind::kAffected);
  EXPECT_EQ(upd.count, 50u);
  EXPECT_EQ(
      ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c1 = 9999")->count,
      50u);
  // The updated rows keep their other column: c0 still selects them.
  EXPECT_EQ(ExecuteSql(&store_,
                       "SELECT COUNT(*) FROM R WHERE c0 <= 50 AND c1 = 9999")
                ->count,
            50u);
  // Aggregates see the new values.
  auto max = *ExecuteSql(&store_, "SELECT MAX(c1) FROM R");
  EXPECT_EQ(max.groups[0].value, 9999);
}

TEST_F(SqlExecutorTest, MixedDmlSequenceStaysConsistent) {
  ASSERT_TRUE(ExecuteSql(&store_, "INSERT INTO R VALUES (3000, 3000)").ok());
  ASSERT_TRUE(ExecuteSql(&store_, "INSERT INTO R VALUES (3001, 3001)").ok());
  ASSERT_TRUE(
      ExecuteSql(&store_, "DELETE FROM R WHERE c0 = 3000").ok());
  ASSERT_TRUE(
      ExecuteSql(&store_, "UPDATE R SET c0 = 4000 WHERE c0 = 3001").ok());
  EXPECT_EQ(
      ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 >= 3000")->count,
      1u);
  auto rows = *ExecuteSql(&store_, "SELECT c1 FROM R WHERE c0 = 4000");
  ASSERT_EQ(rows.rows->num_rows(), 1u);
  EXPECT_EQ(rows.rows->GetRow(0)[0].AsInt64(), 3001);
  // The DML WHERE clauses cracked the column like any SELECT would.
  EXPECT_GT(*store_.NumPieces("R", "c0"), 1u);
}

TEST_F(SqlExecutorTest, DmlExecutionErrors) {
  EXPECT_TRUE(ExecuteSql(&store_, "INSERT INTO missing VALUES (1)")
                  .status()
                  .IsNotFound());
  // Arity mismatch: R has two columns.
  EXPECT_FALSE(ExecuteSql(&store_, "INSERT INTO R VALUES (1)").ok());
  EXPECT_TRUE(ExecuteSql(&store_, "DELETE FROM missing").status().IsNotFound());
  EXPECT_TRUE(ExecuteSql(&store_, "UPDATE R SET zz = 5 WHERE c0 < 5")
                  .status()
                  .IsNotFound());
}

TEST_F(SqlExecutorTest, FormatOutputRendersAffectedRows) {
  auto out = *ExecuteSql(&store_, "DELETE FROM R WHERE c0 <= 3");
  EXPECT_NE(FormatOutput(out).find("3 row(s) affected"), std::string::npos);
}

TEST_F(SqlExecutorTest, FormatOutputRendersAllKinds) {
  auto count = *ExecuteSql(&store_, "SELECT COUNT(*) FROM R");
  EXPECT_NE(FormatOutput(count).find("count: 2000"), std::string::npos);
  auto rows = *ExecuteSql(&store_, "SELECT * FROM R WHERE c0 <= 3");
  std::string rendered = FormatOutput(rows, 2);
  EXPECT_NE(rendered.find("(c0:int64, c1:int64)"), std::string::npos);
  EXPECT_NE(rendered.find("... (3 rows)"), std::string::npos);
  auto agg = *ExecuteSql(&store_, "SELECT MIN(c0) FROM R");
  EXPECT_NE(FormatOutput(agg).find("min(c0)"), std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace crackstore
