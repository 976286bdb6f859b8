// Unit tests for the stats subsystem: accumulators, table rendering and
// CSV escaping.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/accumulator.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

namespace gridfed::stats {
namespace {

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MeanMinMax) {
  Accumulator acc;
  for (double x : {4.0, 1.0, 7.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
}

TEST(Accumulator, VarianceMatchesTextbook) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  // Population variance of this classic set is 4; sample variance 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, MergeEqualsSequential) {
  Accumulator a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.37 * i - 3.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmptyIsNoop) {
  Accumulator a, empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_ANY_THROW(t.add_row({"only-one"}));
}

TEST(Table, NumFormatsFixed) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, SciFormatsScientific) {
  EXPECT_EQ(Table::sci(2300000000.0, 2), "2.30e+09");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToDisk) {
  const std::string path = testing::TempDir() + "gridfed_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"h1", "h2"});
    csv.write_row({"1", "two,with comma"});
  }
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str(), "h1,h2\n1,\"two,with comma\"\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gridfed::stats
