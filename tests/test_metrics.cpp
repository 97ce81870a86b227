#include <gtest/gtest.h>

#include <sstream>

#include "base/check.h"

#include "metrics/report.h"
#include "metrics/stats.h"

namespace hack {
namespace {

TEST(Stats, KnownDistribution) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const SampleStats s = compute_stats(xs);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.01);
  EXPECT_GT(s.stddev, 28.0);
  EXPECT_LT(s.stddev, 29.5);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 1.0), 20.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(compute_stats({}), CheckError);
  EXPECT_THROW(percentile({}, 0.5), CheckError);
}

TEST(Report, TableFormatsRowsAndCsv) {
  Table t("Demo");
  t.header({"name", "value"});
  t.row({"alpha", "1.00"});
  t.row({"beta", "2.50"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("csv,Demo,beta,2.50"), std::string::npos);
}

TEST(Report, RowWidthValidated) {
  Table t("Bad");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), CheckError);
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(pct(0.415), "41.5%");
  EXPECT_EQ(pct(1.0, 0), "100%");
}

}  // namespace
}  // namespace hack
