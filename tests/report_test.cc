// Report-pipeline tests: figure-document JSON round-trips bit for bit, the
// golden diff engine compares exactly and reports every drift kind, the
// experiment registry reproduces a real figure
// byte-identically across reruns, and the ASCII/Markdown renderers are
// deterministic.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "report/ascii_chart.h"
#include "report/figure_doc.h"
#include "report/figure_registry.h"
#include "report/golden_diff.h"
#include "report/markdown_report.h"

namespace psj {
namespace {

using report::DiffAgainstGolden;
using report::Drift;
using report::DriftReport;
using report::FigureDoc;
using report::FigurePoint;
using report::FigureSeries;

FigureDoc SampleDoc() {
  FigureDoc doc;
  doc.figure = "fig5";
  doc.title = "Figure 5";
  doc.x_label = "buffer pages";
  doc.y_label = "disk accesses";
  doc.scale = 0.05;
  doc.scalars = {{"t1_response_time_us", 25'199'183.0},
                 {"fill_pct", 71.20801733477789}};
  doc.series = {
      FigureSeries{"gd n=8", "disk_accesses",
                   {{200.0, 223.0}, {400.0, 221.0}}},
      FigureSeries{"lsr n=8", "disk_accesses",
                   {{200.0, 178.0}, {400.0, 178.0}}},
  };
  return doc;
}

TEST(FigureDocTest, JsonRoundTripIsExact) {
  const FigureDoc doc = SampleDoc();
  const auto parsed = FigureDoc::FromJsonText(doc.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, doc);
  // Re-serializing the parsed document reproduces the bytes.
  EXPECT_EQ(parsed->ToJson(), doc.ToJson());
}

TEST(FigureDocTest, RoundTripPreservesAwkwardDoubles) {
  FigureDoc doc;
  doc.figure = "t";
  // Values that %.6g would corrupt: full-precision µs counts and
  // non-terminating binary fractions.
  doc.scalars = {{"a", 1'412'345'678.0},
                 {"b", 0.1},
                 {"c", 1.0 / 3.0},
                 {"d", 69.94505494505493}};
  const auto parsed = FigureDoc::FromJsonText(doc.ToJson());
  ASSERT_TRUE(parsed.ok());
  for (size_t i = 0; i < doc.scalars.size(); ++i) {
    EXPECT_EQ(parsed->scalars[i].second, doc.scalars[i].second)
        << doc.scalars[i].first;
  }
}

TEST(FigureDocTest, RejectsForeignSchemaAndGarbage) {
  EXPECT_FALSE(FigureDoc::FromJsonText("{}").ok());
  EXPECT_FALSE(FigureDoc::FromJsonText("not json").ok());
  std::string wrong = SampleDoc().ToJson();
  const size_t at = wrong.find("psj-figure-v1");
  ASSERT_NE(at, std::string::npos);
  wrong.replace(at, 13, "other-schema!");
  EXPECT_FALSE(FigureDoc::FromJsonText(wrong).ok());
}

TEST(FigureDocTest, RoundTripsNonDefaultPsjSchema) {
  FigureDoc doc = SampleDoc();
  doc.schema = std::string(report::kServeFigureSchema);
  const auto parsed = FigureDoc::FromJsonText(doc.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema, report::kServeFigureSchema);
  EXPECT_EQ(*parsed, doc);
}

TEST(GoldenDiffTest, RefusesCrossSchemaComparison) {
  const FigureDoc golden = SampleDoc();
  FigureDoc current = golden;
  current.schema = std::string(report::kServeFigureSchema);
  const DriftReport report = DiffAgainstGolden(golden, current);
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kSchemaMismatch);
  // Nothing is value-compared across families.
  EXPECT_EQ(report.values_compared, 0);
}

TEST(GoldenDiffTest, RefusesWallClockFamiliesEvenWithMatchingSchemas) {
  // Wall-clock documents (the serving sweep) are host-dependent, so a
  // same-schema golden comparison is refused outright — no value is ever
  // exact-golden-gated for this family.
  ASSERT_TRUE(report::IsWallClockSchema(report::kServeFigureSchema));
  FigureDoc golden = SampleDoc();
  golden.schema = std::string(report::kServeFigureSchema);
  FigureDoc current = golden;
  current.series[0].points[1].y += 123.0;  // Would drift if compared.
  const DriftReport report = DiffAgainstGolden(golden, current);
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kWallClockRefused);
  EXPECT_EQ(report.values_compared, 0);
  EXPECT_NE(report.Format().find("wall-clock-refused"), std::string::npos);
  EXPECT_FALSE(report::IsWallClockSchema(report::kFigureSchema));
}

TEST(GoldenDiffTest, IdenticalDocsAreClean) {
  const FigureDoc doc = SampleDoc();
  const DriftReport report = DiffAgainstGolden(doc, doc);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.values_compared, 6);  // 2 scalars + 4 points.
  EXPECT_NE(report.Format().find("ok"), std::string::npos);
}

TEST(GoldenDiffTest, AnyValueChangeIsDrift) {
  const FigureDoc golden = SampleDoc();
  FigureDoc current = golden;
  current.series[0].points[1].y += 1.0;
  current.scalars[0].second += 0.5;
  const DriftReport report = DiffAgainstGolden(golden, current);
  ASSERT_EQ(report.drifts.size(), 2u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kValueChanged);
  EXPECT_EQ(report.drifts[1].kind, Drift::Kind::kValueChanged);
  // The formatted report names the series and the x position.
  EXPECT_NE(report.Format().find("gd n=8"), std::string::npos);
  EXPECT_NE(report.Format().find("x=400"), std::string::npos);
}

TEST(GoldenDiffTest, NaNIsDrift) {
  // NaN equals nothing, so a NaN where the golden holds a number is a
  // changed value, never a match.
  const FigureDoc golden = SampleDoc();
  FigureDoc current = golden;
  current.scalars[1].second = std::numeric_limits<double>::quiet_NaN();
  current.series[1].points[0].y = std::numeric_limits<double>::quiet_NaN();
  const DriftReport report = DiffAgainstGolden(golden, current);
  ASSERT_EQ(report.drifts.size(), 2u) << report.Format();
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kValueChanged);
  EXPECT_EQ(report.drifts[1].kind, Drift::Kind::kValueChanged);
  EXPECT_EQ(report.values_compared, 6);
}

TEST(GoldenDiffTest, StructuralDriftKinds) {
  const FigureDoc golden = SampleDoc();

  FigureDoc missing_series = golden;
  missing_series.series.pop_back();
  auto report = DiffAgainstGolden(golden, missing_series);
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kMissingSeries);

  FigureDoc new_scalar = golden;
  new_scalar.scalars.emplace_back("extra", 1.0);
  report = DiffAgainstGolden(golden, new_scalar);
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kNewScalar);

  FigureDoc moved_x = golden;
  moved_x.series[1].points[0].x = 300.0;
  report = DiffAgainstGolden(golden, moved_x);
  ASSERT_EQ(report.drifts.size(), 2u);  // Golden x gone + new current x.
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kAxisChanged);
  EXPECT_EQ(report.drifts[1].kind, Drift::Kind::kAxisChanged);

  FigureDoc rescaled = golden;
  rescaled.scale = 0.1;
  report = DiffAgainstGolden(golden, rescaled);
  ASSERT_EQ(report.drifts.size(), 1u);
  EXPECT_EQ(report.drifts[0].kind, Drift::Kind::kParamsChanged);
}

TEST(FigureRegistryTest, AllPaperArtifactsRegisteredInOrder) {
  const auto& registry = report::FigureRegistry();
  ASSERT_EQ(registry.size(), 7u);
  const char* expected[] = {"fig5", "fig7",   "fig8",  "fig9",
                            "fig10", "table1", "table2"};
  for (size_t i = 0; i < registry.size(); ++i) {
    EXPECT_STREQ(registry[i].name, expected[i]);
    EXPECT_NE(registry[i].run, nullptr);
  }
  EXPECT_NE(report::FindFigureSpec("fig9"), nullptr);
  EXPECT_EQ(report::FindFigureSpec("fig6"), nullptr);
}

// End-to-end determinism of the pipeline: the same figure run twice over
// the same workload produces byte-identical JSON, text, charts and
// Markdown — the property the committed goldens and the CI report job
// rely on.
TEST(FigureRegistryTest, RerunsAreByteIdentical) {
  PaperWorkloadSpec spec;
  const PaperWorkload workload(spec.Scaled(0.02));
  const report::FigureSpec* fig8 = report::FindFigureSpec("fig8");
  ASSERT_NE(fig8, nullptr);
  report::RunOptions options;
  options.scale = 0.02;

  const FigureDoc first = report::RunFigure(*fig8, workload, options);
  const FigureDoc second = report::RunFigure(*fig8, workload, options);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.ToJson(), second.ToJson());
  EXPECT_EQ(first.FormatText(), second.FormatText());
  EXPECT_EQ(report::RenderAsciiCharts(first),
            report::RenderAsciiCharts(second));

  report::FigureReportEntry entry;
  entry.doc = first;
  entry.expectation = fig8->expectation;
  const std::string markdown = report::RenderMarkdownReport({entry}, {});
  EXPECT_NE(markdown.find("fig8"), std::string::npos);
  EXPECT_NE(markdown.find("```"), std::string::npos);

  // The document survives the golden round trip and diffs clean against
  // itself — exactly what `psj_cli report --check` does.
  const auto reloaded = FigureDoc::FromJsonText(first.ToJson());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(DiffAgainstGolden(*reloaded, second).ok());
}

TEST(AsciiChartTest, DeterministicAndScalarDocsRenderEmpty) {
  const FigureDoc doc = SampleDoc();
  const std::string chart = report::RenderAsciiChart(doc, "disk_accesses");
  EXPECT_NE(chart.find("* gd n=8"), std::string::npos);
  EXPECT_NE(chart.find("o lsr n=8"), std::string::npos);
  EXPECT_NE(chart.find("200 .. 400"), std::string::npos);
  EXPECT_EQ(chart, report::RenderAsciiChart(doc, "disk_accesses"));
  EXPECT_EQ(report::RenderAsciiChart(doc, "no_such_metric"), "");

  FigureDoc scalars_only;
  scalars_only.figure = "table2";
  scalars_only.scalars = {{"disk_seek_us", 10'000.0}};
  EXPECT_EQ(report::RenderAsciiCharts(scalars_only), "");
}

}  // namespace
}  // namespace psj
