#ifndef PSJ_REPORT_FIGURE_DOC_H_
#define PSJ_REPORT_FIGURE_DOC_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json_writer.h"
#include "util/statusor.h"

namespace psj::report {

/// Schema tag of the figure JSON documents. Bump when the document shape
/// changes incompatibly; the golden diff engine refuses to compare
/// mismatching schemas and tools/psj_lint.py rejects committed goldens
/// without a psj schema tag.
inline constexpr std::string_view kFigureSchema = "psj-figure-v1";

/// Schema tag of the serving throughput/latency documents (report/
/// serve_figure.h, bench/serve_qps). A separate family: wall-clock values
/// are host-dependent, so these documents are never golden-compared — the
/// tag keeps the diff engine from silently comparing them against
/// virtual-time goldens.
inline constexpr std::string_view kServeFigureSchema = "psj-serve-fig-v1";

/// True for document families whose values are host wall-clock measurements
/// (core count, frequency scaling, load) rather than deterministic virtual
/// time. Wall-clock documents are never golden-gated: DiffAgainstGolden
/// refuses them even when both sides carry the same schema tag.
inline constexpr bool IsWallClockSchema(std::string_view schema) {
  return schema == kServeFigureSchema;
}

/// One (x, y) measurement of a series.
struct FigurePoint {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const FigurePoint&, const FigurePoint&) = default;
};

/// One curve of a figure: the values of one named metric across the
/// figure's x axis (e.g. "gd n=8" / "disk_accesses" over buffer sizes).
struct FigureSeries {
  std::string name;    // Display label, unique within the figure.
  std::string metric;  // Machine name of the y quantity.
  std::vector<FigurePoint> points;

  friend bool operator==(const FigureSeries&, const FigureSeries&) = default;
};

/// \brief One paper artifact (figure or table) as data: named scalar
/// values plus metric series over a common x axis. The unit of golden
/// comparison, JSON export, and report rendering.
struct FigureDoc {
  /// Document family tag; every psj document schema starts with "psj-".
  /// FromJsonText accepts any such tag, and DiffAgainstGolden refuses to
  /// compare documents from different families.
  std::string schema = std::string(kFigureSchema);
  std::string figure;   // Registry key, e.g. "fig5".
  std::string title;    // Paper caption, e.g. "Figure 5: ...".
  std::string x_label;
  std::string y_label;
  double scale = 1.0;   // Workload scale the measurements were taken at.

  /// When non-empty, the x axis is categorical: x values are indices into
  /// these labels (reassignment levels, victim policies, ...).
  std::vector<std::string> x_tick_labels;

  /// Named standalone values (tables and per-figure baselines), in
  /// registration order.
  std::vector<std::pair<std::string, double>> scalars;

  std::vector<FigureSeries> series;

  const FigureSeries* FindSeries(std::string_view name) const;
  const double* FindScalar(std::string_view name) const;

  /// Emits the schema-versioned JSON document (deterministic; numeric
  /// values round-trip exactly via DoublePrecise).
  void WriteJson(JsonWriter& out) const;
  std::string ToJson() const;

  /// Parses a document produced by WriteJson (the golden files). Fails on
  /// malformed JSON, a missing or foreign schema tag, or missing fields.
  static StatusOr<FigureDoc> FromJsonText(std::string_view text);

  /// Fixed-width text tables (scalars, then one table per distinct metric
  /// with one column per series) — the bench harnesses' printed form.
  std::string FormatText() const;

  friend bool operator==(const FigureDoc&, const FigureDoc&) = default;
};

}  // namespace psj::report

#endif  // PSJ_REPORT_FIGURE_DOC_H_
