#include "report/golden_diff.h"

#include "util/string_util.h"

namespace psj::report {
namespace {

std::string_view KindLabel(Drift::Kind kind) {
  switch (kind) {
    case Drift::Kind::kSchemaMismatch: return "schema-mismatch";
    case Drift::Kind::kWallClockRefused: return "wall-clock-refused";
    case Drift::Kind::kParamsChanged: return "params-changed";
    case Drift::Kind::kMissingSeries: return "missing-series";
    case Drift::Kind::kNewSeries: return "new-series";
    case Drift::Kind::kMissingScalar: return "missing-scalar";
    case Drift::Kind::kNewScalar: return "new-scalar";
    case Drift::Kind::kAxisChanged: return "axis-changed";
    case Drift::Kind::kValueChanged: return "value-changed";
  }
  return "unknown";
}

void AddDrift(DriftReport& report, Drift::Kind kind, std::string where,
              double golden = 0.0, double current = 0.0) {
  report.drifts.push_back(Drift{kind, std::move(where), golden, current});
}

}  // namespace

std::string Drift::Format() const {
  switch (kind) {
    case Kind::kValueChanged:
      // Round-trip precision: the comparison is exact, so the report shows
      // every digit that differs.
      return StringPrintf("[%s] %s: golden %.17g, current %.17g",
                          std::string(KindLabel(kind)).c_str(), where.c_str(),
                          golden, current);
    case Kind::kParamsChanged:
      return StringPrintf("[%s] %s: golden %.6f, current %.6f",
                          std::string(KindLabel(kind)).c_str(), where.c_str(),
                          golden, current);
    default:
      return StringPrintf("[%s] %s", std::string(KindLabel(kind)).c_str(),
                          where.c_str());
  }
}

std::string DriftReport::Format() const {
  if (ok()) {
    return StringPrintf("%s: ok (%d values equal)\n", figure.c_str(),
                        values_compared);
  }
  std::string out = StringPrintf("%s: DRIFT (%zu finding(s), %d values "
                                 "compared)\n",
                                 figure.c_str(), drifts.size(),
                                 values_compared);
  for (const Drift& drift : drifts) {
    out += "  " + drift.Format() + "\n";
  }
  return out;
}

DriftReport DiffAgainstGolden(const FigureDoc& golden,
                              const FigureDoc& current) {
  DriftReport report;
  report.figure = current.figure.empty() ? golden.figure : current.figure;

  // Documents from different families (e.g. a serving sweep vs a
  // virtual-time figure) are incomparable: refuse outright rather than
  // reporting every value as drifted.
  if (golden.schema != current.schema) {
    AddDrift(report, Drift::Kind::kSchemaMismatch,
             "schema '" + golden.schema + "' vs '" + current.schema + "'");
    return report;
  }

  // Wall-clock families (the serving sweep) are host-dependent: two
  // byte-identical configurations legitimately measure different values, so
  // exact-golden gating would flag every honest run. Refuse the comparison
  // even though the schemas match.
  if (IsWallClockSchema(golden.schema)) {
    AddDrift(report, Drift::Kind::kWallClockRefused,
             "schema '" + golden.schema +
                 "' is a wall-clock family; golden comparison is not "
                 "meaningful");
    return report;
  }

  if (golden.figure != current.figure) {
    AddDrift(report, Drift::Kind::kParamsChanged,
             "figure name '" + golden.figure + "' vs '" + current.figure +
                 "'");
  }
  if (golden.scale != current.scale) {
    AddDrift(report, Drift::Kind::kParamsChanged, "workload scale",
             golden.scale, current.scale);
  }
  if (golden.x_tick_labels != current.x_tick_labels) {
    AddDrift(report, Drift::Kind::kParamsChanged, "x tick labels");
  }

  // Scalars, matched by name.
  for (const auto& [name, golden_value] : golden.scalars) {
    const double* current_value = current.FindScalar(name);
    if (current_value == nullptr) {
      AddDrift(report, Drift::Kind::kMissingScalar, "scalar '" + name + "'");
      continue;
    }
    ++report.values_compared;
    if (*current_value != golden_value) {
      AddDrift(report, Drift::Kind::kValueChanged, "scalar '" + name + "'",
               golden_value, *current_value);
    }
  }
  for (const auto& [name, value] : current.scalars) {
    if (golden.FindScalar(name) == nullptr) {
      AddDrift(report, Drift::Kind::kNewScalar, "scalar '" + name + "'");
    }
  }

  // Series, matched by name; points by exact x.
  for (const FigureSeries& golden_series : golden.series) {
    const FigureSeries* current_series =
        current.FindSeries(golden_series.name);
    if (current_series == nullptr) {
      AddDrift(report, Drift::Kind::kMissingSeries,
               "series '" + golden_series.name + "'");
      continue;
    }
    for (const FigurePoint& golden_point : golden_series.points) {
      const FigurePoint* match = nullptr;
      for (const FigurePoint& candidate : current_series->points) {
        if (candidate.x == golden_point.x) {
          match = &candidate;
        }
      }
      if (match == nullptr) {
        AddDrift(report, Drift::Kind::kAxisChanged,
                 StringPrintf("series '%s': x=%g has no current point",
                              golden_series.name.c_str(), golden_point.x));
        continue;
      }
      ++report.values_compared;
      if (match->y != golden_point.y) {
        AddDrift(report, Drift::Kind::kValueChanged,
                 StringPrintf("series '%s' [%s] @ x=%g",
                              golden_series.name.c_str(),
                              golden_series.metric.c_str(), golden_point.x),
                 golden_point.y, match->y);
      }
    }
    for (const FigurePoint& current_point : current_series->points) {
      bool known = false;
      for (const FigurePoint& candidate : golden_series.points) {
        known = known || candidate.x == current_point.x;
      }
      if (!known) {
        AddDrift(report, Drift::Kind::kAxisChanged,
                 StringPrintf("series '%s': x=%g is not in the golden",
                              golden_series.name.c_str(), current_point.x));
      }
    }
  }
  for (const FigureSeries& current_series : current.series) {
    if (golden.FindSeries(current_series.name) == nullptr) {
      AddDrift(report, Drift::Kind::kNewSeries,
               "series '" + current_series.name + "'");
    }
  }
  return report;
}

}  // namespace psj::report
