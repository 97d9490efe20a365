#ifndef PSJ_REPORT_GOLDEN_DIFF_H_
#define PSJ_REPORT_GOLDEN_DIFF_H_

#include <string>
#include <vector>

#include "report/figure_doc.h"

namespace psj::report {

/// One divergence between a golden document and the current run.
struct Drift {
  enum class Kind {
    kSchemaMismatch,   // Different document families; nothing compared.
    kWallClockRefused, // Wall-clock family; never golden-gated.
    kParamsChanged,    // scale / axis labels / tick labels differ.
    kMissingSeries,    // In the golden, absent from the current run.
    kNewSeries,        // In the current run, absent from the golden.
    kMissingScalar,
    kNewScalar,
    kAxisChanged,      // Same series, different x values.
    kValueChanged,     // Same point or scalar, a value that is not equal.
  };
  Kind kind;
  std::string where;   // "series 'gd n=8' @ x=800", "scalar 'refine_min_us'".
  double golden = 0.0;
  double current = 0.0;

  std::string Format() const;
};

/// \brief Structured comparison result of one figure. `ok()` means every
/// golden value was reproduced exactly and nothing appeared or
/// disappeared.
struct DriftReport {
  std::string figure;
  int values_compared = 0;
  std::vector<Drift> drifts;

  bool ok() const { return drifts.empty(); }
  /// Readable multi-line report: one line per drift, or a one-line
  /// all-clear with the comparison count.
  std::string Format() const;
};

/// Compares the current document against the golden snapshot. Series and
/// scalars are matched by name; points by exact x value. Values compare
/// exactly: the simulator is bit-deterministic, so a clean tree reproduces
/// every golden value to the last digit, and any difference — NaN included,
/// which equals nothing — is a real behavior change.
DriftReport DiffAgainstGolden(const FigureDoc& golden,
                              const FigureDoc& current);

}  // namespace psj::report

#endif  // PSJ_REPORT_GOLDEN_DIFF_H_
