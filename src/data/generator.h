#ifndef PSJ_DATA_GENERATOR_H_
#define PSJ_DATA_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "data/map_object.h"
#include "geo/rect.h"
#include "util/rng.h"

namespace psj {

/// \brief Shared regional model for the synthetic TIGER-like maps.
///
/// The paper joins two maps of the *same* Californian counties (streets vs.
/// administrative boundaries / rivers / railways), so both synthetic maps
/// must share one geography: a set of weighted population centers inside a
/// common world rectangle. Streets cluster at the centers; the mixed map's
/// features partially follow them.
struct Geography {
  Rect world = Rect(0.0, 0.0, 1.0, 1.0);
  std::vector<Point> centers;
  std::vector<double> center_weights;  // Cumulative, last element == 1.
  std::vector<double> center_angles;   // Street-grid orientation per center.

  /// Deterministically generates `num_centers` centers with Zipf-like
  /// weights.
  static Geography Generate(uint64_t seed, int num_centers,
                            const Rect& world = Rect(0.0, 0.0, 1.0, 1.0));

  /// Index of a center sampled by weight.
  size_t SampleCenterIndex(Rng& rng) const;

  /// A point near a weighted-sampled center (Gaussian offset with standard
  /// deviation `sigma`), clamped to the world.
  Point SamplePointNearCenter(Rng& rng, double sigma) const;

  Point ClampToWorld(Point p) const;
};

/// Parameters of the streets map (paper: map 1, 131,443 street segments of
/// Californian counties). Street objects are short 1–3 segment polylines
/// clustered at the population centers with locally grid-aligned
/// orientations.
struct StreetsSpec {
  uint64_t seed = 42;
  int num_objects = 131'443;
  double center_sigma = 0.05;      // Spatial spread of a city.
  double segment_length = 0.0003;   // Mean street segment length.
  int min_segments = 1;
  int max_segments = 3;
};

/// Parameters of the mixed map (paper: map 2, 127,312 administrative
/// boundaries, rivers and railway tracks). As in TIGER/Line, long features
/// are stored as many short chain fragments; this generator creates long
/// feature paths and chops them into small polyline objects.
struct MixedSpec {
  uint64_t seed = 43;
  int num_objects = 127'312;
  double frac_boundaries = 0.45;
  double frac_rivers = 0.35;        // Remainder: railway tracks.
  double segment_length = 0.00055;   // Mean fragment segment length.
  int min_segments = 2;
  int max_segments = 4;
  /// Fraction of boundary features anchored near population centers (the
  /// rest start uniformly in the world).
  double center_attraction = 0.45;
};

// Each generator appends every object's points straight into the store it
// returns, so a map is the store's two arrays and nothing more.

/// Generates the streets map; object ids are dense 0 … num_objects-1.
ObjectStore GenerateStreetsMap(const Geography& geography,
                               const StreetsSpec& spec);

/// Generates the mixed map; object ids are dense 0 … num_objects-1.
ObjectStore GenerateMixedMap(const Geography& geography,
                             const MixedSpec& spec);

/// Uniformly distributed short segments, for unit tests and microbenchmarks.
ObjectStore GenerateUniformSegments(uint64_t seed, int num_objects,
                                    double segment_length,
                                    const Rect& world = Rect(0.0, 0.0, 1.0,
                                                             1.0));

}  // namespace psj

#endif  // PSJ_DATA_GENERATOR_H_
