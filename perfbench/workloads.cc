#include "perfbench/workloads.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/experiment.h"

namespace psj::perfbench {

native::NativeJoinConfig BenchJoinConfig() {
  native::NativeJoinConfig config;
  config.num_threads = kThreads;
  return config;
}

std::vector<ParallelJoinConfig> Fig10Configs() {
  std::vector<ParallelJoinConfig> configs;
  for (const int n : {1, 2, 4, 6, 8, 10, 12, 16, 20, 24}) {
    for (const int disks : {1, 8, n}) {
      ParallelJoinConfig config = ParallelJoinConfig::Gd();
      config.num_processors = n;
      config.num_disks = disks;
      config.total_buffer_pages = 800;
      configs.push_back(config);
    }
  }
  return configs;
}

native::PartitionJoinConfig BenchPartitionConfig() {
  native::PartitionJoinConfig config;
  config.num_threads = kThreads;
  return config;
}

namespace {

/// Repeated calls of `join` (realization index -> result) for `seconds`
/// after one warm-up per realization, round robin over the realizations.
/// Every result's candidate count must equal the oracle's; the warm-up and
/// the last result of each realization must also equal it as sets.
template <typename JoinFn>
void TimeJoins(const std::vector<Realization>& inputs, double seconds,
               const char* name, JoinFn&& join, const Tracer& tracer,
               Report* report) {
  int64_t count_mismatches = 0;
  int64_t set_mismatches = 0;
  const auto check_count = [&](size_t k,
                               const native::NativeJoinResult& result) {
    ++report->attempted;
    if (result.candidates.size() != inputs[k].oracle.candidates.size()) {
      ++count_mismatches;
    }
  };
  std::vector<native::NativeJoinResult> last(inputs.size());
  const auto check_set = [&](size_t k) {
    if (!native::PairSetsEqual(last[k].candidates,
                               inputs[k].oracle.candidates)) {
      ++set_mismatches;
    }
  };
  for (size_t k = 0; k < inputs.size(); ++k) {
    last[k] = join(k);
    check_count(k, last[k]);
    check_set(k);
  }

  std::vector<double> samples;
  const int64_t start = NowNs();
  const auto horizon = static_cast<int64_t>(seconds * 1e9);
  for (int64_t end = start; end - start < horizon;) {
    const size_t k = samples.size() % inputs.size();
    const int64_t begin = NowNs();
    native::NativeJoinResult result = join(k);
    end = NowNs();
    samples.push_back(static_cast<double>(end - begin) * 1e-6);
    check_count(k, result);
    tracer.Span(kMainTrack, trace::Category::kTask, name, begin, end,
                static_cast<int64_t>(result.candidates.size()),
                result.TotalSteals());
    last[k] = std::move(result);
  }
  for (size_t k = 0; k < inputs.size(); ++k) {
    check_set(k);
  }
  report->Fail(count_mismatches, std::string(name) + " candidate count");
  report->Fail(set_mismatches, std::string(name) + " candidate set");
  report->EndToEnd("latency_p50_ms", Median(samples), "ms");
  // The highest percentile with 10 joins beyond it: about p98.5 at the 650
  // or so joins of an 8 s run.
  const double tail_q =
      std::max(0.5, 1.0 - 10.0 / static_cast<double>(samples.size()));
  report->EndToEnd("latency_tail_ms", Quantile(samples, tail_q), "ms");
  report->EndToEnd("ops_measured", static_cast<double>(samples.size()),
                   "count");
}

}  // namespace

void RunJoinWorkload(const std::vector<Realization>& inputs, double seconds,
                     const Tracer& tracer, Report* report) {
  TimeJoins(
      inputs, seconds, "NativeRTreeJoin",
      [&](size_t k) {
        const Maps& maps = *inputs[k].maps;
        return native::NativeRTreeJoin(maps.tree_r, maps.tree_s,
                                       BenchJoinConfig());
      },
      tracer, report);
}

void RunPartitionWorkload(const std::vector<Realization>& inputs,
                          double seconds, const Tracer& tracer,
                          Report* report) {
  std::vector<std::vector<RTreeEntry>> entries_r;
  std::vector<std::vector<RTreeEntry>> entries_s;
  for (const Realization& input : inputs) {
    entries_r.push_back(EntriesOf(input.maps->store_r));
    entries_s.push_back(EntriesOf(input.maps->store_s));
  }
  TimeJoins(
      inputs, seconds, "PartitionSweepJoin",
      [&](size_t k) {
        return native::PartitionSweepJoin(entries_r[k], entries_s[k],
                                          BenchPartitionConfig());
      },
      tracer, report);
}

void RunSimWorkload(const std::vector<Realization>& inputs, double seconds,
                    const Tracer& tracer, Report* report) {
  const ExperimentDriver driver(kThreads);
  const std::vector<ParallelJoinConfig> configs = Fig10Configs();
  std::vector<ParallelSpatialJoin> joins;
  for (const Realization& input : inputs) {
    const Maps& maps = *input.maps;
    joins.emplace_back(&maps.tree_r, &maps.tree_s, &maps.store_r,
                       &maps.store_s);
  }

  // The first (warm-up) sweep of each realization is the reference every
  // later sweep of it must reproduce bit for bit; its candidate totals must
  // equal the sequential join's.
  std::vector<std::vector<StatusOr<JoinResult>>> reference;
  int64_t failures = 0;
  for (size_t k = 0; k < inputs.size(); ++k) {
    reference.push_back(driver.RunAll(joins[k], configs));
    const auto expected =
        static_cast<int64_t>(inputs[k].oracle.candidates.size());
    for (const StatusOr<JoinResult>& result : reference.back()) {
      ++report->attempted;
      if (!result.ok() || result->stats.total_candidates != expected) {
        ++failures;
      }
    }
  }
  report->Fail(failures, "simulated join candidate total");

  std::vector<double> samples;
  int64_t diverged = 0;
  const int64_t start = NowNs();
  const auto horizon = static_cast<int64_t>(seconds * 1e9);
  for (int64_t end = start; end - start < horizon;) {
    const size_t k = samples.size() % inputs.size();
    const int64_t begin = NowNs();
    const std::vector<StatusOr<JoinResult>> results =
        driver.RunAll(joins[k], configs);
    end = NowNs();
    samples.push_back(static_cast<double>(end - begin) * 1e-6);
    tracer.Span(kMainTrack, trace::Category::kTask, "ExperimentDriver::RunAll",
                begin, end, static_cast<int64_t>(configs.size()));
    for (size_t i = 0; i < results.size(); ++i) {
      ++report->attempted;
      if (!results[i].ok() || !reference[k][i].ok() ||
          !(*results[i] == *reference[k][i])) {
        ++diverged;
      }
    }
  }
  report->Fail(diverged, "simulated join not bit-identical to the first sweep");
  report->EndToEnd("latency_p50_ms", Median(samples), "ms");
  // About 11 sweeps in 8 s leave no percentile with 10 beyond it; p90 is
  // the second slowest.
  report->EndToEnd("latency_tail_ms", Quantile(samples, 0.90), "ms");
  report->EndToEnd("ops_measured", static_cast<double>(samples.size()),
                   "count");
}

void CountRungFailures(const RungOutcome& rung, Report* report) {
  report->Fail(rung.rejected, "rejected at admission");
  report->Fail(rung.deadline_missed, "deadline missed");
  report->Fail(rung.lost, "callback lost");
  report->Fail(rung.duplicated, "callback duplicated");
  report->Fail(rung.mismatched, "result differs from the oracle");
}

RungOutcome RunServeWorkload(const QueryMix& mix, const Maps& maps,
                             const Oracle& oracle, uint64_t seed,
                             double seconds, const Tracer& tracer,
                             Report* report) {
  RungConfig config = MixRung(mix, seconds);
  config.trace_sample_every = tracer.on() ? 64 : 0;
  const RungOutcome rung = RunRung(maps, oracle, mix, config, seed, tracer);
  report->attempted += rung.submitted;
  CountRungFailures(rung, report);
  report->EndToEnd("latency_p50_ms", rung.p50_us * 1e-3, "ms");
  report->EndToEnd("latency_tail_ms", rung.window_p99_us * 1e-3, "ms");
  report->EndToEnd("ops_measured", static_cast<double>(rung.measured),
                   "count");
  return rung;
}

}  // namespace psj::perfbench
