#include "perfbench/serve_load.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "serve/batch_descent.h"

namespace psj::perfbench {

QueryMix HotspotMix() {
  QueryMix mix;
  mix.qps = 100'000;
  return mix;
}

QueryMix UniformMix() {
  QueryMix mix;
  mix.window_side = 0.003;
  mix.knn_frac = 0.20;
  mix.hotspot_frac = 0.0;
  mix.deadline_us = 50'000;
  mix.qps = 50'000;
  return mix;
}

QueryGen::QueryGen(const QueryMix& mix, const Rect& domain, uint64_t seed)
    : mix_(mix),
      domain_(domain),
      side_x_(domain.Width() * mix.window_side),
      side_y_(domain.Height() * mix.window_side),
      rng_(seed) {
  // The hot square sits off-centre, inside the populated part of the map.
  const double hx = domain.xl + 0.37 * domain.Width();
  const double hy = domain.yl + 0.41 * domain.Height();
  hot_ = Rect(hx, hy, hx + domain.Width() * mix.hotspot_side,
              hy + domain.Height() * mix.hotspot_side);
}

Point QueryGen::Center() {
  const Rect& from = rng_.NextDouble() < mix_.hotspot_frac ? hot_ : domain_;
  return Point{rng_.NextDoubleInRange(from.xl, from.xu),
               rng_.NextDoubleInRange(from.yl, from.yu)};
}

serve::TreeTarget QueryGen::Target() {
  return rng_.NextBool(0.5) ? serve::TreeTarget::kTreeR
                            : serve::TreeTarget::kTreeS;
}

serve::QueryDescriptor QueryGen::Region() {
  const Point c = Center();
  serve::QueryDescriptor d = serve::QueryDescriptor::JoinRegion(
      Rect(c.x - side_x_, c.y - side_y_, c.x + side_x_, c.y + side_y_));
  d.deadline_micros = mix_.deadline_us;
  return d;
}

serve::QueryDescriptor QueryGen::Next() {
  const double u = rng_.NextDouble();
  if (u < mix_.join_frac) {
    return Region();
  }
  serve::QueryDescriptor d;
  if (u < mix_.join_frac + mix_.knn_frac) {
    d = serve::QueryDescriptor::Knn(
        Center(), static_cast<uint32_t>(rng_.NextInRange(1, 16)), Target());
  } else if (u < mix_.join_frac + mix_.knn_frac + mix_.point_frac) {
    d = serve::QueryDescriptor::PointProbe(Center(), Target());
  } else {
    const Point c = Center();
    d = serve::QueryDescriptor::Window(
        Rect(c.x - side_x_ / 2, c.y - side_y_ / 2, c.x + side_x_ / 2,
             c.y + side_y_ / 2),
        Target());
  }
  d.deadline_micros = mix_.deadline_us;
  return d;
}

RungConfig MixRung(const QueryMix& mix, double seconds) {
  RungConfig config;
  config.qps = mix.qps;
  config.seconds = seconds;
  config.warmup_s = std::min(0.5, seconds / 4);
  return config;
}

namespace {

/// Every kVerifyEvery-th request is checked against the oracles.
constexpr uint32_t kVerifyEvery = 50;

/// The service configuration of every rung: 2 workers (with the submitting
/// thread, 3 busy threads on the 4-core reference host), batching with a
/// 200 us window and batches of up to 256, a 65,536-deep queue.
serve::ServiceConfig BenchServiceConfig() {
  serve::ServiceConfig config;
  config.num_threads = 2;
  config.batching = true;
  config.batch_window_micros = 200;
  config.max_batch = 256;
  config.queue_capacity = 65'536;
  return config;
}

/// Per-request record of one rung, one slot per generated request. The
/// submitting thread writes the submit fields; the first callback of a
/// request writes the completion fields. Everything is read after Stop()
/// joined the workers.
struct RequestLog {
  explicit RequestLog(size_t n)
      : submit_begin_ns(n),
        submit_ns(n),
        callback_ns(n),
        queue_wait_us(n),
        latency_us(n),
        status(n, kNone),
        callbacks(new std::atomic<uint8_t>[n]),
        samples(n / kVerifyEvery + 1) {
    for (size_t i = 0; i < n; ++i) {
      // order: relaxed — initialised before the service starts; Start()'s
      // thread creation publishes it to the workers.
      callbacks[i].store(0, std::memory_order_relaxed);
    }
  }

  enum Status : uint8_t { kNone, kOk, kDeadline, kRejected };

  void Deliver(uint32_t i, serve::QueryResult result) {
    const int64_t now = NowNs();
    // order: relaxed — the count only detects lost and duplicate callbacks;
    // it is read after Stop() joined the workers. Only the first callback
    // of a request writes its slot.
    if (callbacks[i].fetch_add(1, std::memory_order_relaxed) != 0) {
      return;
    }
    callback_ns[i] = now;
    queue_wait_us[i] = static_cast<int32_t>(result.queue_wait_micros);
    latency_us[i] = static_cast<int32_t>(result.latency_micros);
    status[i] = result.status == serve::QueryStatus::kOk ? kOk : kDeadline;
    if (i % kVerifyEvery == 0) {
      samples[i / kVerifyEvery] = std::move(result);
    }
  }

  std::vector<int64_t> submit_begin_ns;
  std::vector<int32_t> submit_ns;
  std::vector<int64_t> callback_ns;
  std::vector<int32_t> queue_wait_us;
  std::vector<int32_t> latency_us;
  std::vector<uint8_t> status;
  std::unique_ptr<std::atomic<uint8_t>[]> callbacks;
  std::vector<uint64_t> query_id;  // Only when request spans are sampled.
  std::vector<serve::QueryResult> samples;  // Every kVerifyEvery-th result.
};

bool SameIds(std::vector<uint64_t> got, std::vector<uint64_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

/// Set-equality of one completed result against the single-query oracles.
bool MatchesOracle(const Maps& maps, const Oracle& oracle,
                   const serve::QueryDescriptor& d,
                   const serve::QueryResult& result) {
  const RStarTree& tree =
      d.target == serve::TreeTarget::kTreeR ? maps.tree_r : maps.tree_s;
  switch (d.type) {
    case serve::QueryType::kWindow:
    case serve::QueryType::kPoint:
      return SameIds(result.ids, tree.WindowQuery(d.rect));
    case serve::QueryType::kKnn: {
      const auto want = tree.KnnQuery(d.point, d.k);
      if (want.size() != result.neighbors.size()) {
        return false;
      }
      for (size_t i = 0; i < want.size(); ++i) {
        if (want[i].object_id != result.neighbors[i].object_id ||
            want[i].distance != result.neighbors[i].distance) {
          return false;
        }
      }
      return true;
    }
    case serve::QueryType::kJoinRegion: {
      std::vector<std::pair<uint64_t, uint64_t>> want;
      for (const auto& [r, s] : oracle.candidates) {
        if (serve::TripleIntersects(oracle.rects_r[r], oracle.rects_s[s],
                                    d.rect)) {
          want.emplace_back(r, s);
        }
      }
      std::vector<std::pair<uint64_t, uint64_t>> got = result.pairs;
      std::sort(got.begin(), got.end());
      return got == want;  // `want` inherits the oracle's sorted order.
    }
  }
  return false;
}

/// Request spans the service recorded for sampled admissions, by query id:
/// (admitted_us, completed_us) on the service's clock.
std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> SampledSpans(
    const trace::TraceSink& sink) {
  std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> spans;
  for (const trace::TraceEvent& e : sink.events()) {
    if (e.category == trace::Category::kRequest) {
      spans[static_cast<uint64_t>(e.arg0)] = {e.start, e.end};
    }
  }
  return spans;
}

}  // namespace

RungOutcome RunRung(const Maps& maps, const Oracle& oracle,
                    const QueryMix& mix, const RungConfig& config,
                    uint64_t seed, const Tracer& tracer) {
  // Inputs first: descriptors and Poisson due times (ns after the start).
  // Request i sends queries[i % kQueryPool]: a pool keeps the rung's memory
  // at a few bytes per request however long it runs.
  constexpr size_t kQueryPool = size_t{1} << 16;
  QueryGen gen(mix, MapDomain(maps), seed);
  std::vector<serve::QueryDescriptor> queries;
  queries.reserve(kQueryPool);
  while (queries.size() < kQueryPool) {
    queries.push_back(gen.Next());
  }
  Rng arrivals(seed ^ 0x9e3779b97f4a7c15ull);
  const auto horizon_ns = static_cast<int64_t>(config.seconds * 1e9);
  const double mean_gap_ns = 1e9 / config.qps;
  std::vector<int64_t> due_ns;
  due_ns.reserve(static_cast<size_t>(config.qps * config.seconds * 1.05));
  for (double t = arrivals.NextExponential(mean_gap_ns);
       t < static_cast<double>(horizon_ns);
       t += arrivals.NextExponential(mean_gap_ns)) {
    due_ns.push_back(static_cast<int64_t>(t));
  }
  const size_t n = due_ns.size();
  RequestLog log(n);
  if (config.trace_sample_every > 0) {
    log.query_id.assign(n, 0);
  }

  serve::ServiceConfig service_config = BenchServiceConfig();
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (config.registry) {
    registry = std::make_unique<obs::MetricsRegistry>(
        service_config.num_threads + 1);
    service_config.metrics = registry.get();
  }
  trace::TraceSink service_sink;
  if (config.trace_sample_every > 0) {
    service_config.trace = &service_sink;
    service_config.trace_sample_every = config.trace_sample_every;
  }

  RungOutcome out;
  // The service's clock starts inside its constructor; the bracket bounds
  // where, for mapping its span timestamps onto the harness clock.
  int64_t epoch_lo = NowNs();
  serve::SpatialQueryService service(&maps.tree_r, &maps.tree_s,
                                     service_config);
  int64_t epoch_hi = NowNs();
  service.Start();

  const int64_t start_ns = NowNs() + 1'000'000;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + due_ns[i];
    while (NowNs() < due) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    const auto index = static_cast<uint32_t>(i);
    RequestLog* const slot = &log;
    const int64_t begin = NowNs();
    const serve::Submission submission = service.Submit(
        queries[i % kQueryPool], [slot, index](serve::QueryResult result) {
          slot->Deliver(index, std::move(result));
        });
    log.submit_ns[i] = static_cast<int32_t>(NowNs() - begin);
    log.submit_begin_ns[i] = begin;
    if (!submission.accepted) {
      log.status[i] = RequestLog::kRejected;
    } else if (!log.query_id.empty()) {
      log.query_id[i] = submission.query_id;
    }
  }
  const int64_t submit_done_ns = NowNs();
  service.Stop();
  out.stats = service.Stats();
  tracer.Span(kMainTrack, trace::Category::kTask, "serve rung", start_ns,
              submit_done_ns, static_cast<int64_t>(config.qps),
              static_cast<int64_t>(n));

  // Callback accounting and due-time latency; failures count as +inf.
  const auto warmup_ns = static_cast<int64_t>(config.warmup_s * 1e9);
  constexpr int64_t kWindowNs = 500'000'000;
  const int64_t num_windows = (horizon_ns - warmup_ns) / kWindowNs;
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(std::max<int64_t>(num_windows, 0)));
  // Stage quantiles come from every kStageSample-th request.
  constexpr size_t kStageSample = 8;
  std::vector<double> measured;
  std::vector<double> lag_us;
  std::vector<double> submit_ns;
  std::vector<double> queue_wait_us;
  std::vector<double> exec_us;
  measured.reserve(n);
  out.submitted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const double lag =
        static_cast<double>(log.submit_begin_ns[i] - start_ns - due_ns[i]) *
        1e-3;
    out.gen_lag_max_us = std::max(out.gen_lag_max_us, lag);
    const bool stage_sample = i % kStageSample == 0;
    if (stage_sample) {
      lag_us.push_back(lag);
      submit_ns.push_back(static_cast<double>(log.submit_ns[i]));
    }
    // order: relaxed — the workers were joined by Stop().
    const uint8_t calls = log.callbacks[i].load(std::memory_order_relaxed);
    bool ok = false;
    if (log.status[i] == RequestLog::kRejected) {
      ++out.rejected;
    } else if (calls == 0) {
      ++out.lost;
    } else {
      if (calls > 1) {
        ++out.duplicated;
      } else if (log.status[i] == RequestLog::kDeadline) {
        ++out.deadline_missed;
      } else {
        ok = true;
      }
      if (stage_sample) {
        queue_wait_us.push_back(static_cast<double>(log.queue_wait_us[i]));
        exec_us.push_back(
            static_cast<double>(log.latency_us[i] - log.queue_wait_us[i]));
      }
    }
    if (due_ns[i] < warmup_ns) {
      continue;
    }
    const double latency =
        ok ? static_cast<double>(log.callback_ns[i] - start_ns - due_ns[i]) *
                 1e-3
           : kInf;
    measured.push_back(latency);
    const int64_t w = (due_ns[i] - warmup_ns) / kWindowNs;
    if (w < num_windows) {
      windows[static_cast<size_t>(w)].push_back(latency);
    }
  }
  out.measured = static_cast<int64_t>(measured.size());
  out.p50_us = Median(measured);
  out.p99_us = Quantile(measured, 0.99);
  std::vector<double> window_p99;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) {
      window_p99.push_back(Quantile(window, 0.99));
    }
  }
  out.window_p99_us = window_p99.empty() ? out.p99_us : Median(window_p99);
  out.gen_lag_p99_us = Quantile(lag_us, 0.99);
  out.submit_ns_mean = Mean(submit_ns);
  out.queue_wait_p50_us = Median(queue_wait_us);
  out.queue_wait_p99_us = Quantile(queue_wait_us, 0.99);
  out.exec_p50_us = Median(exec_us);
  out.exec_p99_us = Quantile(exec_us, 0.99);

  // Sampled results against the single-query oracles.
  for (size_t i = 0; i < n; i += kVerifyEvery) {
    if (log.status[i] != RequestLog::kOk) {
      continue;  // Already a failure; a partial result promises nothing.
    }
    if (!MatchesOracle(maps, oracle, queries[i % kQueryPool],
                       log.samples[i / kVerifyEvery])) {
      ++out.mismatched;
    }
  }

  if (config.trace_sample_every == 0) {
    return out;
  }
  // Stage breakdown over the sampled requests. Narrow the service-epoch
  // bracket with every sample: admission happened inside Submit(), at a
  // whole microsecond `admitted` of the service clock.
  const auto spans = SampledSpans(service_sink);
  struct Sampled {
    size_t index;
    int64_t admitted_us;
    int64_t completed_us;
  };
  std::vector<Sampled> sampled;
  for (size_t i = 0; i < n; ++i) {
    if (log.query_id.empty() || log.query_id[i] == 0 ||
        log.status[i] != RequestLog::kOk) {
      continue;
    }
    const auto it = spans.find(log.query_id[i]);
    if (it == spans.end()) {
      continue;
    }
    const auto [admitted, completed] = it->second;
    epoch_lo = std::max(epoch_lo,
                        log.submit_begin_ns[i] - (admitted + 1) * 1000);
    epoch_hi = std::min(
        epoch_hi, log.submit_begin_ns[i] + log.submit_ns[i] - admitted * 1000);
    sampled.push_back(Sampled{i, admitted, completed});
  }
  const int64_t epoch = epoch_lo + (epoch_hi - epoch_lo) / 2;
  std::vector<double> lag, submit, wait, exec, deliver, total;
  for (const Sampled& s : sampled) {
    const size_t i = s.index;
    const int64_t due = start_ns + due_ns[i];
    const int64_t begin = log.submit_begin_ns[i];
    const int64_t end = begin + log.submit_ns[i];
    // Admission happened inside Submit(); the rest of the call overlaps
    // the queue wait, so the submit stage ends at admission.
    const int64_t admitted_ns =
        std::clamp(epoch + s.admitted_us * 1000 + 500, begin, end);
    const int64_t completed_ns = epoch + s.completed_us * 1000 + 500;
    lag.push_back(static_cast<double>(begin - due) * 1e-3);
    submit.push_back(static_cast<double>(admitted_ns - begin) * 1e-3);
    wait.push_back(static_cast<double>(log.queue_wait_us[i]));
    exec.push_back(
        static_cast<double>(log.latency_us[i] - log.queue_wait_us[i]));
    deliver.push_back(static_cast<double>(log.callback_ns[i] - completed_ns) *
                      1e-3);
    total.push_back(static_cast<double>(log.callback_ns[i] - due) * 1e-3);
    if (tracer.on()) {
      // One parent span per sampled request; its stages share the id.
      const auto id = static_cast<int64_t>(i);
      const int32_t track = 100 + static_cast<int32_t>(total.size() % 16);
      const int64_t started_ns =
          admitted_ns + int64_t{log.queue_wait_us[i]} * 1000;
      tracer.Span(track, trace::Category::kRequest, "request", due,
                  log.callback_ns[i], id);
      tracer.Span(track, trace::Category::kQueueWait, "gen lag", due, begin,
                  id);
      tracer.Span(track, trace::Category::kTask, "Submit", begin,
                  admitted_ns, id);
      tracer.Span(track, trace::Category::kQueueWait, "queue wait",
                  admitted_ns, started_ns, id);
      tracer.Span(track, trace::Category::kTask, "execute", started_ns,
                  completed_ns, id);
      tracer.Span(track, trace::Category::kTask, "deliver", completed_ns,
                  log.callback_ns[i], id);
    }
  }
  StageBreakdown& stages = out.stages;
  stages.lag_us = Mean(lag);
  stages.submit_us = Mean(submit);
  stages.queue_wait_us = Mean(wait);
  stages.exec_us = Mean(exec);
  stages.deliver_us = Mean(deliver);
  stages.deliver_us_p50 = Median(deliver);
  stages.latency_us = Mean(total);
  if (tracer.on()) {
    // The service's own batch spans, shifted onto the harness clock.
    for (const trace::TraceEvent& e : service_sink.events()) {
      if (e.category == trace::Category::kTask) {
        tracer.Span(50 + e.track, e.category, e.name, epoch + e.start * 1000,
                    epoch + e.end * 1000, e.arg0, e.arg1);
      }
    }
  }
  return out;
}

}  // namespace psj::perfbench
