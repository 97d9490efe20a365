#include "serve/service.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.h"

namespace psj::serve {

std::string_view ToString(QueryType type) {
  switch (type) {
    case QueryType::kWindow: return "window";
    case QueryType::kPoint: return "point";
    case QueryType::kKnn: return "knn";
    case QueryType::kJoinRegion: return "join-region";
  }
  return "?";
}

std::string_view ToString(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kStopped: return "stopped";
    case RejectReason::kInvalid: return "invalid";
  }
  return "?";
}

std::string_view ToString(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

namespace {

bool DescriptorValid(const QueryDescriptor& d) {
  switch (d.type) {
    case QueryType::kWindow:
    case QueryType::kJoinRegion:
      return d.rect.IsValid();
    case QueryType::kKnn:
      return d.k > 0;
    case QueryType::kPoint:
      return true;
  }
  return false;
}

}  // namespace

SpatialQueryService::SpatialQueryService(const RStarTree* tree_r,
                                         const RStarTree* tree_s,
                                         ServiceConfig config)
    : tree_r_(tree_r),
      tree_s_(tree_s),
      config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      owned_registry_(config_.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>(
                                config_.num_threads + 1)
                          : nullptr),
      registry_(owned_registry_ != nullptr ? owned_registry_.get()
                                           : config_.metrics) {
  PSJ_CHECK(tree_r_ != nullptr && tree_s_ != nullptr);
  // The service queries the sealed images; sealed() aborts on an unsealed
  // tree here rather than in a worker.
  tree_r_->sealed();
  tree_s_->sealed();
  PSJ_CHECK_GT(config_.num_threads, 0);
  PSJ_CHECK_GT(config_.max_batch, 0u);
  PSJ_CHECK_GE(config_.trace_sample_every, 0);
  obs::MetricsRegistry& m = *registry_;
  metrics_.submitted = m.DefineCounter("serve_submitted_count");
  metrics_.accepted = m.DefineCounter("serve_accepted_count");
  metrics_.rejected_queue_full =
      m.DefineCounter("serve_rejected_queue_full_count");
  metrics_.rejected_stopped = m.DefineCounter("serve_rejected_stopped_count");
  metrics_.rejected_invalid = m.DefineCounter("serve_rejected_invalid_count");
  metrics_.completed_ok = m.DefineCounter("serve_completed_ok_count");
  metrics_.deadline_miss = m.DefineCounter("serve_deadline_miss_count");
  metrics_.batches = m.DefineCounter("serve_batches_count");
  metrics_.batched_queries = m.DefineCounter("serve_batched_queries_count");
  metrics_.nodes_visited = m.DefineCounter("serve_nodes_visited_count");
  metrics_.node_scans = m.DefineCounter("serve_node_scans_count");
  metrics_.entry_tests = m.DefineCounter("serve_entry_tests_count");
  metrics_.pairs_grouped = m.DefineCounter("serve_pairs_grouped_count");
  metrics_.queue_depth = m.DefineGauge("serve_queue_depth_count");
  metrics_.peak_queue_depth = m.DefineGauge("serve_peak_queue_depth_count");
  metrics_.latency_us = m.DefineHistogram("serve_latency_us");
  metrics_.queue_wait_us = m.DefineHistogram("serve_queue_wait_us");
  metrics_.batch_size = m.DefineHistogram("serve_batch_size_count");
}

SpatialQueryService::~SpatialQueryService() { Stop(); }

int64_t SpatialQueryService::Clock() const {
  if (config_.now_micros != nullptr) {
    return config_.now_micros();
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpatialQueryService::Start() {
  util::MutexLock lock(&mu_);
  PSJ_CHECK(!stopping_) << "cannot restart a stopped service";
  if (started_) {
    return;
  }
  started_ = true;
  // Opens the lock-free hot path; metric definitions happened in the
  // constructor, so the construct-everything-then-start-anything rule of
  // MetricsRegistry holds for a registry the caller also defines into.
  registry_->Freeze();
  if (config_.trace != nullptr) {
    // Safe without trace_mu_: no worker exists yet, so nothing else can
    // be writing the sink.
    for (int w = 0; w < config_.num_threads; ++w) {
      config_.trace->SetTrackName(w, "serve worker " + std::to_string(w));
      if (config_.trace_sample_every > 0) {
        config_.trace->SetTrackName(
            RequestTrack(w), "sampled requests (worker " +
                                 std::to_string(w) + ")");
      }
    }
  }
  workers_.reserve(static_cast<size_t>(config_.num_threads));
  for (int w = 0; w < config_.num_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

void SpatialQueryService::Stop() {
  // The stopping_ flip under mu_ elects exactly one joiner, which takes
  // ownership of the worker handles while still holding the lock.
  std::vector<std::thread> workers;
  {
    util::MutexLock lock(&mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    workers = std::move(workers_);
    workers_.clear();
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers) {
    worker.join();
  }
  // Never-started services still honor the exactly-one-callback contract:
  // drain whatever was queued on the calling thread.
  for (;;) {
    std::vector<Pending> batch;
    {
      util::MutexLock lock(&mu_);
      const size_t take = std::min(queue_.size(), config_.max_batch);
      if (take == 0) {
        break;
      }
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    RunBatch(0, std::move(batch));
  }
}

Submission SpatialQueryService::Submit(const QueryDescriptor& descriptor,
                                       Callback callback) {
  obs::MetricsRegistry& m = *registry_;
  if (!m.frozen()) {
    // Submissions are legal before Start(), so the first one freezes the
    // registry, before taking mu_, under which the gauges are set.
    // Freeze() is idempotent: Start() repeating it is harmless.
    m.Freeze();
  }
  Submission submission;
  RejectReason reason = RejectReason::kNone;
  if (!DescriptorValid(descriptor)) {
    reason = RejectReason::kInvalid;
  } else {
    util::MutexLock lock(&mu_);
    if (stopping_) {
      reason = RejectReason::kStopped;
    } else if (queue_.size() >= config_.queue_capacity) {
      reason = RejectReason::kQueueFull;
    } else {
      Pending pending;
      pending.id = next_id_++;
      pending.descriptor = descriptor;
      pending.callback = std::move(callback);
      pending.admitted_us = Clock();
      pending.deadline_us = descriptor.deadline_micros < 0
                                ? -1
                                : pending.admitted_us +
                                      descriptor.deadline_micros;
      // Deterministic sampling by admission id: ids start at 1, so
      // (id - 1) % N == 0 always samples the first accepted query.
      pending.sampled = config_.trace != nullptr &&
                        config_.trace_sample_every > 0 &&
                        (pending.id - 1) %
                                static_cast<uint64_t>(
                                    config_.trace_sample_every) ==
                            0;
      submission.accepted = true;
      submission.query_id = pending.id;
      queue_.push_back(std::move(pending));
      const auto depth = static_cast<int64_t>(queue_.size());
      m.Set(metrics_.queue_depth, depth);
      if (depth > peak_queue_depth_) {
        peak_queue_depth_ = depth;
        m.Set(metrics_.peak_queue_depth, depth);
      }
    }
  }
  submission.reason = reason;
  const int shard = SubmitShard();
  m.Add(shard, metrics_.submitted, 1);
  switch (reason) {
    case RejectReason::kNone:
      m.Add(shard, metrics_.accepted, 1);
      break;
    case RejectReason::kQueueFull:
      m.Add(shard, metrics_.rejected_queue_full, 1);
      break;
    case RejectReason::kStopped:
      m.Add(shard, metrics_.rejected_stopped, 1);
      break;
    case RejectReason::kInvalid:
      m.Add(shard, metrics_.rejected_invalid, 1);
      break;
  }
  if (submission.accepted) {
    cv_.NotifyOne();
  }
  return submission;
}

QueryResult SpatialQueryService::Execute(const QueryDescriptor& descriptor) {
  util::Mutex m;
  util::CondVar done_cv;
  bool done = false;
  QueryResult out;
  const Submission submission =
      Submit(descriptor, [&](QueryResult result) {
        util::MutexLock lock(&m);
        out = std::move(result);
        done = true;
        done_cv.NotifyOne();
      });
  PSJ_CHECK(submission.accepted)
      << "Execute rejected: " << ToString(submission.reason);
  util::MutexLock lock(&m);
  done_cv.Wait(m, [&] { return done; });
  return out;
}

ServiceStats SpatialQueryService::Stats() const {
  const obs::MetricsSnapshot snapshot = registry_->Snapshot();
  const auto counter = [&snapshot](std::string_view name) {
    return snapshot.FindCounter(name)->value;
  };
  const auto histogram = [&snapshot](std::string_view name) {
    return snapshot.FindHistogram(name)->histogram;
  };
  ServiceStats stats;
  stats.submitted = counter("serve_submitted_count");
  stats.accepted = counter("serve_accepted_count");
  stats.rejected_queue_full = counter("serve_rejected_queue_full_count");
  stats.rejected_stopped = counter("serve_rejected_stopped_count");
  stats.rejected_invalid = counter("serve_rejected_invalid_count");
  stats.completed_ok = counter("serve_completed_ok_count");
  stats.deadline_exceeded = counter("serve_deadline_miss_count");
  stats.batches_executed = counter("serve_batches_count");
  stats.batched_queries = counter("serve_batched_queries_count");
  stats.peak_queue_depth =
      snapshot.FindGauge("serve_peak_queue_depth_count")->value;
  stats.descent.nodes_visited = counter("serve_nodes_visited_count");
  stats.descent.node_scans = counter("serve_node_scans_count");
  stats.descent.entry_tests = counter("serve_entry_tests_count");
  stats.descent.pairs_grouped = counter("serve_pairs_grouped_count");
  stats.latency_us = histogram("serve_latency_us");
  stats.queue_wait_us = histogram("serve_queue_wait_us");
  stats.batch_size = histogram("serve_batch_size_count");
  return stats;
}

void SpatialQueryService::WorkerLoop(int worker) {
  std::vector<Pending> batch;
  while (NextBatch(&batch)) {
    RunBatch(worker, std::move(batch));
    batch.clear();
  }
}

bool SpatialQueryService::NextBatch(std::vector<Pending>* batch) {
  util::MutexLock lock(&mu_);
  for (;;) {
    while (!stopping_ && queue_.empty()) {
      cv_.Wait(mu_);
    }
    if (queue_.empty()) {
      return false;  // Stopping and fully drained.
    }
    if (config_.batching && config_.batch_window_micros > 0 &&
        config_.now_micros == nullptr && !stopping_) {
      // Hold the batch open until the oldest query has waited out the
      // admission window (or the batch fills, or shutdown begins). The
      // front may change while we sleep — another worker may claim it —
      // so recompute the horizon every iteration.
      while (!stopping_ && !queue_.empty() &&
             queue_.size() < config_.max_batch) {
        const auto until =
            epoch_ + std::chrono::microseconds(queue_.front().admitted_us +
                                               config_.batch_window_micros);
        if (std::chrono::steady_clock::now() >= until) {
          break;
        }
        cv_.WaitUntil(mu_, until);
      }
      if (queue_.empty()) {
        continue;  // Another worker drained it; wait again.
      }
    }
    const size_t take = config_.batching
                            ? std::min(queue_.size(), config_.max_batch)
                            : 1;
    batch->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    registry_->Set(metrics_.queue_depth,
                   static_cast<int64_t>(queue_.size()));
    return true;
  }
}

void SpatialQueryService::RunBatch(int worker, std::vector<Pending> batch) {
  const int64_t start_us = Clock();
  const size_t n = batch.size();
  std::vector<QueryResult> results(n);

  // The window/point subset per target tree shares one batched descent.
  DescentStats descent_total;
  for (const TreeTarget target : {TreeTarget::kTreeR, TreeTarget::kTreeS}) {
    std::vector<size_t> members;
    std::vector<Rect> windows;
    std::vector<int64_t> deadlines;
    for (size_t i = 0; i < n; ++i) {
      const QueryDescriptor& d = batch[i].descriptor;
      if ((d.type == QueryType::kWindow || d.type == QueryType::kPoint) &&
          d.target == target) {
        members.push_back(i);
        windows.push_back(d.rect);
        deadlines.push_back(batch[i].deadline_us);
      }
    }
    if (members.empty()) {
      continue;
    }
    const RStarTree& tree =
        target == TreeTarget::kTreeR ? *tree_r_ : *tree_s_;
    BatchWindowOutput out;
    DescentStats descent;
    BatchWindowQueries(tree, windows, deadlines,
                       [this] { return Clock(); }, &out, &descent);
    descent_total += descent;
    for (size_t k = 0; k < members.size(); ++k) {
      results[members[k]].ids = std::move(out.ids[k]);
      results[members[k]].complete = out.complete[k];
    }
  }

  // K-probes and join-region queries execute individually, in admission
  // order, under the same deadline clock.
  for (size_t i = 0; i < n; ++i) {
    const Pending& pending = batch[i];
    const QueryDescriptor& d = pending.descriptor;
    if (d.type == QueryType::kKnn) {
      // One indivisible library call: the deadline gates entry only.
      if (pending.deadline_us >= 0 && Clock() >= pending.deadline_us) {
        results[i].complete = false;
      } else {
        const RStarTree& tree =
            d.target == TreeTarget::kTreeR ? *tree_r_ : *tree_s_;
        results[i].neighbors = tree.KnnQuery(d.point, d.k);
      }
    } else if (d.type == QueryType::kJoinRegion) {
      RegionJoinOutput out;
      DescentStats descent;
      RegionJoinQuery(*tree_r_, *tree_s_, d.rect, pending.deadline_us,
                      [this] { return Clock(); }, &out, &descent);
      descent_total += descent;
      results[i].pairs = std::move(out.pairs);
      results[i].complete = out.complete;
    }
  }

  const int64_t end_us = Clock();
  int64_t ok = 0;
  int64_t expired = 0;
  for (size_t i = 0; i < n; ++i) {
    QueryResult& result = results[i];
    result.query_id = batch[i].id;
    result.status = result.complete ? QueryStatus::kOk
                                    : QueryStatus::kDeadlineExceeded;
    result.queue_wait_micros = start_us - batch[i].admitted_us;
    result.latency_micros = end_us - batch[i].admitted_us;
    result.batch_size = static_cast<int64_t>(n);
    (result.complete ? ok : expired) += 1;
  }

  obs::MetricsRegistry& m = *registry_;
  m.Add(worker, metrics_.batches, 1);
  m.Record(worker, metrics_.batch_size, static_cast<int64_t>(n));
  if (n > 1) {
    m.Add(worker, metrics_.batched_queries, static_cast<int64_t>(n));
  }
  m.Add(worker, metrics_.completed_ok, ok);
  m.Add(worker, metrics_.deadline_miss, expired);
  m.Add(worker, metrics_.nodes_visited, descent_total.nodes_visited);
  m.Add(worker, metrics_.node_scans, descent_total.node_scans);
  m.Add(worker, metrics_.entry_tests, descent_total.entry_tests);
  m.Add(worker, metrics_.pairs_grouped, descent_total.pairs_grouped);
  for (size_t i = 0; i < n; ++i) {
    m.Record(worker, metrics_.latency_us, results[i].latency_micros);
    m.Record(worker, metrics_.queue_wait_us, results[i].queue_wait_micros);
  }

  if (config_.trace != nullptr) {
    util::MutexLock lock(&trace_mu_);
    config_.trace->Span(worker, trace::Category::kTask, "serve batch",
                        start_us, end_us, static_cast<int64_t>(n), expired);
    // Sampled per-request spans: the request span covers the whole
    // lifetime (admission -> completion) with its queue wait nested
    // inside, on the worker's request track — so a shared batch's spans
    // are attributed to the individual member queries that rode it.
    for (size_t i = 0; i < n; ++i) {
      if (!batch[i].sampled) {
        continue;
      }
      const int32_t track = RequestTrack(worker);
      const int64_t id = static_cast<int64_t>(batch[i].id);
      config_.trace->Span(track, trace::Category::kRequest, "request",
                          batch[i].admitted_us, end_us, id,
                          static_cast<int64_t>(n));
      if (start_us > batch[i].admitted_us) {
        config_.trace->Span(track, trace::Category::kQueueWait, "queue wait",
                            batch[i].admitted_us, start_us, id, 0);
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (batch[i].callback != nullptr) {
      batch[i].callback(std::move(results[i]));
    }
  }
}

}  // namespace psj::serve
