#include "trace/trace_sink.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace psj::trace {

std::string_view ToString(Category category) {
  switch (category) {
    case Category::kTask:
      return "task";
    case Category::kTaskCreation:
      return "task-creation";
    case Category::kNodePair:
      return "node-pair";
    case Category::kRefinement:
      return "refinement";
    case Category::kBufferLocalHit:
      return "buffer-local-hit";
    case Category::kBufferRemoteHit:
      return "buffer-remote-hit";
    case Category::kBufferMiss:
      return "buffer-miss";
    case Category::kPathBufferHit:
      return "path-buffer-hit";
    case Category::kDiskQueue:
      return "disk-queue";
    case Category::kDiskService:
      return "disk-service";
    case Category::kSteal:
      return "steal";
    case Category::kStealRequest:
      return "steal-request";
    case Category::kStealFail:
      return "steal-fail";
    case Category::kProcess:
      return "process";
    case Category::kRequest:
      return "request";
    case Category::kQueueWait:
      return "queue-wait";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

int BucketOf(TraceTime value) {
  if (value <= 0) {
    return 0;
  }
  // Bucket i >= 1 holds [2^(i-1), 2^i); 63-clz is floor(log2).
  const int log2 =
      63 - __builtin_clzll(static_cast<unsigned long long>(value));
  return std::min(log2 + 1, Histogram::kNumBuckets - 1);
}

}  // namespace

void Histogram::Record(TraceTime value) {
  PSJ_CHECK_GE(value, 0);
  ++counts_[static_cast<size_t>(BucketOf(value))];
  if (total_count_ == 0 || value < min_) {
    min_ = value;
  }
  max_ = std::max(max_, value);
  sum_ += value;
  ++total_count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.total_count_ == 0) {
    return;
  }
  if (total_count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  total_count_ += other.total_count_;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts_[static_cast<size_t>(i)] +=
        other.counts_[static_cast<size_t>(i)];
  }
}

TraceTime Histogram::ValueAtQuantile(double q) const {
  if (total_count_ == 0) {
    return 0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the requested sample, 1-based; q = 0 asks for the first.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(q * static_cast<double>(total_count_))));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t n = counts_[static_cast<size_t>(i)];
    if (n == 0) {
      continue;
    }
    if (seen + n < rank) {
      seen += n;
      continue;
    }
    // The sample lies in bucket i = [lower, upper); interpolate linearly by
    // its position among the bucket's samples, then clamp into the observed
    // range so a single-sample histogram reports the sample itself.
    const TraceTime lower = BucketLowerBound(i);
    const TraceTime upper =
        i == 0 ? TraceTime{0} : BucketLowerBound(i + 1) - 1;
    const double fraction =
        static_cast<double>(rank - seen) / static_cast<double>(n);
    TraceTime value =
        lower + static_cast<TraceTime>(
                    fraction * static_cast<double>(upper - lower));
    value = std::max(value, min());
    value = std::min(value, max_);
    return value;
  }
  return max_;
}

TraceTime Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return TraceTime{1} << (bucket - 1);
}

Histogram Histogram::FromBuckets(const int64_t counts[kNumBuckets],
                                 TraceTime sum, TraceTime min,
                                 TraceTime max) {
  Histogram h;
  for (int i = 0; i < kNumBuckets; ++i) {
    const int64_t n = counts[static_cast<size_t>(i)];
    PSJ_CHECK_GE(n, 0);
    h.counts_[static_cast<size_t>(i)] = n;
    h.total_count_ += n;
  }
  if (h.total_count_ > 0) {
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
  }
  return h;
}

int Histogram::HighestBucket() const {
  for (int i = kNumBuckets - 1; i >= 0; --i) {
    if (counts_[static_cast<size_t>(i)] > 0) {
      return i;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// TraceSink registries
// ---------------------------------------------------------------------------

Histogram* TraceSink::histogram(std::string_view name) {
  const auto it = histogram_index_.find(std::string(name));
  if (it != histogram_index_.end()) {
    return histograms_[it->second].get();
  }
  const size_t index = histograms_.size();
  histogram_names_.emplace_back(name);
  histograms_.push_back(std::make_unique<Histogram>());
  histogram_index_.emplace(std::string(name), index);
  return histograms_[index].get();
}

const Histogram* TraceSink::FindHistogram(std::string_view name) const {
  const auto it = histogram_index_.find(std::string(name));
  return it == histogram_index_.end() ? nullptr
                                      : histograms_[it->second].get();
}

void TraceSink::SetTrackName(int32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

std::string TraceSink::TrackName(int32_t track) const {
  const auto it = track_names_.find(track);
  if (it != track_names_.end()) {
    return it->second;
  }
  return "track " + std::to_string(track);
}

std::vector<int32_t> TraceSink::Tracks() const {
  std::vector<int32_t> tracks;
  tracks.reserve(track_names_.size());
  for (const auto& [track, name] : track_names_) {
    tracks.push_back(track);
  }
  for (const TraceEvent& event : events_) {
    tracks.push_back(event.track);
  }
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  return tracks;
}

}  // namespace psj::trace
