#include "spans.hpp"

#include <fstream>

namespace rcons_bench {
namespace {

thread_local Tracer::Buffer* t_buffer = nullptr;

constexpr const char* kLayerMetrics[] = {
    "bench.glue_s",           "spec.parse_s",
    "reduction.canonicalize_s", "reduction.cache_lookup_s",
    "reduction.cache_store_s",  "analysis.bounds_s",
    "hierarchy.discerning_s",   "hierarchy.recording_s",
    "serve.render_s",           "valency.safety_s",
    "valency.liveness_s",       "trace.capture_s",
    "campaign.instantiate_s",   "campaign.checkpoint_s",
    "serve.request_s",
};
static_assert(std::size(kLayerMetrics) == static_cast<int>(Layer::kCount));

}  // namespace

const char* layer_metric(Layer layer) {
  return kLayerMetrics[static_cast<int>(layer)];
}

void Tracer::attach() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.emplace_back();
  t_buffer = &buffers_.back();
}

void Tracer::detach() { t_buffer = nullptr; }

void Tracer::set_request(std::uint32_t request) {
  if (t_buffer != nullptr) t_buffer->request = request;
}

// Callers read the buffers only while no attached thread is recording
// (between passes, after the serve clients have joined).
std::array<double, static_cast<int>(Layer::kCount)> Tracer::self_seconds()
    const {
  std::array<double, static_cast<int>(Layer::kCount)> self{};
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Buffer& b : buffers_) {
    std::vector<std::int64_t> child_ns(b.spans.size(), 0);
    for (const SpanRecord& s : b.spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const SpanRecord& s = b.spans[i];
      self[static_cast<int>(s.layer)] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
  }
  return self;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Buffer& b : buffers_) b.spans.clear();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const Buffer& b : buffers_) {
    for (const SpanRecord& s : b.spans) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  out << "thread index parent request layer start_ns end_ns\n";
  int thread = 0;
  for (const Buffer& b : buffers_) {
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const SpanRecord& s = b.spans[i];
      out << thread << ' ' << i << ' ' << s.parent << ' ' << s.request << ' '
          << layer_metric(s.layer) << ' ' << s.start_ns - origin << ' '
          << s.end_ns - origin << '\n';
    }
    ++thread;
  }
  return static_cast<bool>(out);
}

Span::Span(Layer layer) : buffer_(t_buffer) {
  if (buffer_ == nullptr) return;
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(
      SpanRecord{now_ns(), 0, buffer_->open, buffer_->request, layer});
  buffer_->open = index_;
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  SpanRecord& s = buffer_->spans[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  buffer_->open = s.parent;
}

}  // namespace rcons_bench
