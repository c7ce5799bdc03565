// In-memory spans recorded by the benchmark around its calls into the
// rcons libraries (README.md, "Traced run").
//
// A span names the layer whose public function the driver called. Spans
// nest per thread: a span opened while another is open on the same
// thread becomes its child, so a layer's self time is its spans'
// durations minus the part their child spans cover. The verdict-cache
// spans, for example, are opened by the driver's VerdictCache subclass
// while the hierarchy decider that called it is still open, so cache
// time is carved out of the decider's self time.
//
// Recording is off unless a thread has attached to a Tracer; an
// unattached Span is two thread-local loads, so the untraced passes of a
// traced run pay next to nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace rcons_bench {

/// The layers the driver times. kPass is the root span of one timed pass;
/// its self time is the driver's own glue between calls.
enum class Layer : std::uint8_t {
  kPass,
  kParse,          // spec: read + parse a .type file
  kCanonicalize,   // reduction::canonicalize_type
  kCacheLookup,    // reduction::VerdictCache::lookup
  kCacheStore,     // reduction::VerdictCache::store
  kBounds,         // analysis::analyze_static_bounds
  kDiscerning,     // hierarchy::discerning_level
  kRecording,      // hierarchy::recording_level
  kRender,         // serve::profile_json / profile_text
  kSafety,         // valency::check_safety
  kLiveness,       // valency::check_recoverable_wait_freedom
  kCapture,        // trace::capture_safety / capture_liveness
  kInstantiate,    // campaign::instantiate_genome
  kCheckpoint,     // campaign::write_checkpoint
  kRequest,        // one serve round trip, as the client sees it
  kCount,
};

/// The per-layer metric name of a layer's self time ("spec.parse_s").
const char* layer_metric(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same thread's buffer
  std::uint32_t request = 0;
  Layer layer = Layer::kPass;
};

/// Collects the spans of every attached thread.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Attaches the calling thread: its Spans record into a buffer of its
  /// own until detach(). Call detach() before the Tracer dies.
  void attach();
  static void detach();

  /// Sets the request id stamped on spans the calling thread opens next.
  static void set_request(std::uint32_t request);

  /// Self time per layer, in seconds, over every span recorded so far.
  std::array<double, static_cast<int>(Layer::kCount)> self_seconds() const;

  /// Drops every recorded span (the buffers stay attached).
  void clear();

  /// Writes every span, one per line: thread, index, parent, request,
  /// layer metric, start and end (ns, relative to the first span).
  bool write(const std::string& path) const;

  struct Buffer {
    std::vector<SpanRecord> spans;
    std::int32_t open = -1;
    std::uint32_t request = 0;
  };

 private:
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;  // deque: attached addresses stay valid
};

/// RAII span on the calling thread; a no-op when it is not attached.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buffer_;
  std::int32_t index_ = -1;
};

}  // namespace rcons_bench
