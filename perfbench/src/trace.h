// In-memory spans for the traced run. The benchmark puts one span around
// each public call it makes into a layer (name "<layer>.<call>"), plus a
// root span "op" per traced operation; a RequestHandler wrapper records
// the server-side span of the same operation. Spans are kept in memory
// and written out once the run ends.
//
// A span's parent is its logical caller. Calls the benchmark replays on
// a side state to split a server's opaque Handle into layers (parse,
// plan, execute, ...) name the Handle span as parent although they run
// after it; self time subtracts children by duration, so those replays
// move time from the server's self time to their own layers.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/server/server.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t op = -1;
  int32_t id = -1;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Span recorder. Thread-safe: server worker threads record the
/// server-side spans while the replay thread waits for the reply.
class Tracer {
 public:
  Tracer();

  /// Opens a span; returns its id, or -1 when tracing is off (`op` < 0).
  int32_t Begin(const char* name, int32_t parent, int64_t op);
  void End(int32_t id);

  /// The operation in flight and its root span, read by SpanHandler.
  /// The traced replay runs one operation at a time, so one slot is
  /// enough. op < 0 means "not traced".
  void SetCurrent(int64_t op, int32_t root);
  int64_t current_op() const { return op_.load(); }
  int32_t current_root() const { return root_.load(); }
  /// The most recent server-side span (parent of the replayed layers).
  int32_t last_server_span() const { return last_server_.load(); }
  void set_last_server_span(int32_t id) { last_server_.store(id); }

  std::vector<Span> spans() const;
  /// Duration of a closed span (0 for id -1).
  double DurationMs(int32_t id) const;

  /// Writes every span as JSON to `path`.
  bool WriteJson(const std::string& path, const std::string& header) const;

 private:
  int64_t Now() const;

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int64_t> op_{-1};
  std::atomic<int32_t> root_{-1};
  std::atomic<int32_t> last_server_{-1};
};

/// RAII span: `Scope s(tracer, "engine.plan", parent, op);`.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int32_t parent, int64_t op)
      : t_(t), id_(t.Begin(name, parent, op)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& t_;
  int32_t id_;
};

/// Wraps a server's RequestHandler and records `name` around each Handle
/// of a traced operation.
class SpanHandler : public seqdl::RequestHandler {
 public:
  SpanHandler(seqdl::RequestHandler& inner, Tracer& tracer, const char* name)
      : inner_(inner), tracer_(tracer), name_(name) {}

  std::string Handle(const std::string& payload,
                     const std::function<bool()>& cancel,
                     bool* shutdown) override;

 private:
  seqdl::RequestHandler& inner_;
  Tracer& tracer_;
  const char* name_;
};

/// Per-name and per-layer sums over a span list.
struct SpanSummary {
  struct Agg {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Agg> by_name;   ///< "engine.plan" -> ...
  std::map<std::string, Agg> by_layer;  ///< "engine" -> ... ("op" = roots)
  /// Per root: duration minus its direct children, summed.
  double unattributed_ms = 0;
  uint64_t roots = 0;
};
SpanSummary Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
