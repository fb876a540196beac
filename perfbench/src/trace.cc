#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t op) {
  if (op < 0) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.start_ns = Now();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::SetCurrent(int64_t op, int32_t root) {
  root_.store(root);
  op_.store(op);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::DurationMs(int32_t id) const {
  if (id < 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(id)].ms();
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
  std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"op\": %lld, \"id\": %d, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.name, static_cast<long long>(s.op), s.id, s.parent,
                 s.start_ns / 1e3, s.end_ns / 1e3,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string SpanHandler::Handle(const std::string& payload,
                                const std::function<bool()>& cancel,
                                bool* shutdown) {
  int32_t id = tracer_.Begin(name_, tracer_.current_root(),
                             tracer_.current_op());
  std::string reply = inner_.Handle(payload, cancel, shutdown);
  tracer_.End(id);
  if (id >= 0) tracer_.set_last_server_span(id);
  return reply;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<int32_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ms[s.parent] += s.ms();
  }
  SpanSummary out;
  for (const Span& s : spans) {
    double self = std::max(0.0, s.ms() - child_ms[s.id]);
    std::string name = s.name;
    std::string layer = name.substr(0, name.find('.'));
    for (SpanSummary::Agg* a : {&out.by_name[name], &out.by_layer[layer]}) {
      ++a->count;
      a->total_ms += s.ms();
      a->self_ms += self;
    }
    if (s.parent < 0) {
      out.unattributed_ms += self;
      ++out.roots;
    }
  }
  return out;
}

}  // namespace perfbench
