#include "src/server/service.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/lint.h"
#include "src/engine/instance.h"
#include "src/syntax/parser.h"

namespace seqdl {

protocol::WireDiagnostic ToWire(const Diagnostic& d) {
  protocol::WireDiagnostic w;
  w.severity = static_cast<uint8_t>(d.severity);
  w.code = d.code;
  w.line = static_cast<uint32_t>(d.span.line);
  w.col = static_cast<uint32_t>(d.span.col);
  w.end_line = static_cast<uint32_t>(d.span.end_line);
  w.end_col = static_cast<uint32_t>(d.span.end_col);
  w.message = d.message;
  w.notes = d.notes;
  return w;
}

DatabaseService::DatabaseService(Universe& u, Database db, ServiceOptions opts)
    : u_(&u), db_(std::move(db)), opts_(std::move(opts)) {}

Result<protocol::CompileReply> DatabaseService::Compile(
    const std::string& program_text, const std::string& source_name) {
  bool cache_hit = false;
  std::shared_ptr<const AdmissionReport> admission;
  std::shared_ptr<const DiagnosticList> lints;
  SEQDL_ASSIGN_OR_RETURN(
      std::shared_ptr<PreparedProgram> prog,
      Prepare(program_text, source_name, &cache_hit, &admission, &lints));
  protocol::CompileReply reply;
  reply.cache_hit = cache_hit;
  reply.rules = prog->program().NumRules();
  reply.strata = prog->program().strata.size();
  reply.compile_seconds = prog->compile_seconds();
  if (admission != nullptr) {
    reply.features = admission->features.ToString();
    reply.fragment_class = admission->fragment_class;
    reply.admission =
        static_cast<uint8_t>(admission->Verdict(opts_.admission));
    DiagnosticList policy = PolicyDiagnostics(*admission, opts_.admission);
    for (const Diagnostic& d : policy.all()) {
      reply.diagnostics.push_back(ToWire(d));
    }
  }
  if (lints != nullptr) {
    for (const Diagnostic& d : lints->all()) {
      reply.diagnostics.push_back(ToWire(d));
    }
  }
  return reply;
}

Status DatabaseService::ApplyAdmission(const AdmissionReport* admission,
                                       RunOptions* ropts) const {
  if (opts_.admission == AdmissionPolicy::kOff || admission == nullptr ||
      !admission->generative) {
    return Status::OK();
  }
  if (opts_.admission == AdmissionPolicy::kStrict) {
    const Diagnostic& d = admission->diagnostics[0];
    return Status::FailedPrecondition(
        "admission denied (policy strict): potentially non-terminating "
        "program: " +
        d.message + " [" + d.code + "]");
  }
  // kBudget: a budget can only tighten the configured limits.
  const RunOptions& cap = opts_.generative_budget;
  ropts->max_facts = std::min(ropts->max_facts, cap.max_facts);
  ropts->max_iterations = std::min(ropts->max_iterations, cap.max_iterations);
  ropts->max_path_length =
      std::min(ropts->max_path_length, cap.max_path_length);
  return Status::OK();
}

Result<protocol::RunReply> DatabaseService::Run(
    const protocol::RunRequest& req, const std::function<bool()>& cancel) {
  // Cache first: a hit answers without compiling, refreshing, or
  // rendering. Valid iff the entry is at the current epoch — Append
  // refreshes entries (eagerly or at the next miss), Compact keeps the
  // epoch (same facts, hits stay correct).
  if (opts_.result_cache_entries > 0) {
    std::lock_guard<std::mutex> lock(results_mu_);
    auto it = results_.find(req.program);
    if (it != results_.end() && it->second.epoch == db_.epoch()) {
      auto r = it->second.rendered.find(req.output_rel);
      if (r != it->second.rendered.end()) {
        ++counters_.hits;
        TouchLocked(it);
        protocol::RunReply reply;
        reply.epoch = it->second.epoch;
        reply.segments = it->second.segments;
        reply.rendered = r->second;
        reply.stats = it->second.stats;
        reply.result_cached = true;
        return reply;
      }
    }
    ++counters_.misses;
  }

  bool cache_hit = false;
  std::shared_ptr<const AdmissionReport> admission;
  SEQDL_ASSIGN_OR_RETURN(
      std::shared_ptr<PreparedProgram> prog,
      Prepare(req.program, req.source_name, &cache_hit, &admission));

  RunOptions ropts = opts_.run_options;
  SEQDL_RETURN_IF_ERROR(ApplyAdmission(admission.get(), &ropts));
  ropts.collect_derived_stats = req.collect_derived_stats;
  if (cancel) {
    if (ropts.cancel) {
      std::function<bool()> base = ropts.cancel;
      ropts.cancel = [base, cancel] { return base() || cancel(); };
    } else {
      ropts.cancel = cancel;
    }
  }

  if (opts_.result_cache_entries == 0) {
    return RunUncached(req, *prog, ropts);
  }

  protocol::RunReply reply;
  std::shared_ptr<const ViewSnapshot> view;
  if (opts_.maintain_views) {
    // The maintained-view path: Refresh returns the stored snapshot when
    // it is already current (an Append's eager refresh usually got here
    // first), cold-materializes on the first request, and otherwise
    // advances the view by delta evaluation of the appended segments.
    EvalStats stats;
    SEQDL_ASSIGN_OR_RETURN(
        view, db_.views().Refresh(req.program, *prog, ropts, &stats));
    reply.epoch = view->epoch();
    reply.segments = view->segments();
    SEQDL_ASSIGN_OR_RETURN(reply.rendered, Render(view->idb(), req.output_rel));
    reply.stats = stats;
  } else {
    // Views off: epoch-pinned session run, rendered output cached only.
    SEQDL_ASSIGN_OR_RETURN(reply, RunUncached(req, *prog, ropts));
  }

  std::lock_guard<std::mutex> lock(results_mu_);
  UpsertLocked(req.program, view, reply, req.output_rel);
  // A Refresh hit carries no run counters (nothing ran); answer with the
  // stats of the run that actually produced this epoch's view.
  auto it = results_.find(req.program);
  if (it != results_.end() && it->second.epoch == reply.epoch) {
    reply.stats = it->second.stats;
  }
  return reply;
}

Result<protocol::RunReply> DatabaseService::RunUncached(
    const protocol::RunRequest& req, const PreparedProgram& prog,
    const RunOptions& ropts) {
  // Pin the current epoch for exactly this run: appends committed while
  // the run executes do not affect it.
  Session session = db_.Snapshot();
  EvalStats stats;
  SEQDL_ASSIGN_OR_RETURN(Instance derived, session.Run(prog, ropts, &stats));
  protocol::RunReply reply;
  reply.epoch = session.epoch();
  reply.segments = session.NumSegments();
  SEQDL_ASSIGN_OR_RETURN(reply.rendered, Render(derived, req.output_rel));
  reply.stats = stats;
  return reply;
}

Result<std::string> DatabaseService::Render(
    const Instance& derived, const std::string& output_rel) const {
  if (output_rel.empty()) return derived.ToString(*u_);
  SEQDL_ASSIGN_OR_RETURN(RelId rel, u_->FindRel(output_rel));
  return derived.Project({rel}).ToString(*u_);
}

void DatabaseService::TouchLocked(
    std::unordered_map<std::string, CachedView>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru);
}

void DatabaseService::UpsertLocked(
    const std::string& key, const std::shared_ptr<const ViewSnapshot>& view,
    const protocol::RunReply& reply, const std::string& output_rel) {
  auto [it, inserted] = results_.try_emplace(key);
  CachedView& e = it->second;
  if (inserted) {
    lru_.push_front(key);
    e.lru = lru_.begin();
  } else {
    TouchLocked(it);
  }
  if (inserted || e.epoch != reply.epoch || e.view != view) {
    // New epoch (or first sight): renderings of the old epoch are stale.
    cache_bytes_used_ -= e.bytes;
    e.rendered.clear();
    e.view = view;
    e.epoch = reply.epoch;
    e.segments = reply.segments;
    e.stats = reply.stats;
    e.bytes = view != nullptr ? view->ApproxBytes() : 0;
    cache_bytes_used_ += e.bytes;
  }
  auto [rit, fresh_render] = e.rendered.emplace(output_rel, reply.rendered);
  if (fresh_render) {
    e.bytes += rit->second.size() + output_rel.size();
    cache_bytes_used_ += rit->second.size() + output_rel.size();
  }
  EvictLocked(key);
}

void DatabaseService::EvictLocked(const std::string& keep) {
  while (!lru_.empty() &&
         (results_.size() > opts_.result_cache_entries ||
          (opts_.cache_bytes > 0 && cache_bytes_used_ > opts_.cache_bytes))) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // the hottest entry always survives
    auto it = results_.find(victim);
    cache_bytes_used_ -= it->second.bytes;
    // Drop the manager's snapshot too, or the evicted bytes would live
    // on there (the next request for this program runs cold).
    db_.views().Invalidate(victim);
    results_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

size_t DatabaseService::NumCachedResults() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  size_t n = 0;
  for (const auto& [key, e] : results_) n += e.rendered.size();
  return n;
}

CacheCounters DatabaseService::CacheStats() const {
  std::lock_guard<std::mutex> lock(results_mu_);
  CacheCounters c = counters_;
  c.entries = results_.size();
  c.bytes = cache_bytes_used_;
  return c;
}

Result<protocol::AppendReply> DatabaseService::Append(
    const protocol::AppendRequest& req) {
  Result<Instance> delta = ParseInstance(*u_, req.facts);
  if (!delta.ok()) {
    // Structured "<name>:line:col: ..." instead of a bare parse error —
    // the client (or the stdin serve loop) sees where in *its* file the
    // malformed fact sits.
    return protocol::AnnotateParseError(req.source_name, delta.status());
  }
  size_t appended = 0;
  SEQDL_ASSIGN_OR_RETURN(uint64_t epoch,
                         db_.Append(std::move(*delta), &appended));

  // Eagerly delta-refresh every cached view to the new epoch, so the next
  // query per program pays only rendering.
  if (appended > 0 && opts_.result_cache_entries > 0 && opts_.maintain_views &&
      opts_.refresh_on_append) {
    RefreshCachedViews();
  }

  protocol::AppendReply reply;
  reply.appended = appended;  // exact: counted under the writer lock
  reply.db = Info();
  reply.db.epoch = epoch;
  return reply;
}

Result<protocol::RetractReply> DatabaseService::Retract(
    const protocol::RetractRequest& req) {
  Result<Instance> victims = ParseInstance(*u_, req.facts);
  if (!victims.ok()) {
    return protocol::AnnotateParseError(req.source_name, victims.status());
  }
  size_t retracted = 0;
  SEQDL_ASSIGN_OR_RETURN(uint64_t epoch,
                         db_.Retract(std::move(*victims), &retracted));

  // Same eager refresh as Append: the ViewManager sees the tombstone in
  // the delta window and runs DRed / stratum recompute — a shrink epoch
  // is never "maintained" by the append-only delta path, and the cache
  // epoch gate means any entry we fail to refresh here simply misses on
  // the next Run (kBudget-clamped programs included).
  if (retracted > 0 && opts_.result_cache_entries > 0 &&
      opts_.maintain_views && opts_.refresh_on_append) {
    RefreshCachedViews();
  }

  protocol::RetractReply reply;
  reply.retracted = retracted;  // exact: counted under the writer lock
  reply.db = Info();
  reply.db.epoch = epoch;
  return reply;
}

void DatabaseService::RefreshCachedViews() {
  // A refresh failure (e.g. budget exhausted mid-delta) leaves that entry
  // stale, which the next Run recovers from — never an error for the
  // write that triggered the refresh.
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    keys.reserve(results_.size());
    for (const auto& [key, e] : results_) keys.push_back(key);
  }
  for (const std::string& key : keys) {
    bool cache_hit = false;
    std::shared_ptr<const AdmissionReport> admission;
    Result<std::shared_ptr<PreparedProgram>> prog =
        Prepare(key, /*source_name=*/"", &cache_hit, &admission);
    if (!prog.ok()) continue;
    RunOptions ropts = opts_.run_options;
    if (!ApplyAdmission(admission.get(), &ropts).ok()) continue;
    EvalStats stats;
    Result<std::shared_ptr<const ViewSnapshot>> view =
        db_.views().Refresh(key, **prog, ropts, &stats);
    if (!view.ok()) continue;
    std::lock_guard<std::mutex> lock(results_mu_);
    auto it = results_.find(key);
    if (it == results_.end()) continue;  // evicted while we refreshed
    CachedView& e = it->second;
    if (e.epoch >= (*view)->epoch()) continue;  // a run got there first
    cache_bytes_used_ -= e.bytes;
    e.rendered.clear();  // renderings of the old epoch are stale
    e.view = *view;
    e.epoch = (*view)->epoch();
    e.segments = (*view)->segments();
    e.stats = stats;
    e.bytes = (*view)->ApproxBytes();
    cache_bytes_used_ += e.bytes;
    EvictLocked(key);
  }
}

protocol::DbInfo DatabaseService::Info() const {
  protocol::DbInfo info;
  info.epoch = db_.epoch();
  info.segments = db_.NumSegments();
  info.facts = db_.NumFacts();
  storage::StorageInfo durability = db_.storage_info();
  info.on_disk_bytes = durability.on_disk_bytes;
  info.wal_bytes = durability.wal_bytes;
  info.manifest_generation = durability.manifest_generation;
  return info;
}

Result<protocol::CompactReply> DatabaseService::Compact() {
  SEQDL_ASSIGN_OR_RETURN(bool folded, db_.Compact());
  protocol::CompactReply reply;
  reply.folded = folded;
  reply.db = Info();
  return reply;
}

protocol::StatsReply DatabaseService::Stats() const {
  return {db_.Stats().ToString(*u_), CacheStats(), db_.views().counters()};
}

size_t DatabaseService::NumCachedPrograms() const {
  std::lock_guard<std::mutex> lock(programs_mu_);
  return programs_.size();
}

Result<std::shared_ptr<PreparedProgram>> DatabaseService::Prepare(
    const std::string& program_text, const std::string& source_name,
    bool* cache_hit, std::shared_ptr<const AdmissionReport>* admission,
    std::shared_ptr<const DiagnosticList>* lints) {
  *cache_hit = false;
  std::shared_ptr<PreparedProgram> cached;
  std::shared_ptr<const AdmissionReport> cached_admission;
  std::shared_ptr<const DiagnosticList> cached_lints;
  uint64_t stale_epoch = 0;
  double drift = 0.0;
  {
    std::lock_guard<std::mutex> lock(programs_mu_);
    auto it = programs_.find(program_text);
    if (it != programs_.end()) {
      cached = it->second.prog;
      cached_admission = it->second.admission;
      cached_lints = it->second.lints;
      if (admission != nullptr) *admission = cached_admission;
      if (lints != nullptr) *lints = cached_lints;
      if (db_.epoch() == it->second.epoch) {
        *cache_hit = true;
        return cached;
      }
      // Drift over the program's own relations: the plan read no other.
      const std::set<RelId> rels = AllRels(cached->program());
      drift = StatsDrift(it->second.stats, db_.Stats(&rels));
      if (drift < opts_.recompile_drift) {
        *cache_hit = true;
        return cached;
      }
      stale_epoch = it->second.epoch;
    }
  }
  Result<std::shared_ptr<PreparedProgram>> fresh =
      CompileFresh(program_text, source_name, admission, lints);
  if (!fresh.ok()) {
    // A program that compiled before the statistics drifted is still
    // valid — keep serving the stale plan rather than failing the
    // request. (Compile errors on a never-cached text do fail.)
    if (cached != nullptr) {
      if (admission != nullptr) *admission = cached_admission;
      if (lints != nullptr) *lints = cached_lints;
      return cached;
    }
    return fresh.status();
  }
  if (cached != nullptr && opts_.log) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "recompiled %s (stats drift %.2f >= %.2f since epoch %llu)",
                  source_name.empty() ? "<program>" : source_name.c_str(),
                  drift, opts_.recompile_drift,
                  static_cast<unsigned long long>(stale_epoch));
    opts_.log(buf);
  }
  return *fresh;
}

Result<std::shared_ptr<PreparedProgram>> DatabaseService::CompileFresh(
    const std::string& program_text, const std::string& source_name,
    std::shared_ptr<const AdmissionReport>* admission,
    std::shared_ptr<const DiagnosticList>* lints) {
  Result<Program> program = ParseProgram(*u_, program_text);
  if (!program.ok()) {
    return protocol::AnnotateParseError(source_name, program.status());
  }
  // Read the epoch before the stats snapshot: if an append lands between
  // the two reads, the entry is stamped older than its statistics and the
  // next Prepare re-runs the drift check (the safe direction).
  uint64_t epoch = db_.epoch();
  // Scoped to the program's relations, the only ones the planner and the
  // lints read: the snapshot's cost and the entry's size stay independent
  // of how many other programs derived facts before this one.
  const std::set<RelId> rels = AllRels(*program);
  StoreStats stats = db_.Stats(&rels);
  // Classify and lint before the program is consumed by the compiler:
  // the admission report drives Run's policy enforcement, the lints ride
  // along in compile replies.
  auto report =
      std::make_shared<AdmissionReport>(AnalyzeAdmission(*u_, *program));
  auto lint_list = std::make_shared<DiagnosticList>();
  LintOptions lopts;
  lopts.stats = &stats;
  LintProgram(*u_, *program, lopts, lint_list.get());
  CompileOptions copts;
  copts.stats = &stats;
  Result<PreparedProgram> prepared =
      Engine::Compile(*u_, std::move(*program), copts);
  if (!prepared.ok()) {
    return protocol::AnnotateParseError(source_name, prepared.status());
  }
  CachedProgram entry;
  entry.prog = std::make_shared<PreparedProgram>(std::move(*prepared));
  entry.epoch = epoch;
  entry.stats = std::move(stats);
  entry.admission = report;
  entry.lints = lint_list;
  if (admission != nullptr) *admission = report;
  if (lints != nullptr) *lints = lint_list;
  std::shared_ptr<PreparedProgram> prog = entry.prog;
  std::lock_guard<std::mutex> lock(programs_mu_);
  programs_[program_text] = std::move(entry);
  return prog;
}

}  // namespace seqdl
