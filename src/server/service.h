// DatabaseService: the engine-facing half of a seqdl server, shared by
// the TCP front end (server.h), the CLI's stdin serve loop, and tests
// that want to exercise request handling without sockets.
//
// A service owns a versioned Database (database.h) plus a compiled-
// program cache keyed by *program text* — clients ship small program
// sources to the large, long-lived, indexed EDB, and two clients sending
// byte-identical programs share one plan. Cached plans are ranked by the
// database's measured statistics of the program's own relations at
// compile time and recompiled when those statistics drift past
// ServiceOptions::recompile_drift (relative tuple-count change,
// StatsDrift), the CLI serve loop's policy generalized here so every
// front end gets it.
//
// Result serving is a *maintained-view* cache (view/view.h): per program
// text the service keeps the materialized derived IDB (a ViewSnapshot
// held current by the database's ViewManager) plus the renderings already
// produced from it, one per requested output relation. An Append no
// longer invalidates this state — it *refreshes* it, semi-naive
// delta-evaluating just the appended facts against each stored view
// (PreparedProgram::RunDelta) so re-serving after ingest costs O(delta)
// instead of a full fixpoint. A Retract refreshes the same way, except
// the ViewManager routes the tombstone epoch through counting DRed
// (delete/re-derive) or a stratum recompute — the cache never assumes
// epochs only grow. Entries are byte-accounted (rendered output
// + materialized IDB, ServiceOptions::cache_bytes) and evicted least-
// recently-used past the budget; hit/miss/evict counters travel in
// Stats() replies.
//
// Thread-safety: all methods may be called concurrently from any number
// of threads. Run pins an epoch snapshot per call (Database::Snapshot or
// an immutable ViewSnapshot); Append/Compact serialize on the database's
// writer mutex; the program and result caches take their own mutexes for
// lookups/inserts only (parse, compile, and evaluation run outside them,
// so a slow compile or refresh never stalls cached runs).
#ifndef SEQDL_SERVER_SERVICE_H_
#define SEQDL_SERVER_SERVICE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/analysis/admission.h"
#include "src/base/status.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/stats.h"
#include "src/server/protocol.h"
#include "src/term/universe.h"
#include "src/view/view.h"

namespace seqdl {

/// The default caps clamped onto runs of *generative* programs under
/// AdmissionPolicy::kBudget: small enough that a non-terminating
/// fixpoint fails (kResourceExhausted) in milliseconds instead of
/// starving the server, large enough for legitimate bounded transforms.
inline RunOptions DefaultGenerativeBudget() {
  RunOptions r;
  r.max_facts = 100'000;
  r.max_iterations = 10'000;
  r.max_path_length = 4096;
  return r;
}

struct ServiceOptions {
  /// Recompile a cached program once the database's measured statistics
  /// drift past this relative change since the plan was ranked
  /// (StatsDrift); the epoch must also have moved. <= 0 recompiles on
  /// every epoch bump; >= 1 effectively never.
  double recompile_drift = 0.25;
  /// Budgets and knobs applied to every Run (the per-request cancel
  /// callback is layered on top of, and ORed with, any cancel set here).
  RunOptions run_options;
  /// Diagnostic sink for recompilation notices ("recompiled <name>
  /// (stats drift 0.31 >= 0.25 since epoch 3)"); null = silent.
  std::function<void(const std::string&)> log;
  /// Capacity of the result/view cache in *programs* (0 disables caching
  /// and view maintenance entirely: every Run evaluates from scratch on
  /// an epoch-pinned session — the differential harness's mode). At a
  /// pinned epoch the EDB is immutable and evaluation is deterministic,
  /// so a run's rendered output is a pure function of (program text,
  /// output relation, epoch): repeated point queries are answered
  /// straight from the cache — a hit costs a hash lookup instead of a
  /// fixpoint (>= 100k small queries/s on loopback) — and an Append
  /// delta-refreshes the entries instead of dropping them. Compaction
  /// (same facts, same epoch) leaves hits valid.
  size_t result_cache_entries = 4096;
  /// Byte budget for the cache: rendered output bytes plus materialized-
  /// IDB bytes (ViewSnapshot::ApproxBytes), summed over entries. When the
  /// total runs past it, least-recently-used entries are evicted (their
  /// views too) until it fits — the hottest entry always survives. 0 =
  /// unbounded.
  size_t cache_bytes = 64u << 20;
  /// Keep materialized views and refresh them across appends (the
  /// default). False reverts to PR 5 behavior: epoch-keyed rendered-
  /// result caching only, every post-append run a full fixpoint.
  bool maintain_views = true;
  /// Delta-refresh every cached view eagerly inside Append (the `seqdl
  /// serve` append path), so the next query pays only rendering. False
  /// defers the refresh to the next Run of each program.
  bool refresh_on_append = true;
  /// How programs flagged *generative* by admission analysis
  /// (analysis/admission.h: SD301-SD303, potentially non-terminating
  /// fixpoints) are treated. kOff runs everything under `run_options`
  /// unchanged (trusted clients — the default, and the differential
  /// harness's mode); kBudget clamps their runs to `generative_budget`;
  /// kStrict refuses to Run them (kFailedPrecondition naming the SD3xx
  /// finding). Compile always succeeds and reports the verdict.
  AdmissionPolicy admission = AdmissionPolicy::kOff;
  /// Caps enforced on generative programs under kBudget, applied as the
  /// minimum with `run_options` (a budget can only tighten).
  RunOptions generative_budget = DefaultGenerativeBudget();
};

/// An analyzer finding flattened for a compile reply (shared with the
/// cluster coordinator's compile broadcast).
protocol::WireDiagnostic ToWire(const Diagnostic& d);

/// The request handlers of a seqdl server, over an owned Database.
class DatabaseService {
 public:
  /// `u` must be the Universe `db` was opened with and must outlive the
  /// service.
  DatabaseService(Universe& u, Database db, ServiceOptions opts = {});

  DatabaseService(const DatabaseService&) = delete;
  DatabaseService& operator=(const DatabaseService&) = delete;

  /// Parses + plans `program_text` and caches the plan keyed by the text;
  /// a later identical text is a cache hit (no parse, no plan). Parse
  /// errors come back annotated "<source_name>:line:col: ...".
  Result<protocol::CompileReply> Compile(const std::string& program_text,
                                         const std::string& source_name);

  /// Evaluates the request's program on an epoch-pinned snapshot and
  /// renders the derived facts (projected onto output_rel when set).
  /// Compiles through the same cache as Compile. `cancel` (may be null)
  /// is polled during evaluation; returning true fails the run with
  /// kCancelled — the server's graceful-drain hook.
  Result<protocol::RunReply> Run(const protocol::RunRequest& req,
                                 const std::function<bool()>& cancel = {});

  /// Parses the request's facts and publishes them as a new segment,
  /// then (with maintain_views + refresh_on_append) delta-refreshes every
  /// cached view to the new epoch so re-serving stays O(delta).
  Result<protocol::AppendReply> Append(const protocol::AppendRequest& req);

  /// Parses the request's facts and retracts the visible matches by
  /// publishing a tombstone segment (Database::Retract). Cached views go
  /// through the same eager refresh as Append — the ViewManager sees the
  /// tombstone epoch and takes the DRed delete/re-derive path (or a
  /// wholesale stratum recompute), never the append-only delta path, so
  /// a shrink epoch can never be served from a monotone-refresh result.
  Result<protocol::RetractReply> Retract(const protocol::RetractRequest& req);

  /// Current epoch / segment / fact counts.
  protocol::DbInfo Info() const;

  /// Folds the segment stack (Database::Compact). Errors only in
  /// durable mode, when sealing the merged segment to disk fails — the
  /// Status carries an SD4xx diagnostic code.
  Result<protocol::CompactReply> Compact();

  /// Rendered measured statistics (Database::Stats) plus cache and view
  /// counters.
  protocol::StatsReply Stats() const;

  /// Result/view cache occupancy and traffic.
  CacheCounters CacheStats() const;

  /// Number of distinct program texts currently cached.
  size_t NumCachedPrograms() const;
  /// Renderings currently in the result cache, summed over programs (one
  /// per (program, output relation) pair served at the current entry's
  /// epoch).
  size_t NumCachedResults() const;

  Database& db() { return db_; }
  const Database& db() const { return db_; }
  Universe& universe() { return *u_; }

 private:
  struct CachedProgram {
    std::shared_ptr<PreparedProgram> prog;
    uint64_t epoch = 0;       ///< db epoch at compile time
    /// Stats() snapshot the plan was ranked by, scoped to the program's
    /// relations (AllRels).
    StoreStats stats;
    /// Admission classification of the program (analysis/admission.h),
    /// computed once per compile; Run consults it to enforce the policy.
    std::shared_ptr<const AdmissionReport> admission;
    /// Lint findings (SD1xx warnings), shipped in compile replies.
    std::shared_ptr<const DiagnosticList> lints;
  };

  /// Cache lookup honoring the drift policy; compiles on miss/drift.
  /// Never returns null on OK. `admission`/`lints` (optional) receive
  /// the entry's analysis results.
  Result<std::shared_ptr<PreparedProgram>> Prepare(
      const std::string& program_text, const std::string& source_name,
      bool* cache_hit,
      std::shared_ptr<const AdmissionReport>* admission = nullptr,
      std::shared_ptr<const DiagnosticList>* lints = nullptr);

  /// Parse + compile against a fresh statistics snapshot; inserts the
  /// cache entry (last writer wins when two threads race on one text).
  Result<std::shared_ptr<PreparedProgram>> CompileFresh(
      const std::string& program_text, const std::string& source_name,
      std::shared_ptr<const AdmissionReport>* admission = nullptr,
      std::shared_ptr<const DiagnosticList>* lints = nullptr);

  /// Enforces the service's admission policy on one prepared run:
  /// returns kFailedPrecondition for a generative program under kStrict,
  /// clamps `ropts` to `generative_budget` under kBudget, and passes
  /// tame programs through untouched.
  Status ApplyAdmission(const AdmissionReport* admission,
                        RunOptions* ropts) const;

  /// One program's cached serving state: the maintained view (null with
  /// maintain_views off) and every rendering produced from it at `epoch`,
  /// keyed by output relation ("" = all derived facts). `bytes` accounts
  /// the view's materialized IDB plus the rendering strings.
  struct CachedView {
    uint64_t epoch = 0;
    uint64_t segments = 0;
    std::shared_ptr<const ViewSnapshot> view;
    std::map<std::string, std::string> rendered;
    /// Stats of the run/refresh that brought the entry to `epoch`;
    /// replayed into replies answered from the cache.
    protocol::WireEvalStats stats;
    size_t bytes = 0;
    std::list<std::string>::iterator lru;  ///< position in lru_
  };

  /// One epoch-pinned session run, rendered; stores nothing. The whole
  /// answer without a result cache, and the views-off fill of one.
  Result<protocol::RunReply> RunUncached(
      const protocol::RunRequest& req, const PreparedProgram& prog,
      const RunOptions& ropts);

  /// Renders `derived` projected onto `output_rel` (all facts when
  /// empty).
  Result<std::string> Render(const Instance& derived,
                             const std::string& output_rel) const;

  /// Eagerly advances every cached view to the current epoch after a
  /// write (Append or Retract), honoring the admission policy per
  /// program. Refresh itself picks delta vs DRed vs recompute from the
  /// segment kinds, so the same helper is correct for growth and shrink
  /// epochs. Failures leave the entry stale — the next Run recovers.
  void RefreshCachedViews();

  /// Moves `it`'s entry to the LRU front. Caller holds results_mu_.
  void TouchLocked(std::unordered_map<std::string, CachedView>::iterator it);
  /// Installs/refreshes the entry for `key` from an evaluated reply and
  /// evicts past the caps. Caller holds results_mu_.
  void UpsertLocked(const std::string& key,
                    const std::shared_ptr<const ViewSnapshot>& view,
                    const protocol::RunReply& reply,
                    const std::string& output_rel);
  /// Evicts LRU entries until entry and byte caps hold, never touching
  /// `keep`. Caller holds results_mu_.
  void EvictLocked(const std::string& keep);

  Universe* u_;
  Database db_;
  ServiceOptions opts_;

  mutable std::mutex programs_mu_;
  std::map<std::string, CachedProgram> programs_;

  /// The maintained-view/result cache, keyed by program text, with an
  /// LRU list for byte-budget eviction (front = most recently served).
  mutable std::mutex results_mu_;
  std::unordered_map<std::string, CachedView> results_;
  std::list<std::string> lru_;
  size_t cache_bytes_used_ = 0;
  CacheCounters counters_;
};

}  // namespace seqdl

#endif  // SEQDL_SERVER_SERVICE_H_
