// seqdl — command line front end for the Sequence Datalog library.
// Each command's operands and flags are declared once, in kCommands at
// the end of this file; an unknown or malformed flag exits 2 naming it.
//
//   seqdl run <program.sdl> [<instance.sdl>] [flags]
//       Evaluate a program on an instance and print the facts of all
//       IDB relations (or just --output): the instance's own facts of
//       those relations plus the derived ones. The planner ranks access
//       paths by selectivity statistics measured over the instance;
//       --legacy-planner forces the first-ground-argument heuristic.
//       --explain prints the chosen plan (key column and scan order per
//       rule step); --stats reports the engine's counters (one row per
//       EvalStats counter, then per-stratum rounds). With --data-dir
//       the program runs against a durable database (docs/storage.md):
//       an initialized directory is recovered without re-ingesting
//       anything (the instance argument becomes optional), a fresh one
//       is seeded from the instance. Either way the run is the same and
//       prints the same facts.
//
//   seqdl serve [<instance.sdl>] [flags]
//       Load the instance into a versioned Database once, then serve it.
//       With --data-dir the database is durable: commits are logged to a
//       WAL before they publish (--sync picks the fsync policy), and a
//       restart pointed at the same directory recovers the exact
//       pre-restart EDB without re-ingesting any source file (the
//       instance argument is then optional and ignored if given).
//       With --listen=PORT the database is served over TCP (the framed
//       wire protocol of src/server/protocol.h; PORT 0 picks a free
//       ephemeral port): the server prints "listening on HOST:PORT" to
//       stdout and runs until a client sends `shutdown`. --threads=N
//       sizes the worker pool (one connection served per worker at a
//       time). Use `seqdl query --connect=HOST:PORT ...` or the C++
//       client (src/server/client.h) to talk to it; see docs/server.md.
//
//       Without --listen, answer commands from stdin until EOF, one per
//       line:
//
//           run <program.sdl> [REL]    evaluate against the current-epoch
//                                      EDB, print derived facts (or REL)
//           append <instance.sdl>      ingest more facts: publishes a new
//                                      immutable segment and bumps the
//                                      epoch; in-flight runs keep their
//                                      pinned snapshot
//           retract <instance.sdl>     retract facts: visible matches are
//                                      shadowed by a tombstone segment at
//                                      a new epoch; maintained views are
//                                      DRed-refreshed (delete/re-derive)
//           epoch                      print epoch / segment / fact counts
//           compact                    fold all segments into one store
//                                      (tombstones fold away entirely)
//           stats                      print the database's measured
//                                      selectivity statistics (live
//                                      segments plus everything runs
//                                      derived, epoch-aged)
//           quit                       exit
//
//       Programs are compiled once per source text and cached (shared
//       with TCP clients sending the same text); when a later append
//       moves the database's measured statistics past --recompile-drift
//       (default 0.25, relative tuple-count change), the cached plan is
//       recompiled against the fresh statistics. --threads=N answers
//       `run` commands on a worker pool of N threads (snapshot runs are
//       safe to race with each other and with appends); --auto-compact=N
//       folds the segment stack whenever it grows past N segments
//       (default 8, 0 = manual `compact` only). Malformed `append` files
//       are reported as structured "<file>:line:col: ..." errors.
//       --admission=off|budget|strict (default off) screens every
//       program through admission analysis before running it:
//       potentially non-terminating programs (SD301-SD303) are capped
//       (budget) or refused (strict) — see docs/analysis.md.
//
//   seqdl coordinate --shards=HOST:PORT[,HOST:PORT...] [flags]
//       Serve a cluster of `seqdl serve --listen` shard servers behind
//       one endpoint speaking the same wire protocol (docs/cluster.md).
//       Appends/retractions are hash-partitioned across the shards by
//       each fact's first value; queries scatter to every shard in
//       parallel and the answers are merged (programs the shard-locality
//       analysis cannot prove distribution-transparent are finished on
//       the coordinator instead — slower, still exact). --broadcast
//       replicates small relations on every shard; --pin routes a
//       relation's facts to one shard. A client's `shutdown` drains the
//       shards too unless --no-forward-shutdown.
//
//   seqdl query --connect=HOST:PORT <command> [args]
//       Blocking client for a `seqdl serve --listen` server. Commands:
//           run <program.sdl> [REL]     ship the program text to the
//                                       server, print the derived facts
//           compile <program.sdl>       warm the server's program cache
//           append <instance.sdl>       ship facts; bumps the epoch
//           retract <instance.sdl>      retract facts; bumps the epoch
//           epoch | compact | stats     as in serve's stdin mode
//           shutdown                    drain and stop the server
//       [--stats] prints the run's engine counters to stderr.
//
//   seqdl check <program.sdl> [flags]
//       The full program analyzer: parse and validation errors (SD0xx),
//       the lint suite (SD1xx: duplicate rules/literals, singleton
//       variables, never-fires, cross-product joins; --output=REL adds
//       dead-rule and unused-relation analysis), and admission
//       classification (SD3xx: is the program potentially
//       non-terminating, and what happens to it under the given
//       policy). Reports the features used and the Figure 1
//       expressiveness class; --json emits one machine-readable
//       document; --werror upgrades warnings to errors. Exit code 0 =
//       clean, 1 = errors, 2 = usage/IO, 4 = warnings only. See
//       docs/analysis.md for the diagnostic catalog.
//
//   seqdl transform <program.sdl> --eliminate=packing|equations|arity|all
//       Apply the paper's redundancy transformations and print the result.
//
//   seqdl normalform <program.sdl>
//       Print the Lemma 7.2 normal form (nonrecursive, equation-free
//       programs; equations are eliminated first if present).
//
//   seqdl algebra <program.sdl> <REL>
//       Print the Theorem 7.1 sequence relational algebra expression for
//       an IDB relation of a nonrecursive program.
//
//   seqdl hasse [--dot]
//       Print the Figure 1 Hasse diagram.
//
//   seqdl regex <pattern>
//       Compile a regular expression to a Sequence Datalog matcher and
//       print the program.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/algebra/algebra.h"
#include "src/algebra/from_datalog.h"
#include "src/analysis/admission.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/features.h"
#include "src/analysis/lint.h"
#include "src/analysis/safety.h"
#include "src/base/counters.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/frontend.h"
#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/engine/stats.h"
#include "src/fragments/fragments.h"
#include "src/queries/regex.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"
#include "src/syntax/printer.h"
#include "src/term/universe.h"
#include "src/transform/arity_elim.h"
#include "src/transform/equation_elim.h"
#include "src/transform/normal_form.h"
#include "src/transform/packing_elim.h"

namespace {

int Fail(const seqdl::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Reports a failure through the structured diagnostics renderer when the
// status carries a source location ("parse error at L:C: ...", or a
// service error already annotated "<name>:L:C: ..."), so every front end
// prints the same "name:L:C: error: msg [SDxxx]" line as `seqdl check`.
// Falls back to the plain "error:" line for statuses without a location.
int FailDiag(const std::string& source_name, const seqdl::Status& status) {
  const std::string& msg = status.message();
  seqdl::SourceSpan span = seqdl::SpanFromStatusMessage(msg);
  if (status.code() != seqdl::StatusCode::kInvalidArgument || !span.valid()) {
    return Fail(status);
  }
  // Strip everything through the "L:C: " location to recover the bare
  // message the diagnostic re-renders with its own span prefix.
  std::string needle =
      std::to_string(span.line) + ":" + std::to_string(span.col) + ":";
  size_t pos = msg.find(needle);
  std::string bare =
      pos == std::string::npos ? msg : msg.substr(pos + needle.size());
  while (!bare.empty() && bare.front() == ' ') bare.erase(bare.begin());
  const char* code =
      msg.rfind("lex error at ", 0) == 0 ? "SD001" : "SD002";
  seqdl::Diagnostic d = seqdl::Diagnostic::Error(code, span, bare);
  std::fprintf(stderr, "%s\n", d.ToString(source_name).c_str());
  return 1;
}

seqdl::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return seqdl::Status::NotFound("cannot open " + path);
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& prefix) {
  for (const std::string& a : args) {
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return "";
}

/// Sets `*out` from the numeric flag `prefix` (e.g. "--threads=") when it
/// is given; returns whether it was.
template <typename T>
bool NumericFlag(const std::vector<std::string>& args,
                 const std::string& prefix, T* out) {
  std::string v = FlagValue(args, prefix);
  if (v.empty()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    *out = static_cast<T>(std::strtod(v.c_str(), nullptr));
  } else {
    *out = static_cast<T>(std::strtoull(v.c_str(), nullptr, 10));
  }
  return true;
}

/// The positional (non `--flag`) arguments, in order.
std::vector<std::string> PositionalArgs(const std::vector<std::string>& args) {
  std::vector<std::string> out;
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) out.push_back(a);
  }
  return out;
}

// Prints the usage line of `command` (from its Commands() entry) to
// stderr; returns the usage exit code, 2.
int Usage(std::string_view command);

/// Parses --sync= values (always | interval | never).
seqdl::Result<seqdl::storage::SyncMode> ParseSyncMode(const std::string& v) {
  if (v == "always") return seqdl::storage::SyncMode::kAlways;
  if (v == "interval") return seqdl::storage::SyncMode::kInterval;
  if (v == "never") return seqdl::storage::SyncMode::kNever;
  return seqdl::Status::InvalidArgument(
      "--sync= must be always, interval or never (got '" + v + "')");
}

/// Fills OpenOptions durability fields from --data-dir= / --sync=.
/// Returns false (after printing the error) on a malformed flag.
bool ApplyStorageFlags(const std::vector<std::string>& args,
                       seqdl::Database::OpenOptions* dbopts) {
  dbopts->data_dir = FlagValue(args, "--data-dir=");
  if (std::string v = FlagValue(args, "--sync="); !v.empty()) {
    auto mode = ParseSyncMode(v);
    if (!mode.ok()) {
      Fail(mode.status());
      return false;
    }
    dbopts->sync_mode = *mode;
  }
  return true;
}

/// One extra status line when the database is durable (generation 0
/// means in-memory: print nothing, keeping legacy output stable).
void PrintStorageLine(FILE* f, const seqdl::protocol::DbInfo& info) {
  if (info.manifest_generation == 0) return;
  std::fprintf(f,
               "storage: generation %llu, %llu bytes on disk, "
               "%llu wal bytes\n",
               static_cast<unsigned long long>(info.manifest_generation),
               static_cast<unsigned long long>(info.on_disk_bytes),
               static_cast<unsigned long long>(info.wal_bytes));
}

/// Renders a storage-layer failure (kIoError with an SD4xx code) like
/// an analyzer finding; other statuses fall back to Fail().
int FailStorage(const seqdl::Status& status) {
  seqdl::Diagnostic d = seqdl::DiagnosticFromStatus(status);
  std::fprintf(stderr, "%s\n", d.ToString().c_str());
  return 1;
}

// The run's engine counters, one aligned row each (`--stats`).
void PrintEvalCounters(const seqdl::EvalCounters& stats) {
  std::fputs(seqdl::RenderCounters(stats, "-- ").c_str(), stderr);
}

// A stats reply: the rendered measurements, then the cache and view
// counter rows.
void PrintStatsReply(const seqdl::protocol::StatsReply& reply) {
  std::printf("%s%s%s", reply.rendered.c_str(),
              seqdl::RenderCounters(reply.cache, "cache.").c_str(),
              seqdl::RenderCounters(reply.views, "views.").c_str());
}

int CmdRun(const std::vector<std::string>& args) {
  std::vector<std::string> pos = PositionalArgs(args);
  seqdl::Database::OpenOptions dbopts;
  if (!ApplyStorageFlags(args, &dbopts)) return 2;
  const bool durable = !dbopts.data_dir.empty();
  if (pos.empty() || (pos.size() < 2 && !durable)) return Usage("run");
  seqdl::Universe u;
  auto program_text = ReadFile(pos[0]);
  if (!program_text.ok()) return Fail(program_text.status());
  seqdl::DiagnosticList parse_diags;
  auto program = seqdl::ParseProgram(u, *program_text, &parse_diags);
  if (!program.ok()) {
    // The same structured rendering as `seqdl check`: file:line:col,
    // severity, stable SD code.
    std::fprintf(stderr, "%s", parse_diags.RenderText(pos[0]).c_str());
    return 1;
  }

  // The EDB: the instance file in memory, or a data directory —
  // recovered when initialized (an instance argument is then ignored
  // with a note), seeded from the instance file when fresh.
  seqdl::Instance seed;
  if (durable && seqdl::Database::DataDirInitialized(dbopts.data_dir)) {
    if (pos.size() > 1) {
      std::fprintf(stderr,
                   "-- note: %s is already initialized; ignoring %s "
                   "(the recovered EDB is authoritative)\n",
                   dbopts.data_dir.c_str(), pos[1].c_str());
    }
  } else {
    if (pos.size() < 2) {
      std::fprintf(stderr,
                   "error: %s is not initialized; pass an instance file "
                   "to seed it\n",
                   dbopts.data_dir.c_str());
      return 2;
    }
    auto instance_text = ReadFile(pos[1]);
    if (!instance_text.ok()) return Fail(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return FailDiag(pos[1], instance.status());
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return FailStorage(db.status());

  // Database::Compile ranks access paths by the EDB's measured
  // selectivity; --legacy-planner keeps the first-ground-argument
  // heuristic (results are identical either way — only cost changes).
  auto prepared = HasFlag(args, "--legacy-planner")
                      ? seqdl::Engine::Compile(u, std::move(*program))
                      : db->Compile(std::move(*program));
  if (!prepared.ok()) return Fail(prepared.status());
  if (HasFlag(args, "--explain")) {
    std::fprintf(stderr, "%s", prepared->ExplainPlan().c_str());
  }

  seqdl::RunOptions opts;
  opts.seminaive = !HasFlag(args, "--naive");
  opts.use_index = !HasFlag(args, "--no-index");
  seqdl::EvalStats stats;
  seqdl::Session session = db->Snapshot();
  auto derived = session.Run(*prepared, opts, &stats);
  if (!derived.ok()) return Fail(derived.status());

  // Print the IDB relations (or just --output): their visible input
  // facts plus what the run derived.
  std::vector<seqdl::RelId> printed;
  if (std::string output_rel = FlagValue(args, "--output=");
      !output_rel.empty()) {
    auto rel = u.FindRel(output_rel);
    if (!rel.ok()) return Fail(rel.status());
    printed.push_back(*rel);
  } else {
    std::set<seqdl::RelId> idb = seqdl::IdbRels(prepared->program());
    printed.assign(idb.begin(), idb.end());
  }
  seqdl::Instance out = session.edb(printed);
  out.UnionWith(derived->Project(printed));
  std::printf("%s", out.ToString(u).c_str());

  std::fprintf(stderr, "-- %zu facts derived in %zu rounds (%zu firings)",
               stats.derived_facts, stats.rounds, stats.rule_firings);
  if (durable) {
    seqdl::storage::StorageInfo sinfo = db->storage_info();
    std::fprintf(stderr,
                 " at epoch %llu; storage generation %llu, %llu bytes on "
                 "disk",
                 static_cast<unsigned long long>(session.epoch()),
                 static_cast<unsigned long long>(sinfo.manifest_generation),
                 static_cast<unsigned long long>(sinfo.on_disk_bytes));
  }
  std::fputc('\n', stderr);
  if (HasFlag(args, "--stats")) {
    PrintEvalCounters(stats);
    for (size_t i = 0; i < stats.per_stratum.size(); ++i) {
      const seqdl::StratumStats& s = stats.per_stratum[i];
      std::fprintf(stderr,
                   "-- stratum %zu: %zu rounds, %zu firings, %zu facts\n",
                   i, s.rounds, s.rule_firings, s.derived_facts);
    }
  }
  return 0;
}

// Repeated-query serving loop over a DatabaseService (the same request
// handlers the TCP server dispatches to — the stdin loop is just another
// front end): the EDB is loaded once and then grows by `append`
// (epoch-bumping segment publishes); `run` commands execute against an
// epoch-pinned snapshot, on the calling thread or on a --threads=N
// worker pool. Compiled programs are cached by source text in the
// service and recompiled when the database's measured statistics drift
// past --recompile-drift since compile time.
class ServeLoop {
 public:
  ServeLoop(seqdl::DatabaseService& service, bool stats_on)
      : service_(service), stats_on_(stats_on) {}

  ~ServeLoop() { StopWorkers(); }

  void StartWorkers(size_t threads) {
    for (size_t t = 0; t < threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      done_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  // `run <program> [REL]`: inline when there is no pool, else enqueued.
  void Run(std::string path, std::string output_rel) {
    if (workers_.empty()) {
      RunOne(path, output_rel);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_.emplace_back(std::move(path), std::move(output_rel));
    }
    queue_cv_.notify_one();
  }

  // `append` / `retract <instance>`: one epoch-bumping write. Naming the
  // source turns a malformed fact into a structured "<path>:line:col: ..."
  // error instead of a bare parse error.
  void Write(const std::string& path, bool retract) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      Fail(text.status());
      return;
    }
    auto report = [&](const auto& reply, uint64_t changed) {
      std::lock_guard<std::mutex> lock(io_mu_);
      if (!reply.ok()) {
        FailDiag(path, reply.status());
        return;
      }
      std::fprintf(stderr,
                   "-- %s %s (%llu %sfacts): epoch %llu, %llu segments, "
                   "%llu facts total\n",
                   retract ? "retracted" : "appended", path.c_str(),
                   static_cast<unsigned long long>(changed),
                   retract ? "" : "new ",
                   static_cast<unsigned long long>(reply->db.epoch),
                   static_cast<unsigned long long>(reply->db.segments),
                   static_cast<unsigned long long>(reply->db.facts));
    };
    if (retract) {
      auto reply = service_.Retract({std::move(*text), path});
      report(reply, reply.ok() ? reply->retracted : 0);
    } else {
      auto reply = service_.Append({std::move(*text), path});
      report(reply, reply.ok() ? reply->appended : 0);
    }
  }

  void Epoch() {
    seqdl::protocol::DbInfo info = service_.Info();
    std::lock_guard<std::mutex> lock(io_mu_);
    std::printf("epoch %llu: %llu segments, %llu facts\n",
                static_cast<unsigned long long>(info.epoch),
                static_cast<unsigned long long>(info.segments),
                static_cast<unsigned long long>(info.facts));
    PrintStorageLine(stdout, info);
    std::fflush(stdout);
  }

  void Compact() {
    seqdl::Result<seqdl::protocol::CompactReply> reply = service_.Compact();
    std::lock_guard<std::mutex> lock(io_mu_);
    if (!reply.ok()) {
      // Disk-full / permission failures during the seal render with
      // their SD4xx code, like analyzer findings.
      FailStorage(reply.status());
      return;
    }
    std::fprintf(stderr, "-- %s: epoch %llu, %llu segments, %llu facts\n",
                 reply->folded ? "compacted" : "nothing to compact",
                 static_cast<unsigned long long>(reply->db.epoch),
                 static_cast<unsigned long long>(reply->db.segments),
                 static_cast<unsigned long long>(reply->db.facts));
    PrintStorageLine(stderr, reply->db);
  }

  void Stats() {
    // The planner's view: live-segment measurements merged with the
    // derived-fact statistics reported back by earlier runs — plus the
    // maintained-view cache's traffic.
    seqdl::protocol::StatsReply reply = service_.Stats();
    std::lock_guard<std::mutex> lock(io_mu_);
    PrintStatsReply(reply);
    std::fflush(stdout);
  }

  // Waits until every queued `run` has finished (quit/EOF path).
  void Drain() {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::pair<std::string, std::string> job;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (done_) return;
          continue;
        }
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
      RunOne(job.first, job.second);
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        --in_flight_;
      }
      drained_cv_.notify_all();
    }
  }

  // Reads the program, ships it through the service (text-keyed program
  // cache, drift-aware recompilation, epoch-pinned snapshot run), and
  // prints the rendered derived facts.
  void RunOne(const std::string& path, const std::string& output_rel) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::lock_guard<std::mutex> lock(io_mu_);
      Fail(text.status());
      return;
    }
    seqdl::protocol::RunRequest req;
    req.program = std::move(*text);
    req.source_name = path;
    req.output_rel = output_rel;
    // Feed each run's derived-fact statistics back into Database::Stats()
    // so later-compiled programs plan from the observed workload.
    req.collect_derived_stats = true;
    auto reply = service_.Run(req);
    std::lock_guard<std::mutex> lock(io_mu_);
    if (!reply.ok()) {
      FailDiag(path, reply.status());
      return;
    }
    std::printf("%s", reply->rendered.c_str());
    std::fflush(stdout);
    const seqdl::protocol::WireEvalStats& stats = reply->stats;
    std::fprintf(stderr, "-- %llu facts derived in %.3f ms (epoch %llu)\n",
                 static_cast<unsigned long long>(stats.derived_facts),
                 stats.run_seconds * 1e3,
                 static_cast<unsigned long long>(reply->epoch));
    if (stats_on_) {
      PrintEvalCounters(stats);
      std::fprintf(stderr, "-- %zu base columns indexed over %llu segments\n",
                   service_.db().NumIndexedColumns(),
                   static_cast<unsigned long long>(reply->segments));
    }
  }

  seqdl::DatabaseService& service_;
  bool stats_on_;

  std::mutex io_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_, drained_cv_;
  std::deque<std::pair<std::string, std::string>> queue_;
  size_t in_flight_ = 0;
  bool done_ = false;
  std::vector<std::thread> workers_;
};

int CmdServe(const std::vector<std::string>& args) {
  std::vector<std::string> pos = PositionalArgs(args);
  std::string data_dir = FlagValue(args, "--data-dir=");
  if (pos.empty() && data_dir.empty()) return Usage("serve");
  bool stats_on = HasFlag(args, "--stats");
  uint16_t listen_port = 0;
  const bool listen_mode = NumericFlag(args, "--listen=", &listen_port);
  size_t threads = listen_mode ? 4 : 1;
  NumericFlag(args, "--threads=", &threads);
  threads = std::max<size_t>(threads, 1);
  double recompile_drift = 0.25;
  NumericFlag(args, "--recompile-drift=", &recompile_drift);
  seqdl::Database::OpenOptions dbopts;
  dbopts.auto_compact_segments = 8;
  NumericFlag(args, "--auto-compact=", &dbopts.auto_compact_segments);
  if (!ApplyStorageFlags(args, &dbopts)) return 2;

  seqdl::Universe u;
  // With --data-dir on an initialized directory the recovered EDB is
  // authoritative: a restart serves the pre-restart facts without
  // re-ingesting any source file, and a supplied instance is ignored
  // (with a note) rather than merged.
  bool recovering =
      !data_dir.empty() && seqdl::Database::DataDirInitialized(data_dir);
  seqdl::Instance seed;
  if (recovering) {
    if (!pos.empty()) {
      std::fprintf(stderr,
                   "-- note: %s is already initialized; ignoring %s "
                   "(the recovered EDB is authoritative)\n",
                   data_dir.c_str(), pos[0].c_str());
    }
  } else if (!pos.empty()) {
    auto instance_text = ReadFile(pos[0]);
    if (!instance_text.ok()) return Fail(instance_text.status());
    auto instance = seqdl::ParseInstance(u, *instance_text);
    if (!instance.ok()) return Fail(instance.status());
    seed = std::move(*instance);
  }
  auto db = seqdl::Database::Open(u, std::move(seed), dbopts);
  if (!db.ok()) return FailStorage(db.status());
  size_t edb_facts = db->NumFacts();
  const std::string source_desc = recovering || pos.empty()
                                      ? data_dir
                                      : pos[0];

  static std::mutex log_mu;
  seqdl::ServiceOptions sopts;
  sopts.recompile_drift = recompile_drift;
  // Byte budget for the maintained-view/result cache (rendered output
  // plus materialized IDBs); LRU entries are evicted past it.
  NumericFlag(args, "--cache-bytes=", &sopts.cache_bytes);
  // Admission control for untrusted programs (docs/analysis.md): off
  // runs everything (trusted clients, the default), budget caps runs of
  // potentially non-terminating programs, strict refuses them.
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto policy = seqdl::ParseAdmissionPolicy(v);
    if (!policy.ok()) {
      Fail(policy.status());
      return 2;
    }
    sopts.admission = *policy;
  }
  sopts.log = [](const std::string& msg) {
    std::lock_guard<std::mutex> lock(log_mu);
    std::fprintf(stderr, "-- %s\n", msg.c_str());
  };
  seqdl::DatabaseService service(u, std::move(*db), sopts);

  if (listen_mode) {
    if (stats_on) {
      std::fprintf(stderr,
                   "-- note: --stats has no effect with --listen; per-run "
                   "counters travel in each reply (seqdl query ... run "
                   "--stats)\n");
    }
    seqdl::ServerOptions server_opts;
    server_opts.port = listen_port;
    server_opts.threads = threads;
    auto server = seqdl::Server::Start(service, server_opts);
    if (!server.ok()) return Fail(server.status());
    // The CI integration step and scripts parse this line; keep stdout.
    std::printf("listening on %s:%u\n", (*server)->host().c_str(),
                (*server)->port());
    std::fflush(stdout);
    std::fprintf(stderr,
                 "-- serving %zu EDB facts from %s over TCP "
                 "(%zu worker thread%s); stop with "
                 "'seqdl query --connect=%s:%u shutdown'\n",
                 edb_facts, source_desc.c_str(), threads,
                 threads == 1 ? "" : "s", (*server)->host().c_str(),
                 (*server)->port());
    (*server)->Wait();
    // The final epoch is now immutable: reject any append that lost the
    // race against shutdown.
    service.db().Close();
    std::fprintf(stderr,
                 "-- server drained: %llu connections, %llu requests\n",
                 static_cast<unsigned long long>(
                     (*server)->connections_accepted()),
                 static_cast<unsigned long long>(
                     (*server)->requests_served()));
    return 0;
  }

  std::fprintf(stderr,
               "-- serving %zu EDB facts from %s (%zu worker thread%s); "
               "'run <program> [REL]', 'append <instance>', "
               "'retract <instance>', 'epoch', 'compact', 'stats', or "
               "'quit'\n",
               edb_facts, source_desc.c_str(), threads, threads == 1 ? "" : "s");

  ServeLoop loop(service, stats_on);
  if (threads > 1) loop.StartWorkers(threads);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string cmd;
    words >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "stats") {
      loop.Stats();
      continue;
    }
    if (cmd == "epoch") {
      loop.Epoch();
      continue;
    }
    if (cmd == "compact") {
      loop.Compact();
      continue;
    }
    if (cmd == "append" || cmd == "retract") {
      std::string path;
      words >> path;
      if (path.empty()) {
        std::fprintf(stderr, "usage: %s <instance>\n", cmd.c_str());
      } else {
        loop.Write(path, cmd == "retract");
      }
      continue;
    }
    if (cmd != "run") {
      std::fprintf(stderr, "error: unknown serve command '%s'\n", cmd.c_str());
      continue;
    }
    std::string path, output_rel;
    words >> path >> output_rel;
    if (path.empty()) {
      std::fprintf(stderr, "usage: run <program> [REL]\n");
      continue;
    }
    loop.Run(std::move(path), std::move(output_rel));
  }
  loop.Drain();
  loop.StopWorkers();
  return 0;
}

// Serves a shard cluster: lazily connects to the listed `seqdl serve
// --listen` shard servers and exposes the standard wire protocol, so
// `seqdl query --connect=` works against a cluster exactly as against a
// single server. See docs/cluster.md.
int CmdCoordinate(const std::vector<std::string>& args) {
  // main checked that --shards= is given.
  std::string shards_spec = FlagValue(args, "--shards=");
  auto shards = seqdl::ParseShardList(shards_spec);
  if (!shards.ok()) return Fail(shards.status());

  seqdl::CoordinatorOptions copts;
  if (std::string v = FlagValue(args, "--broadcast="); !v.empty()) {
    std::istringstream rels(v);
    std::string rel;
    while (std::getline(rels, rel, ',')) {
      if (!rel.empty()) copts.partition.broadcast.insert(rel);
    }
  }
  if (std::string v = FlagValue(args, "--pin="); !v.empty()) {
    std::istringstream pins(v);
    std::string pin;
    while (std::getline(pins, pin, ',')) {
      size_t eq = pin.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == pin.size()) {
        return Fail(seqdl::Status::InvalidArgument(
            "bad --pin entry '" + pin + "': expected REL=SHARD"));
      }
      copts.partition.pinned[pin.substr(0, eq)] = static_cast<uint32_t>(
          std::strtoul(pin.c_str() + eq + 1, nullptr, 10));
    }
  }
  NumericFlag(args, "--connect-timeout-ms=", &copts.connect_timeout_ms);
  NumericFlag(args, "--io-timeout-ms=", &copts.io_timeout_ms);
  NumericFlag(args, "--cache-entries=", &copts.result_cache_entries);
  uint16_t listen_port = 0;
  NumericFlag(args, "--listen=", &listen_port);
  size_t threads = 4;
  NumericFlag(args, "--threads=", &threads);
  threads = std::max<size_t>(threads, 1);

  seqdl::Universe u;
  size_t num_shards = shards->size();
  seqdl::Coordinator coordinator(u, std::move(*shards), copts);
  seqdl::CoordinatorHandler handler(
      coordinator, !HasFlag(args, "--no-forward-shutdown"));
  seqdl::ServerOptions server_opts;
  server_opts.port = listen_port;
  server_opts.threads = threads;
  auto server = seqdl::Server::Start(handler, server_opts);
  if (!server.ok()) return Fail(server.status());
  // Scripts parse this line, matching `seqdl serve --listen`'s contract.
  std::printf("listening on %s:%u\n", (*server)->host().c_str(),
              (*server)->port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "-- coordinating %zu shard%s (%s), %zu worker thread%s; "
               "stop with 'seqdl query --connect=%s:%u shutdown'\n",
               num_shards, num_shards == 1 ? "" : "s", shards_spec.c_str(),
               threads, threads == 1 ? "" : "s", (*server)->host().c_str(),
               (*server)->port());
  (*server)->Wait();
  std::fprintf(stderr,
               "-- server drained: %llu connections, %llu requests\n",
               static_cast<unsigned long long>(
                   (*server)->connections_accepted()),
               static_cast<unsigned long long>(
                   (*server)->requests_served()));
  return 0;
}

// Client for a `seqdl serve --listen` server: ships program/fact texts
// over the wire protocol and prints the replies.
int CmdQuery(const std::vector<std::string>& args) {
  std::string endpoint = FlagValue(args, "--connect=");
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return Usage("query");
  std::string host = endpoint.substr(0, colon);
  uint16_t port = static_cast<uint16_t>(
      std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));

  // The first non-flag argument is the command; the rest are operands.
  std::vector<std::string> words = PositionalArgs(args);
  if (words.empty()) return Usage("query");
  const std::string& cmd = words[0];

  auto client = seqdl::Client::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  if (cmd == "run") {
    if (words.size() < 2) {
      std::fprintf(stderr, "usage: seqdl query --connect=... run "
                           "<program> [REL]\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    std::string output_rel = words.size() > 2 ? words[2] : "";
    auto reply = client->Run(*text, output_rel, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("%s", reply->rendered.c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "-- %llu facts derived in %.3f ms (epoch %llu)\n",
                 static_cast<unsigned long long>(
                     reply->stats.derived_facts),
                 reply->stats.run_seconds * 1e3,
                 static_cast<unsigned long long>(reply->epoch));
    if (HasFlag(args, "--stats")) PrintEvalCounters(reply->stats);
    return 0;
  }
  if (cmd == "compile") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... compile <program>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Compile(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("%s: %llu rules in %llu strata (%s, compile %.3f ms)\n",
                words[1].c_str(),
                static_cast<unsigned long long>(reply->rules),
                static_cast<unsigned long long>(reply->strata),
                reply->cache_hit ? "cache hit" : "compiled",
                reply->compile_seconds * 1e3);
    if (!reply->features.empty()) {
      std::printf("features %s, class %s, admission: %s\n",
                  reply->features.c_str(), reply->fragment_class.c_str(),
                  seqdl::AdmissionVerdictToString(
                      static_cast<seqdl::AdmissionVerdict>(reply->admission)));
    }
    // The server's analyzer findings (lint SD1xx, admission SD3xx),
    // rendered like `seqdl check` renders its local ones.
    for (const seqdl::protocol::WireDiagnostic& w : reply->diagnostics) {
      seqdl::Diagnostic d;
      d.severity = static_cast<seqdl::Severity>(w.severity);
      d.code = w.code;
      d.span.line = static_cast<int>(w.line);
      d.span.col = static_cast<int>(w.col);
      d.span.end_line = static_cast<int>(w.end_line);
      d.span.end_col = static_cast<int>(w.end_col);
      d.message = w.message;
      d.notes = w.notes;
      std::fprintf(stderr, "%s\n", d.ToString(words[1]).c_str());
    }
    return 0;
  }
  if (cmd == "append") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... append <instance>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Append(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("appended %llu facts: epoch %llu, %llu segments, "
                "%llu facts total\n",
                static_cast<unsigned long long>(reply->appended),
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    return 0;
  }
  if (cmd == "retract") {
    if (words.size() < 2) {
      std::fprintf(stderr,
                   "usage: seqdl query --connect=... retract <instance>\n");
      return 2;
    }
    auto text = ReadFile(words[1]);
    if (!text.ok()) return Fail(text.status());
    auto reply = client->Retract(*text, words[1]);
    if (!reply.ok()) return Fail(reply.status());
    std::printf("retracted %llu facts: epoch %llu, %llu segments, "
                "%llu facts total\n",
                static_cast<unsigned long long>(reply->retracted),
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    return 0;
  }
  if (cmd == "epoch") {
    auto reply = client->Epoch();
    if (!reply.ok()) return Fail(reply.status());
    std::printf("epoch %llu: %llu segments, %llu facts\n",
                static_cast<unsigned long long>(reply->epoch),
                static_cast<unsigned long long>(reply->segments),
                static_cast<unsigned long long>(reply->facts));
    PrintStorageLine(stdout, *reply);
    return 0;
  }
  if (cmd == "compact") {
    auto reply = client->Compact();
    if (!reply.ok()) return FailStorage(reply.status());
    std::printf("%s: epoch %llu, %llu segments, %llu facts\n",
                reply->folded ? "compacted" : "nothing to compact",
                static_cast<unsigned long long>(reply->db.epoch),
                static_cast<unsigned long long>(reply->db.segments),
                static_cast<unsigned long long>(reply->db.facts));
    PrintStorageLine(stdout, reply->db);
    return 0;
  }
  if (cmd == "stats") {
    auto reply = client->Stats();
    if (!reply.ok()) return Fail(reply.status());
    PrintStatsReply(*reply);
    return 0;
  }
  if (cmd == "shutdown") {
    seqdl::Status st = client->Shutdown();
    if (!st.ok()) return Fail(st);
    std::printf("server shut down\n");
    return 0;
  }
  std::fprintf(stderr, "error: unknown query command '%s'\n", cmd.c_str());
  return Usage("query");
}

// The full program analyzer: parse, validation (SD0xx), lints (SD1xx),
// and admission classification (SD3xx) in one pass, rendered as
// compiler-style diagnostics or one JSON document (--json). Exit codes:
// 0 clean, 1 errors (including strict-admission rejection), 2 usage/IO,
// 4 warnings only.
int CmdCheck(const std::vector<std::string>& args) {
  if (args.empty() || args[0].rfind("--", 0) == 0) return Usage("check");
  const std::string& source = args[0];
  bool json = HasFlag(args, "--json");
  seqdl::AdmissionPolicy policy = seqdl::AdmissionPolicy::kBudget;
  if (std::string v = FlagValue(args, "--admission="); !v.empty()) {
    auto parsed = seqdl::ParseAdmissionPolicy(v);
    if (!parsed.ok()) {
      Fail(parsed.status());
      return 2;
    }
    policy = *parsed;
  }

  seqdl::Universe u;
  auto text = ReadFile(source);
  if (!text.ok()) {
    Fail(text.status());
    return 2;
  }
  seqdl::DiagnosticList diags;
  auto program = seqdl::ParseProgram(u, *text, &diags);
  bool parsed = program.ok();

  seqdl::AdmissionReport report;
  if (parsed) {
    seqdl::ValidateProgram(u, *program, &diags);
    seqdl::LintOptions lopts;
    if (std::string v = FlagValue(args, "--output="); !v.empty()) {
      auto rel = u.FindRel(v);
      if (!rel.ok()) {
        Fail(seqdl::Status::NotFound("--output=" + v +
                                     ": relation not used by the program"));
        return 2;
      }
      lopts.output = *rel;
    }
    seqdl::LintProgram(u, *program, lopts, &diags);
    report = seqdl::AnalyzeAdmission(u, *program);
    seqdl::DiagnosticList admission =
        seqdl::PolicyDiagnostics(report, policy);
    for (const seqdl::Diagnostic& d : admission.all()) diags.Add(d);
  }

  if (HasFlag(args, "--werror")) {
    seqdl::DiagnosticList hard;
    for (const seqdl::Diagnostic& d : diags.all()) {
      seqdl::Diagnostic c = d;
      if (c.severity == seqdl::Severity::kWarning) {
        c.severity = seqdl::Severity::kError;
      }
      hard.Add(std::move(c));
    }
    diags = std::move(hard);
  }

  const char* verdict =
      seqdl::AdmissionVerdictToString(report.Verdict(policy));
  if (json) {
    std::string out = "{\n  \"source\": ";
    seqdl::AppendJsonString(&out, source);
    out += ",\n  \"valid\": ";
    out += diags.HasErrors() ? "false" : "true";
    if (parsed) {
      out += ",\n  \"rules\": " + std::to_string(program->NumRules());
      out += ",\n  \"strata\": " + std::to_string(program->strata.size());
      out += ",\n  \"features\": ";
      seqdl::AppendJsonString(&out, report.features.ToString());
      out += ",\n  \"class\": ";
      seqdl::AppendJsonString(&out, report.fragment_class);
      out += ",\n  \"admission\": ";
      seqdl::AppendJsonString(&out, verdict);
    }
    out += ",\n  \"errors\": " + std::to_string(diags.NumErrors());
    out += ",\n  \"warnings\": " + std::to_string(diags.NumWarnings());
    out += ",\n  \"diagnostics\": " + diags.RenderJson();
    out += "\n}\n";
    std::printf("%s", out.c_str());
  } else {
    std::fprintf(stderr, "%s", diags.RenderText(source).c_str());
    if (parsed) {
      std::printf("rules:      %zu in %zu strata\n", program->NumRules(),
                  program->strata.size());
      std::printf("features:   %s\n", report.features.ToString().c_str());
      std::printf("class:      %s (Figure 1)\n",
                  report.fragment_class.c_str());
      std::printf("admission:  %s (policy %s)\n", verdict,
                  seqdl::AdmissionPolicyToString(policy));
    }
    std::printf("diagnostics: %zu errors, %zu warnings\n",
                diags.NumErrors(), diags.NumWarnings());
  }
  if (diags.HasErrors()) return 1;
  if (diags.NumWarnings() > 0) return 4;
  return 0;
}

int CmdTransform(const std::vector<std::string>& args) {
  if (PositionalArgs(args).empty()) return Usage("transform");
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  std::string what = FlagValue(args, "--eliminate=");
  if (what.empty()) what = "all";

  seqdl::Program current = *program;
  auto apply = [&](const std::string& name) -> seqdl::Status {
    if (name == "packing") {
      auto q = seqdl::EliminatePackingNonrecursive(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else if (name == "equations") {
      auto q = seqdl::EliminateEquations(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else if (name == "arity") {
      auto q = seqdl::EliminateArity(u, current);
      if (!q.ok()) return q.status();
      current = std::move(*q);
    } else {
      return seqdl::Status::InvalidArgument("unknown elimination " + name);
    }
    return seqdl::Status::OK();
  };

  if (what == "all") {
    seqdl::FeatureSet f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kPacking)) {
      seqdl::Status s = apply("packing");
      if (!s.ok()) return Fail(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kEquations)) {
      seqdl::Status s = apply("equations");
      if (!s.ok()) return Fail(s);
    }
    f = seqdl::DetectFeatures(current);
    if (f.Contains(seqdl::Feature::kArity)) {
      seqdl::Status s = apply("arity");
      if (!s.ok()) return Fail(s);
    }
  } else {
    seqdl::Status s = apply(what);
    if (!s.ok()) return Fail(s);
  }
  std::printf("%s", seqdl::FormatProgram(u, current).c_str());
  std::fprintf(stderr, "-- %zu rules, features %s\n", current.NumRules(),
               seqdl::DetectFeatures(current).ToString().c_str());
  return 0;
}

int CmdNormalForm(const std::vector<std::string>& args) {
  if (args.empty()) return Usage("normalform");
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  seqdl::Program staged = *program;
  bool has_equations = false;
  for (const seqdl::Rule* r : staged.AllRules()) {
    for (const seqdl::Literal& l : r->body) {
      has_equations |= l.is_equation();
    }
  }
  if (has_equations) {
    auto q = seqdl::EliminateEquations(u, staged);
    if (!q.ok()) return Fail(q.status());
    staged = std::move(*q);
  }
  auto normal = seqdl::ToNormalForm(u, staged);
  if (!normal.ok()) return Fail(normal.status());
  std::printf("%s", seqdl::FormatProgram(u, *normal).c_str());
  return 0;
}

int CmdAlgebra(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage("algebra");
  seqdl::Universe u;
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status());
  auto program = seqdl::ParseProgram(u, *text);
  if (!program.ok()) return Fail(program.status());
  auto rel = u.FindRel(args[1]);
  if (!rel.ok()) return Fail(rel.status());
  auto alg = seqdl::DatalogToAlgebra(u, *program, *rel);
  if (!alg.ok()) return Fail(alg.status());
  std::printf("%s\n", seqdl::FormatAlgebra(u, **alg).c_str());
  return 0;
}

int CmdHasse(const std::vector<std::string>& args) {
  seqdl::HasseDiagram d = seqdl::BuildHasseDiagram();
  if (HasFlag(args, "--dot")) {
    std::printf("%s", seqdl::HasseToDot(d).c_str());
  } else {
    std::printf("%s", seqdl::RenderHasse(d).c_str());
  }
  return 0;
}

int CmdRegex(const std::vector<std::string>& args) {
  if (args.empty()) return Usage("regex");
  seqdl::Universe u;
  auto q = seqdl::RegexToDatalog(u, args[0]);
  if (!q.ok()) return Fail(q.status());
  std::printf("%% strings go into %s; matches appear in %s\n",
              u.RelName(q->input).c_str(), u.RelName(q->output).c_str());
  std::printf("%s", seqdl::FormatProgram(u, q->program).c_str());
  return 0;
}

/// A subcommand and everything it accepts, declared once: main checks
/// the arguments against it and Usage() prints it. Flags are written as
/// the usage line shows them, `--name` for a switch and `--name=VALUE`
/// for a flag taking a value.
struct CommandSpec {
  const char* name;
  int (*run)(const std::vector<std::string>&);
  const char* synopsis;  // operands; any --flag here is required
  const char* flags;     // optional flags, space-separated
  const char* note = "";
};

const CommandSpec kCommands[] = {
    {"run", CmdRun, "<program> [<instance>]",
     "--data-dir=DIR --sync=always|interval|never --output=REL --naive "
     "--no-index --stats --explain --legacy-planner",
     "(the instance is required without --data-dir; with one, it seeds a "
     "fresh data directory)\n"},
    {"serve", CmdServe, "[<instance>]",
     "--data-dir=DIR --sync=always|interval|never --stats --threads=N "
     "--recompile-drift=X --auto-compact=N --cache-bytes=N --listen=PORT "
     "--admission=off|budget|strict",
     "(the instance is required without --data-dir, and when initializing "
     "a fresh data directory it seeds the EDB)\n"},
    {"coordinate", CmdCoordinate, "--shards=HOST:PORT[,HOST:PORT...]",
     "--listen=PORT --threads=N --broadcast=REL[,REL...] "
     "--pin=REL=SHARD[,REL=SHARD...] --connect-timeout-ms=N "
     "--io-timeout-ms=N --cache-entries=N --no-forward-shutdown"},
    {"query", CmdQuery,
     "--connect=HOST:PORT <run <program> [REL] | compile <program> | "
     "append <instance> | retract <instance> | epoch | compact | stats | "
     "shutdown>",
     "--stats"},
    {"check", CmdCheck, "<program>",
     "--json --output=REL --admission=off|budget|strict --werror"},
    {"transform", CmdTransform, "<program>",
     "--eliminate=packing|equations|arity|all"},
    {"normalform", CmdNormalForm, "<program>", ""},
    {"algebra", CmdAlgebra, "<program> <REL>", ""},
    {"hasse", CmdHasse, "", "--dot"},
    {"regex", CmdRegex, "<pattern>", ""},
};

const CommandSpec* FindCommand(std::string_view name) {
  for (const CommandSpec& c : kCommands) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

/// The space-separated words of `text` that start with "--".
std::vector<std::string> FlagWords(const char* text) {
  std::istringstream in(text);
  std::vector<std::string> out;
  for (std::string w; in >> w;) {
    if (w.rfind("--", 0) == 0) out.push_back(w);
  }
  return out;
}

int Usage(std::string_view command) {
  const CommandSpec& c = *FindCommand(command);
  std::string line = std::string("usage: seqdl ") + c.name;
  if (*c.synopsis != '\0') line += std::string(" ") + c.synopsis;
  for (const std::string& f : FlagWords(c.flags)) line += " [" + f + "]";
  std::fprintf(stderr, "%s\n%s", line.c_str(), c.note);
  return 2;
}

/// Empty when every `--flag` of `args` is declared by `c` and given as
/// declared, and every required flag is given; otherwise an error naming
/// the first offending flag.
std::string CheckFlags(const CommandSpec& c,
                       const std::vector<std::string>& args) {
  const std::vector<std::string> required = FlagWords(c.synopsis);
  std::vector<std::string> declared = FlagWords(c.flags);
  declared.insert(declared.end(), required.begin(), required.end());
  auto name_of = [](const std::string& f) { return f.substr(0, f.find('=')); };
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0) continue;
    const std::string name = name_of(a);
    auto spec = std::ranges::find(declared, name, name_of);
    if (spec == declared.end()) return "unknown flag " + name;
    const bool takes_value = spec->size() > name.size();
    if (takes_value && a.size() <= name.size() + 1) {
      return "flag " + name + " needs a value (" + *spec + ")";
    }
    if (!takes_value && a.size() > name.size()) {
      return "flag " + name + " takes no value";
    }
  }
  for (const std::string& f : required) {
    if (FlagValue(args, name_of(f) + "=").empty()) return "missing " + f;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const CommandSpec* command = argc < 2 ? nullptr : FindCommand(argv[1]);
  if (command == nullptr) {
    std::string names;
    for (const CommandSpec& c : kCommands) {
      names += (names.empty() ? "" : "|") + std::string(c.name);
    }
    if (argc >= 2) std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    std::fprintf(stderr, "usage: seqdl <%s> ...\n", names.c_str());
    return 2;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (std::string error = CheckFlags(*command, args); !error.empty()) {
    std::fprintf(stderr, "error: seqdl %s: %s\n", command->name,
                 error.c_str());
    return Usage(command->name);
  }
  return command->run(args);
}
