// Engine ablations on recursive workloads (reachability over random
// graphs, stratified-negation pipelines), sweeping instance size:
//
//   * naive vs semi-naive fixpoint iteration;
//   * one-shot Eval (re-validate + re-plan per call) vs prepared
//     Engine::Compile + PreparedProgram::Run vs Session runs over a
//     long-lived Database (EDB indexed once, excluded from per-query time);
//   * indexed scans (per-(relation, column) hash probes) vs full scans;
//   * selectivity-aware vs legacy first-ground-argument planning on a
//     skewed join (one near-constant column, one high-cardinality key);
//   * concurrent throughput: N threads sharing one pre-indexed Database,
//     outputs checked byte-identical against a sequential run;
//   * the ingest path: Append throughput into a versioned Database, and
//     query latency over a 16-segment stack vs the same facts after
//     Compact() vs a cold Database::Open on the merged EDB;
//   * incremental view maintenance: re-serving a query after a small
//     append via ViewManager's semi-naive delta refresh vs re-running
//     the full fixpoint (the ISSUE acceptance bar: >= 5x at the larger
//     size).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/eval.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/view/view.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

void PrintRoundCounts() {
  std::printf("=== Engine ablation: naive vs semi-naive ===\n");
  std::printf("%-8s %-8s %-16s %-16s\n", "nodes", "edges", "rounds(semi)",
              "rounds(naive)");
  for (size_t nodes : {8u, 16u, 32u}) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
    if (!q.ok()) std::abort();
    GraphWorkload gw;
    gw.nodes = nodes;
    gw.edges = nodes * 2;
    gw.seed = nodes;
    Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
    EvalStats semi, naive;
    RunOptions naive_opts;
    naive_opts.seminaive = false;
    Result<Instance> o1 = Eval(u, q->program, *in, {}, &semi);
    Result<Instance> o2 = Eval(u, q->program, *in, naive_opts, &naive);
    if (!o1.ok() || !o2.ok()) continue;
    std::printf("%-8zu %-8zu %-16zu %-16zu  (firings %zu vs %zu)\n", nodes,
                gw.edges, semi.rounds, naive.rounds, semi.rule_firings,
                naive.rule_firings);
  }
  std::printf("\n");
}

void PrintIndexCounts() {
  std::printf("=== Engine ablation: indexed vs full scans ===\n");
  std::printf("%-8s %-14s %-14s %-12s %-14s\n", "nodes", "index probes",
              "prefix probes", "full scans", "scans(noidx)");
  for (size_t nodes : {16u, 32u, 64u}) {
    Universe u;
    Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
    if (!q.ok()) std::abort();
    GraphWorkload gw;
    gw.nodes = nodes;
    gw.edges = nodes * 2;
    gw.seed = nodes;
    Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
    if (!in.ok()) std::abort();
    Result<PreparedProgram> prog = Engine::Compile(u, q->program);
    if (!prog.ok()) std::abort();
    EvalStats indexed, scanned;
    RunOptions no_index;
    no_index.use_index = false;
    Result<Instance> o1 = prog->Run(*in, {}, &indexed);
    Result<Instance> o2 = prog->Run(*in, no_index, &scanned);
    if (!o1.ok() || !o2.ok()) continue;
    std::printf("%-8zu %-14zu %-14zu %-12zu %-14zu\n", nodes,
                indexed.index_probes, indexed.prefix_probes,
                indexed.full_scans, scanned.full_scans);
  }
  std::printf("\n");
}

// The skewed-selectivity workload: R(tag, id) where every tuple shares
// one tag (column 0 is a single huge bucket) while ids are unique
// (column 1 has singleton buckets), and P holds the tag·id paths the
// rule destructures. The legacy planner keys R on its first ground
// argument — the near-constant tag, turning every probe into a scan of
// the whole relation — while the selectivity-aware planner measures the
// buckets and keys on the id column.
struct SkewedWorkload {
  Program program;
  Instance input;
};

bool MakeSkewedWorkload(Universe& u, size_t n, SkewedWorkload* w) {
  Result<Program> p =
      ParseProgram(u, "S(@i) <- P(@t ++ @i), R(@t, @i).\n");
  if (!p.ok()) return false;
  w->program = std::move(*p);
  RelId p_rel = *u.FindRel("P");
  RelId r_rel = *u.FindRel("R");
  Value tag = Value::Atom(u.InternAtom("t"));
  for (size_t k = 0; k < n; ++k) {
    Value id = Value::Atom(u.InternAtom("i" + std::to_string(k)));
    std::vector<Value> pair = {tag, id};
    w->input.Add(p_rel, {u.InternPath(pair)});
    w->input.Add(r_rel, {u.SingletonPath(tag), u.SingletonPath(id)});
  }
  return true;
}

void PrintSelectivityPlanning() {
  std::printf("=== Planner: selectivity-aware vs first-ground-argument ===\n");
  std::printf("%-8s %-14s %-14s %-10s %-10s\n", "tuples", "legacy(ms)",
              "selective(ms)", "speedup", "identical");
  for (size_t n : {256u, 1024u}) {
    Universe u;
    SkewedWorkload w;
    if (!MakeSkewedWorkload(u, n, &w)) std::abort();
    Result<Database> db = Database::Open(u, w.input);
    if (!db.ok()) std::abort();
    // Legacy heuristic vs Database::Stats()-fed compile of the same rule.
    Result<PreparedProgram> legacy = Engine::Compile(u, w.program);
    Result<PreparedProgram> selective = db->Compile(w.program);
    if (!legacy.ok() || !selective.ok()) std::abort();
    Session session = db->Snapshot();
    auto time_ms = [&](const PreparedProgram& prog, std::string* out) {
      Result<Instance> warm = session.Run(prog);  // index build excluded
      if (!warm.ok()) std::abort();
      *out = warm->ToString(u);
      constexpr int kReps = 5;
      auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        if (!session.Run(prog).ok()) std::abort();
      }
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count() /
             kReps;
    };
    std::string legacy_out, selective_out;
    double legacy_ms = time_ms(*legacy, &legacy_out);
    double selective_ms = time_ms(*selective, &selective_out);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  legacy_ms / selective_ms);
    std::printf("%-8zu %-14.3f %-14.3f %-10s %s\n", n, legacy_ms,
                selective_ms, speedup,
                legacy_out == selective_out ? "yes" : "NO — MISMATCH");
  }
  std::printf("\n");
}

// Concurrent throughput over one shared Database: N threads each run M
// queries through their own Session against the same pre-indexed EDB.
// Verifies every thread's output is byte-identical to a sequential run,
// and reports per-query wall time (EDB index build excluded — it happened
// once, at warm-up).
void PrintConcurrentThroughput() {
  std::printf("=== Database/Session: concurrent throughput ===\n");
  constexpr size_t kNodes = 64;
  constexpr size_t kQueriesPerThread = 4;
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  if (!q.ok()) std::abort();
  GraphWorkload gw;
  gw.nodes = kNodes;
  gw.edges = kNodes * 2;
  gw.seed = 21;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  if (!in.ok()) std::abort();
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) std::abort();
  Result<Database> db = Database::Open(u, std::move(*in));
  if (!db.ok()) std::abort();

  // Warm-up builds the lazy base indexes once and fixes the reference.
  Result<Instance> ref = db->Snapshot().Run(*prog);
  if (!ref.ok()) std::abort();
  std::string reference = ref->ToString(u);

  std::printf("%-8s %-10s %-14s %-14s %-10s\n", "threads", "queries",
              "total(ms)", "per-query(ms)", "identical");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::string> outputs(threads * kQueriesPerThread);
    std::vector<std::thread> pool;
    auto start = std::chrono::steady_clock::now();
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Session session = db->Snapshot();
        for (size_t r = 0; r < kQueriesPerThread; ++r) {
          Result<Instance> out = session.Run(*prog);
          outputs[t * kQueriesPerThread + r] =
              out.ok() ? out->ToString(u) : out.status().ToString();
        }
      });
    }
    for (std::thread& th : pool) th.join();
    double total_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    bool identical = true;
    for (const std::string& o : outputs) identical &= (o == reference);
    size_t queries = threads * kQueriesPerThread;
    std::printf("%-8zu %-10zu %-14.2f %-14.2f %s\n", threads, queries,
                total_ms, total_ms / static_cast<double>(queries),
                identical ? "yes" : "NO — MISMATCH");
  }
  std::printf("\n");
}

// Ingest path: the versioned Database's append throughput, and how query
// latency over a deep segment stack compares with the same facts after
// Compact() and with a cold Database::Open on the merged EDB (the
// acceptance bar: post-compaction within ~10% of cold open).
struct IngestWorkload {
  Result<ParsedQuery> query;
  std::vector<Instance> batches;  // batches[0] seeds Open, the rest Append

  explicit IngestWorkload(Universe& u, size_t nodes, size_t num_batches)
      : query(ParsePaperQuery(u, "reach_ab")) {
    GraphWorkload gw;
    gw.nodes = nodes;
    gw.edges = nodes * 2;
    gw.seed = 33;
    Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
    if (!in.ok()) return;
    batches.resize(num_batches);
    size_t i = 0;
    for (RelId rel : in->Relations()) {
      for (const Tuple& t : in->Tuples(rel)) {
        batches[i++ % num_batches].Add(rel, t);
      }
    }
  }

  Instance Merged() const {
    Instance all;
    for (const Instance& b : batches) all.UnionWith(b);
    return all;
  }
};

void PrintIngestBench() {
  std::printf("=== Versioned ingest: append throughput + compaction ===\n");
  std::printf("%-8s %-9s %-12s %-13s %-13s %-11s %-10s\n", "nodes",
              "batches", "append(ms)", "stacked(ms)", "compacted(ms)",
              "cold(ms)", "cmp/cold");
  for (size_t nodes : {32u, 64u}) {
    constexpr size_t kBatches = 16;
    Universe u;
    IngestWorkload w(u, nodes, kBatches);
    if (!w.query.ok() || w.batches.empty()) std::abort();
    Result<PreparedProgram> prog = Engine::Compile(u, w.query->program);
    if (!prog.ok()) std::abort();

    Result<Database> db = Database::Open(u, w.batches[0]);
    if (!db.ok()) std::abort();
    auto append_start = std::chrono::steady_clock::now();
    for (size_t i = 1; i < w.batches.size(); ++i) {
      if (!db->Append(w.batches[i]).ok()) std::abort();
    }
    double append_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - append_start)
                           .count();

    auto time_warm = [&](const Database& target) {
      Session session = target.Snapshot();
      if (!session.Run(*prog).ok()) std::abort();  // index build excluded
      constexpr int kReps = 5;
      auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        if (!session.Run(*prog).ok()) std::abort();
      }
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count() /
             kReps;
    };

    double stacked_ms = time_warm(*db);  // 16 segments deep
    if (!*db->Compact()) std::abort();
    double compacted_ms = time_warm(*db);  // folded to one segment
    Result<Database> cold = Database::Open(u, w.Merged());
    if (!cold.ok()) std::abort();
    double cold_ms = time_warm(*cold);

    std::printf("%-8zu %-9zu %-12.3f %-13.3f %-13.3f %-11.3f %.2fx\n",
                nodes, kBatches, append_ms, stacked_ms, compacted_ms,
                cold_ms, compacted_ms / cold_ms);
  }
  std::printf("\n");
}

// Incremental maintenance workload: reachability over a random graph,
// then a stream of tiny appends (one fresh-source edge each, well under
// 1% of the EDB). A maintained view delta-evaluates just the appended
// edge against its stored IDB — deriving only the fresh source's
// reachable set — while the baseline re-runs the whole fixpoint.
struct DeltaWorkload {
  Result<Program> program;
  Instance base;
  std::vector<Instance> appends;

  DeltaWorkload(Universe& u, size_t nodes, size_t num_appends)
      : program(ParseProgram(u,
                             "R($x, $y) <- E($x, $y).\n"
                             "R($x, $z) <- R($x, $y), E($y, $z).\n")) {
    if (!program.ok()) return;
    GraphWorkload gw;
    gw.nodes = nodes;
    gw.edges = nodes * 2;
    gw.seed = 47;
    Graph g = RandomGraph(gw);
    RelId e = *u.FindRel("E");  // arity 2, declared by the program
    auto node = [&u](uint32_t n) {
      return u.SingletonPath(Value::Atom(u.InternAtom("n" + std::to_string(n))));
    };
    for (const auto& [from, to] : g.edges) {
      base.Add(e, {node(from), node(to)});
    }
    if (g.edges.empty()) return;
    // Each append wires a fresh node into an existing source, so the
    // delta derives that node's reachable set and nothing else.
    PathId target = node(g.edges.front().first);
    for (size_t k = 0; k < num_appends; ++k) {
      Value fresh = Value::Atom(u.InternAtom("zq" + std::to_string(k)));
      Instance a;
      a.Add(e, {u.SingletonPath(fresh), target});
      appends.push_back(std::move(a));
    }
  }
};

void PrintDeltaMaintenance() {
  std::printf("=== Maintained views: delta refresh vs full fixpoint ===\n");
  std::printf("%-8s %-9s %-12s %-12s %-10s %s\n", "nodes", "appends",
              "full(ms)", "delta(ms)", "speedup", "identical");
  for (size_t nodes : {64u, 256u}) {
    constexpr size_t kAppends = 16;
    Universe u;
    DeltaWorkload w(u, nodes, kAppends);
    if (!w.program.ok() || w.appends.empty()) std::abort();
    Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
    if (!prog.ok()) std::abort();

    // Two databases fed the identical append stream: one re-serves from
    // a maintained view, the other re-runs the fixpoint every time.
    Result<Database> incr = Database::Open(u, w.base);
    Result<Database> full = Database::Open(u, w.base);
    if (!incr.ok() || !full.ok()) std::abort();
    if (!incr->views().Refresh("bench", *prog).ok()) std::abort();
    if (!full->Snapshot().Run(*prog).ok()) std::abort();  // index build

    double delta_ms = 0, full_ms = 0;
    bool identical = true;
    for (const Instance& a : w.appends) {
      if (!incr->Append(a).ok() || !full->Append(a).ok()) std::abort();

      auto t0 = std::chrono::steady_clock::now();
      auto view = incr->views().Refresh("bench", *prog);
      auto t1 = std::chrono::steady_clock::now();
      Result<Instance> rerun = full->Snapshot().Run(*prog);
      auto t2 = std::chrono::steady_clock::now();
      if (!view.ok() || !rerun.ok()) std::abort();

      delta_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      full_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
      identical &= (*view)->idb().ToString(u) == rerun->ToString(u);
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", full_ms / delta_ms);
    std::printf("%-8zu %-9zu %-12.3f %-12.3f %-10s %s\n", nodes, kAppends,
                full_ms, delta_ms, speedup,
                identical ? "yes" : "NO — MISMATCH");
  }
  std::printf("\n");
}

// The same comparison for the BENCH json. One iteration = one append
// plus one re-serve; every kAppends iterations the database is rebuilt
// (outside the timer) so the segment stack stays comparable.
void RunDeltaAppend(benchmark::State& state, bool maintained) {
  size_t nodes = static_cast<size_t>(state.range(0));
  constexpr size_t kAppends = 32;
  Universe u;
  DeltaWorkload w(u, nodes, kAppends);
  if (!w.program.ok() || w.appends.empty()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, *w.program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  std::optional<Database> db;
  size_t next = kAppends;  // forces a build before the first iteration
  for (auto _ : state) {
    if (next == kAppends) {
      state.PauseTiming();
      Result<Database> fresh = Database::Open(u, w.base);
      if (!fresh.ok()) {
        state.SkipWithError(fresh.status().ToString().c_str());
        return;
      }
      db.emplace(std::move(*fresh));
      bool warmed = maintained
                        ? db->views().Refresh("bench", *prog).ok()
                        : db->Snapshot().Run(*prog).ok();
      if (!warmed) {
        state.SkipWithError("warm-up failed");
        return;
      }
      next = 0;
      state.ResumeTiming();
    }
    if (!db->Append(w.appends[next++]).ok()) {
      state.SkipWithError("append failed");
      return;
    }
    if (maintained) {
      auto view = db->views().Refresh("bench", *prog);
      if (!view.ok()) {
        state.SkipWithError(view.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(view);
    } else {
      Result<Instance> out = db->Snapshot().Run(*prog);
      if (!out.ok()) {
        state.SkipWithError(out.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_DeltaAppendQuery(benchmark::State& state) {
  RunDeltaAppend(state, /*maintained=*/true);
}
BENCHMARK(BM_DeltaAppendQuery)->Arg(64)->Arg(256);

void BM_FullAppendQuery(benchmark::State& state) {
  RunDeltaAppend(state, /*maintained=*/false);
}
BENCHMARK(BM_FullAppendQuery)->Arg(64)->Arg(256);

// Append throughput for the BENCH json: one iteration ingests the whole
// batched workload into a fresh Database (Open + 15 Appends).
void BM_IngestAppend(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  constexpr size_t kBatches = 16;
  Universe u;
  IngestWorkload w(u, nodes, kBatches);
  if (!w.query.ok() || w.batches.empty()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  size_t total_facts = w.Merged().NumFacts();
  for (auto _ : state) {
    Result<Database> db = Database::Open(u, w.batches[0]);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    for (size_t i = 1; i < w.batches.size(); ++i) {
      if (!db->Append(w.batches[i]).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total_facts));
}
BENCHMARK(BM_IngestAppend)->Arg(32)->Arg(64);

// Post-compaction query latency vs a cold open on the merged EDB — the
// two must track each other (compaction's whole point).
void RunIngestQuery(benchmark::State& state, bool compacted) {
  size_t nodes = static_cast<size_t>(state.range(0));
  constexpr size_t kBatches = 16;
  Universe u;
  IngestWorkload w(u, nodes, kBatches);
  if (!w.query.ok() || w.batches.empty()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, w.query->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Result<Database> db = Database::Open(
      u, compacted ? w.batches[0] : w.Merged());
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  if (compacted) {
    for (size_t i = 1; i < w.batches.size(); ++i) {
      if (!db->Append(w.batches[i]).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
    db->Compact();
  }
  Session session = db->Snapshot();
  if (!session.Run(*prog).ok()) {  // build the lazy indexes once
    state.SkipWithError("warm-up run failed");
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = session.Run(*prog);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_IngestedCompactedQuery(benchmark::State& state) {
  RunIngestQuery(state, /*compacted=*/true);
}
BENCHMARK(BM_IngestedCompactedQuery)->Arg(32)->Arg(64);

void BM_ColdOpenMergedQuery(benchmark::State& state) {
  RunIngestQuery(state, /*compacted=*/false);
}
BENCHMARK(BM_ColdOpenMergedQuery)->Arg(32)->Arg(64);

// One-shot legacy path: validation + stratification + planning on every
// call, exactly what pre-Engine call sites paid.
void BM_ReachEvalOneShot(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 21;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  if (!q.ok() || !in.ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  RunOptions opts;
  opts.use_index = false;  // the seed engine had no indexes
  for (auto _ : state) {
    Result<Instance> out = Eval(u, q->program, *in, opts);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ReachEvalOneShot)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void RunPrepared(benchmark::State& state, bool use_index) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 21;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  if (!q.ok() || !in.ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  RunOptions opts;
  opts.use_index = use_index;
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*in, opts);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_ReachPreparedIndexed(benchmark::State& state) {
  RunPrepared(state, true);
}
BENCHMARK(BM_ReachPreparedIndexed)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Session runs over a long-lived Database: the EDB is indexed once at
// setup, so per-query time excludes index build (compare against
// BM_ReachPreparedIndexed, which pays a fresh base per run).
void BM_ReachSessionRun(benchmark::State& state) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 21;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  if (!q.ok() || !in.ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Result<Database> db = Database::Open(u, std::move(*in));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  Session session = db->Snapshot();
  // Build the lazy base indexes outside the timed loop.
  if (!session.Run(*prog).ok()) {
    state.SkipWithError("warm-up run failed");
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = session.Run(*prog);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ReachSessionRun)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ReachPreparedNoIndex(benchmark::State& state) {
  RunPrepared(state, false);
}
BENCHMARK(BM_ReachPreparedNoIndex)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void RunReachability(benchmark::State& state, bool seminaive) {
  size_t nodes = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  GraphWorkload gw;
  gw.nodes = nodes;
  gw.edges = nodes * 2;
  gw.seed = 21;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  if (!q.ok() || !in.ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  RunOptions opts;
  opts.seminaive = seminaive;
  for (auto _ : state) {
    Result<Instance> out = Eval(u, q->program, *in, opts);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_ReachSeminaive(benchmark::State& state) {
  RunReachability(state, true);
}
BENCHMARK(BM_ReachSeminaive)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ReachNaive(benchmark::State& state) {
  RunReachability(state, false);
}
BENCHMARK(BM_ReachNaive)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void RunSkewedJoin(benchmark::State& state, bool selectivity) {
  size_t n = static_cast<size_t>(state.range(0));
  Universe u;
  SkewedWorkload w;
  if (!MakeSkewedWorkload(u, n, &w)) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<Database> db = Database::Open(u, std::move(w.input));
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  Result<PreparedProgram> prog = selectivity
                                     ? db->Compile(std::move(w.program))
                                     : Engine::Compile(u, std::move(w.program));
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  Session session = db->Snapshot();
  if (!session.Run(*prog).ok()) {  // build the lazy base indexes once
    state.SkipWithError("warm-up run failed");
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = session.Run(*prog);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_SkewedJoinLegacyPlan(benchmark::State& state) {
  RunSkewedJoin(state, false);
}
BENCHMARK(BM_SkewedJoinLegacyPlan)->Arg(256)->Arg(1024);

void BM_SkewedJoinSelectivityPlan(benchmark::State& state) {
  RunSkewedJoin(state, true);
}
BENCHMARK(BM_SkewedJoinSelectivityPlan)->Arg(256)->Arg(1024);

void BM_StratifiedNegationPipeline(benchmark::State& state) {
  size_t logs = static_cast<size_t>(state.range(0));
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "process_mining");
  EventLogWorkload ew;
  ew.count = logs;
  ew.len = 10;
  ew.seed = 4;
  Result<Instance> in = RandomEventLogs(u, ew);
  if (!q.ok() || !in.ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  if (!prog.ok()) {
    state.SkipWithError(prog.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<Instance> out = prog->Run(*in);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_StratifiedNegationPipeline)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace seqdl

int main(int argc, char** argv) {
  seqdl::PrintRoundCounts();
  seqdl::PrintIndexCounts();
  seqdl::PrintSelectivityPlanning();
  seqdl::PrintConcurrentThroughput();
  seqdl::PrintIngestBench();
  seqdl::PrintDeltaMaintenance();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
