// Concurrency coverage for the Database/Session API and the thread-safe
// Universe: parallel session runs over one shared pre-indexed EDB must be
// byte-identical to sequential runs, and concurrent interning must
// hash-cons consistently across threads. All assertions happen on the
// main thread after joining (gtest assertions are not thread-safe);
// worker threads only record what they saw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "src/workload/generators.h"

namespace seqdl {
namespace {

constexpr size_t kThreads = 8;

// Deterministic per-thread generator (splitmix64), so runs reproduce.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// --- Universe interning ------------------------------------------------------

TEST(UniverseConcurrencyTest, InterningStressAgreesAcrossThreads) {
  Universe u;
  // A shared pool of atoms interned before the threads start; the threads
  // then race to intern overlapping sets of paths built from them.
  constexpr size_t kAtoms = 12;
  std::vector<Value> atoms;
  for (size_t i = 0; i < kAtoms; ++i) {
    atoms.push_back(Value::Atom(u.InternAtom("a" + std::to_string(i))));
  }

  constexpr size_t kItersPerThread = 4000;
  // Each thread records (path contents as digit string) -> PathId.
  std::vector<std::map<std::string, PathId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng{t + 1};
      for (size_t i = 0; i < kItersPerThread; ++i) {
        size_t len = rng.Next() % 6;
        std::vector<Value> values;
        std::string key;
        for (size_t k = 0; k < len; ++k) {
          size_t a = rng.Next() % kAtoms;
          values.push_back(atoms[a]);
          key += static_cast<char>('A' + a);
        }
        PathId id = u.InternPath(values);
        seen[t][key] = id;
        // Round-trip through the lock-free read path while other threads
        // are still interning.
        std::span<const Value> got = u.GetPath(id);
        if (got.size() != values.size()) {
          seen[t][key] = static_cast<PathId>(-1);  // poison: caught below
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Equal contents must have interned to equal ids in every thread.
  std::map<std::string, PathId> combined;
  for (const auto& m : seen) {
    for (const auto& [key, id] : m) {
      ASSERT_NE(id, static_cast<PathId>(-1)) << "GetPath mismatch for " << key;
      auto [it, inserted] = combined.emplace(key, id);
      EXPECT_EQ(it->second, id) << "contents " << key
                                << " interned to two different ids";
    }
  }
  // And every id resolves back to its contents.
  for (const auto& [key, id] : combined) {
    std::span<const Value> got = u.GetPath(id);
    ASSERT_EQ(got.size(), key.size());
    for (size_t k = 0; k < key.size(); ++k) {
      EXPECT_EQ(got[k], atoms[static_cast<size_t>(key[k] - 'A')]);
    }
  }
  EXPECT_EQ(u.InternPath({}), kEmptyPath);
}

TEST(UniverseConcurrencyTest, ConcatAppendStress) {
  Universe u;
  PathId base = u.PathOfChars("ab");
  Value c = Value::Atom(u.InternAtom("c"));
  std::vector<PathId> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PathId p = base;
      for (int i = 0; i < 500; ++i) {
        p = u.Append(base, c);
        p = u.Concat(p, base);
        p = u.SubPath(p, 0, 3);
      }
      results[t] = p;
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]);
  }
  EXPECT_EQ(u.FormatPath(results[0]), "a·b·c");
}

TEST(UniverseConcurrencyTest, AtomVarRelInterningStress) {
  Universe u;
  std::vector<std::vector<uint32_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ids[t].push_back(u.InternAtom("atom" + std::to_string(i % 50)));
        ids[t].push_back(
            u.InternVar(VarKind::kPath, "v" + std::to_string(i % 20)));
        Result<RelId> r = u.InternRel("Rel" + std::to_string(i % 10), 2);
        ids[t].push_back(r.ok() ? *r : static_cast<uint32_t>(-1));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  EXPECT_EQ(u.num_atoms(), 50u);
  EXPECT_EQ(u.num_vars(), 20u);
  EXPECT_EQ(u.num_rels(), 10u);
}

TEST(UniverseConcurrencyTest, SingletonAndInternPathRacesAgree) {
  Universe u;
  // Half the atoms exist before the threads start (their singleton slots
  // still unset); the threads intern the other half while racing, so
  // slot blocks are published while other threads read slots.
  constexpr size_t kAtoms = 3000;
  for (size_t i = 0; i < kAtoms / 2; ++i) {
    u.InternAtom("s" + std::to_string(i));
  }
  const size_t paths_before = u.num_paths();
  std::vector<std::vector<PathId>> singles(kThreads), pairs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < kAtoms; ++k) {
        // Threads walk the atoms from different starting points.
        size_t i = (k + t * 97) % kAtoms;
        Value a = Value::Atom(u.InternAtom("s" + std::to_string(i)));
        Value b =
            Value::Atom(u.InternAtom("s" + std::to_string((i + 1) % kAtoms)));
        singles[t].push_back(u.SingletonPath(a));
        const Value pair[] = {a, b};
        pairs[t].push_back(u.InternPath(pair));
      }
      // Index by atom, not by visit order, for the comparison below.
      std::rotate(singles[t].begin(),
                  singles[t].end() - static_cast<long>((t * 97) % kAtoms),
                  singles[t].end());
      std::rotate(pairs[t].begin(),
                  pairs[t].end() - static_cast<long>((t * 97) % kAtoms),
                  pairs[t].end());
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(singles[t], singles[0]);
    EXPECT_EQ(pairs[t], pairs[0]);
  }
  for (size_t i = 0; i < kAtoms; ++i) {
    Value a = Value::Atom(u.InternAtom("s" + std::to_string(i)));
    EXPECT_EQ(u.InternPath({&a, 1}), singles[0][i]);
    ASSERT_EQ(u.GetPath(pairs[0][i]).size(), 2u);
    EXPECT_EQ(u.GetPath(pairs[0][i])[0], a);
  }
  // One singleton and one pair per atom, however the races went.
  EXPECT_EQ(u.num_paths(), paths_before + 2 * kAtoms);
}

// --- Database/Session --------------------------------------------------------

TEST(DatabaseConcurrencyTest, ParallelSessionRunsMatchSequential) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 24;
  gw.edges = 48;
  gw.seed = 7;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  // Sequential reference (also exercises the lazy base index build before
  // the threads arrive — and again from cold in a fresh Database below).
  Result<Instance> reference = db->Snapshot().Run(*prog);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);
  ASSERT_FALSE(reference_text.empty());

  constexpr size_t kRunsPerThread = 3;
  std::vector<std::string> outputs(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = db->Snapshot();
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        Result<Instance> out = session.Run(*prog);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        std::string text = out->ToString(u);
        if (r == 0) {
          outputs[t] = text;
        } else if (text != outputs[t]) {
          errors[t] = "run " + std::to_string(r) + " differed from run 0";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
    // Byte-identical to the sequential run.
    EXPECT_EQ(outputs[t], reference_text) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, ConcurrentStatsCollectionAndReads) {
  // Threads race stats-collecting runs (each records derived-fact
  // measurements into the Database's accumulator) against Database::Stats()
  // readers (which merge the call_once-cached base measurement with an
  // accumulator snapshot) and stats-driven compiles. Everything must stay
  // data-race free and every run byte-identical.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 16;
  gw.edges = 32;
  gw.seed = 11;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Result<Instance> reference = db->Snapshot().Run(*prog);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);

  constexpr size_t kRunsPerThread = 3;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session = db->Snapshot();
      RunOptions opts;
      opts.collect_derived_stats = true;
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        // Interleave accumulator writes (the run), snapshot reads, and a
        // stats-driven compile + run.
        EvalStats stats;
        Result<Instance> out = session.Run(*prog, opts, &stats);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        if (out->ToString(u) != reference_text) {
          errors[t] = "stats-collecting run differed";
          return;
        }
        StoreStats snapshot = db->Stats();
        if (snapshot.NumRelations() == 0) {
          errors[t] = "Stats() saw no relations";
          return;
        }
        Result<PreparedProgram> planned = db->Compile(q->program);
        if (!planned.ok()) {
          errors[t] = planned.status().ToString();
          return;
        }
        Result<Instance> planned_out = session.Run(*planned);
        if (!planned_out.ok()) {
          errors[t] = planned_out.status().ToString();
          return;
        }
        if (planned_out->ToString(u) != reference_text) {
          errors[t] = "selectivity-planned run differed";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
  // After the joins, the accumulator holds every collecting run's derived
  // relation (reach_ab's IDB), merged into the base EDB measurements.
  StoreStats final_stats = db->Stats();
  EXPECT_GT(final_stats.NumRelations(), db->base().Stats().NumRelations());
}

TEST(DatabaseConcurrencyTest, ColdDatabaseRacesIndexBuild) {
  // No sequential warm-up run: all threads hit the lazy call_once index
  // build simultaneously.
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 16;
  gw.edges = 32;
  gw.seed = 3;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Instance edb_copy = *in;
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Instance> out = db->Snapshot().Run(*prog);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();

  // Reference computed afterwards through the legacy path (derived facts =
  // full result minus the EDB).
  Result<Instance> full = prog->Run(edb_copy);
  ASSERT_TRUE(full.ok());
  std::set<RelId> idb = IdbRels(prog->program());
  std::string reference =
      full->Project({idb.begin(), idb.end()}).ToString(u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], reference) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, DistinctProgramsShareOneDatabase) {
  Universe u;
  Result<Program> reach = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(reach.ok());
  Result<Program> loops = ParseProgram(u, "Loop($x) <- R($x ++ $x).");
  ASSERT_TRUE(loops.ok());
  Result<Instance> in = ParseInstance(
      u, "R(a ++ b). R(b ++ c). R(c ++ a). R(d ++ d).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<PreparedProgram> p1 = Engine::Compile(u, std::move(*reach));
  Result<PreparedProgram> p2 = Engine::Compile(u, std::move(*loops));
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());

  std::string ref1 = db->Snapshot().Run(*p1)->ToString(u);
  std::string ref2 = db->Snapshot().Run(*p2)->ToString(u);
  ASSERT_FALSE(ref1.empty());
  ASSERT_FALSE(ref2.empty());

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const PreparedProgram& prog = (t % 2 == 0) ? *p1 : *p2;
      Result<Instance> out = db->Snapshot().Run(prog);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], t % 2 == 0 ? ref1 : ref2) << "thread " << t;
  }
}

TEST(DatabaseConcurrencyTest, SessionRejectsForeignUniverse) {
  Universe u1, u2;
  Result<Instance> in = ParseInstance(u1, "R(a).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u1, std::move(*in));
  ASSERT_TRUE(db.ok());
  Result<Program> p = ParseProgram(u2, "S($x) <- R($x).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u2, std::move(*p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> out = db->Snapshot().Run(*prog);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// --- Epochs: ingest vs snapshots ---------------------------------------------

// A snapshot pinned at epoch k returns byte-identical results before,
// during, and after later Append/Commit/Compact — and matches a fresh
// Database::Open on exactly epoch k's facts.
TEST(EpochConcurrencyTest, SnapshotsPinTheirEpochAcrossAppendAndCompact) {
  Universe u;
  Result<Program> p = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(*p));
  ASSERT_TRUE(prog.ok());
  Result<Instance> first = ParseInstance(u, "R(a ++ b). R(b ++ c).");
  Result<Instance> second = ParseInstance(u, "R(c ++ d).");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  Result<Database> db = Database::Open(u, *first);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->epoch(), 0u);
  Session at0 = db->Snapshot();
  Result<Instance> before = at0.Run(*prog);
  ASSERT_TRUE(before.ok());
  std::string at0_text = before->ToString(u);

  // Cold-open references for both epochs.
  Result<Database> cold0 = Database::Open(u, *first);
  ASSERT_TRUE(cold0.ok());
  EXPECT_EQ(cold0->Snapshot().Run(*prog)->ToString(u), at0_text);
  Instance merged = *first;
  merged.UnionWith(*second);
  Result<Database> cold1 = Database::Open(u, merged);
  ASSERT_TRUE(cold1.ok());
  std::string at1_text = cold1->Snapshot().Run(*prog)->ToString(u);
  ASSERT_NE(at0_text, at1_text);

  // Append publishes epoch 1; the pinned snapshot still reads epoch 0.
  Result<uint64_t> epoch = db->Append(*second);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);
  EXPECT_EQ(db->NumSegments(), 2u);
  EXPECT_EQ(at0.epoch(), 0u);
  EXPECT_EQ(at0.Run(*prog)->ToString(u), at0_text);
  Session at1 = db->Snapshot();
  EXPECT_EQ(at1.epoch(), 1u);
  EXPECT_EQ(at1.Run(*prog)->ToString(u), at1_text);

  // Compaction folds the stack without moving the epoch; both pinned
  // snapshots are unaffected, and new snapshots see the merged store.
  EXPECT_TRUE(*db->Compact());
  EXPECT_EQ(db->NumSegments(), 1u);
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(at0.NumSegments(), 1u);
  EXPECT_EQ(at1.NumSegments(), 2u);  // the pre-compaction stack, pinned
  EXPECT_EQ(at0.Run(*prog)->ToString(u), at0_text);
  EXPECT_EQ(at1.Run(*prog)->ToString(u), at1_text);
  EXPECT_EQ(db->Snapshot().Run(*prog)->ToString(u), at1_text);
  // Nothing left to fold.
  EXPECT_FALSE(*db->Compact());
}

// One writer thread commits batches while reader threads open snapshots
// and run; every reader must see some prefix epoch's exact results. The
// per-epoch references are computed from cold opens after the fact.
TEST(EpochConcurrencyTest, WriterRacesSnapshotReaders) {
  Universe u;
  Result<Program> p = ParseProgram(
      u,
      "Reach($x, $y) <- R($x ++ $y).\n"
      "Reach($x, $z) <- Reach($x, $y), R($y ++ $z).");
  ASSERT_TRUE(p.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, std::move(*p));
  ASSERT_TRUE(prog.ok());

  // A chain a0 -> a1 -> ... appended one edge per commit: every epoch has
  // a distinct Reach closure.
  constexpr size_t kCommits = 12;
  std::vector<Instance> batches;
  RelId r = *u.InternRel("R", 1);
  for (size_t i = 0; i <= kCommits; ++i) {
    Value from = Value::Atom(u.InternAtom("n" + std::to_string(i)));
    Value to = Value::Atom(u.InternAtom("n" + std::to_string(i + 1)));
    std::vector<Value> edge = {from, to};
    Instance batch;
    batch.Add(r, {u.InternPath(edge)});
    batches.push_back(std::move(batch));
  }

  Result<Database> db = Database::Open(u, batches[0]);
  ASSERT_TRUE(db.ok());

  struct Observation {
    uint64_t epoch;
    std::string text;
  };
  std::vector<std::vector<Observation>> seen(kThreads - 1);
  std::vector<std::string> errors(kThreads - 1);

  std::vector<std::thread> threads;
  // Writer: commit the remaining batches through a batching Writer,
  // compacting halfway to race segment retirement against the readers.
  threads.emplace_back([&] {
    Writer w = db->MakeWriter();
    for (size_t i = 1; i < batches.size(); ++i) {
      w.Stage(batches[i]);
      if (!w.Commit().ok()) return;
      if (i == batches.size() / 2) db->Compact();
    }
  });
  // Readers: snapshot, run twice, record (epoch, bytes). Assertions
  // happen on the main thread after joining.
  for (size_t t = 0; t + 1 < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 6; ++i) {
        Session snap = db->Snapshot();
        Result<Instance> out1 = snap.Run(*prog);
        Result<Instance> out2 = snap.Run(*prog);
        if (!out1.ok() || !out2.ok()) {
          errors[t] = (out1.ok() ? out2 : out1).status().ToString();
          return;
        }
        std::string text = out1->ToString(u);
        if (text != out2->ToString(u)) {
          errors[t] = "re-run of one snapshot differed";
          return;
        }
        seen[t].push_back({snap.epoch(), std::move(text)});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Cold-open reference per epoch.
  std::vector<std::string> reference;
  Instance accumulated;
  for (size_t i = 0; i < batches.size(); ++i) {
    accumulated.UnionWith(batches[i]);
    Result<Database> cold = Database::Open(u, accumulated);
    ASSERT_TRUE(cold.ok());
    Result<Instance> out = cold->Snapshot().Run(*prog);
    ASSERT_TRUE(out.ok());
    reference.push_back(out->ToString(u));
  }

  for (size_t t = 0; t + 1 < kThreads; ++t) {
    ASSERT_TRUE(errors[t].empty()) << "reader " << t << ": " << errors[t];
    for (const Observation& o : seen[t]) {
      ASSERT_LT(o.epoch, reference.size()) << "reader " << t;
      EXPECT_EQ(o.text, reference[o.epoch])
          << "reader " << t << " at epoch " << o.epoch;
    }
  }
  EXPECT_EQ(db->epoch(), kCommits);
}

// Concurrent stats reads and stats-driven compiles stay safe while the
// epoch moves underneath them.
TEST(EpochConcurrencyTest, StatsAndCompileRaceIngest) {
  Universe u;
  Result<Program> p = ParseProgram(u, "Loop($x) <- R($x ++ $x).");
  ASSERT_TRUE(p.ok());
  Program program = *p;
  Result<Instance> in = ParseInstance(u, "R(a ++ a). R(a ++ b).");
  ASSERT_TRUE(in.ok());
  Result<Database> db = Database::Open(u, std::move(*in));
  ASSERT_TRUE(db.ok());

  RelId r = *u.FindRel("R");
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (size_t i = 0; i < 16; ++i) {
      Value x = Value::Atom(u.InternAtom("x" + std::to_string(i)));
      std::vector<Value> loop = {x, x};
      Instance batch;
      batch.Add(r, {u.InternPath(loop)});
      if (!db->Append(std::move(batch)).ok()) return;
      if (i % 5 == 4) db->Compact();
    }
  });
  for (size_t t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 8; ++i) {
        StoreStats stats = db->Stats();
        if (stats.NumRelations() == 0) {
          errors[t] = "Stats() saw no relations";
          return;
        }
        Result<PreparedProgram> planned = db->Compile(program);
        if (!planned.ok()) {
          errors[t] = planned.status().ToString();
          return;
        }
        Session snap = db->Snapshot();
        RunOptions opts;
        opts.collect_derived_stats = true;
        Result<Instance> out = snap.Run(*planned, opts);
        if (!out.ok()) {
          errors[t] = out.status().ToString();
          return;
        }
        // Within one snapshot, loops == facts whose path is x·x; the
        // count must match the pinned EDB regardless of racing appends.
        // (edb() materializes a copy: keep it alive past the loop.)
        Instance edb = snap.edb();
        size_t loops = 0;
        for (const Tuple& tup : edb.Tuples(r)) {
          std::span<const Value> path = u.GetPath(tup[0]);
          if (path.size() == 2 && path[0] == path[1]) ++loops;
        }
        if (out->NumFacts() != loops) {
          errors[t] = "derived loop count diverged from pinned EDB";
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
  }
}

// The legacy entry point is thread-safe too now: each Run builds its own
// throwaway base, and the shared Universe interns with synchronization.
TEST(DatabaseConcurrencyTest, LegacyPreparedRunsAreThreadSafe) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "reach_ab");
  ASSERT_TRUE(q.ok());
  GraphWorkload gw;
  gw.nodes = 12;
  gw.edges = 24;
  gw.seed = 11;
  Result<Instance> in = GraphToInstance(u, RandomGraph(gw), "R");
  ASSERT_TRUE(in.ok());
  Result<PreparedProgram> prog = Engine::Compile(u, q->program);
  ASSERT_TRUE(prog.ok());

  Result<Instance> reference = prog->Run(*in);
  ASSERT_TRUE(reference.ok());
  std::string reference_text = reference->ToString(u);

  std::vector<std::string> outputs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Instance> out = prog->Run(*in);
      outputs[t] = out.ok() ? out->ToString(u) : out.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], reference_text) << "thread " << t;
  }
}

}  // namespace
}  // namespace seqdl
