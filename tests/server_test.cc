// The network subsystem: wire-protocol round trips and malformed-frame
// handling (protocol.h), request dispatch over a real loopback TCP
// server (server.h + service.h + client.h), and the server's edge cases
// — oversized frames, truncated frames, clients vanishing mid-run, and
// graceful shutdown cancelling in-flight runs through
// RunOptions::cancel.
//
// ServerConcurrencyTest races N client threads against a writer, which
// also puts the whole stack under the TSan CI job's *Concurrency*
// filter. Byte-level semantics (server output vs in-process Session::Run
// across epochs and compaction) live in the loopback differential in
// differential_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/engine.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"
#include "src/term/universe.h"
#include "tests/counter_testing.h"

namespace seqdl {
namespace {

using protocol::MsgType;

// --- Protocol round trips -----------------------------------------------------

// Strips the u32 length prefix an encoder prepended.
std::string Payload(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return frame.substr(4);
}

TEST(ProtocolTest, RequestRoundTrips) {
  protocol::RunRequest run;
  run.program = "S($x) <- R($x).";
  run.source_name = "q.sdl";
  run.output_rel = "S";
  run.collect_derived_stats = false;
  Result<protocol::Request> decoded =
      protocol::DecodeRequest(Payload(protocol::EncodeRunRequest(run)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MsgType::kRun);
  EXPECT_EQ(decoded->run.program, run.program);
  EXPECT_EQ(decoded->run.source_name, run.source_name);
  EXPECT_EQ(decoded->run.output_rel, run.output_rel);
  EXPECT_FALSE(decoded->run.collect_derived_stats);

  protocol::CompileRequest compile;
  compile.program = "T() <- R(a).";
  compile.source_name = "c.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeCompileRequest(compile)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kCompile);
  EXPECT_EQ(decoded->compile.program, compile.program);

  protocol::AppendRequest append;
  append.facts = "R(b).";
  append.source_name = "facts.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeAppendRequest(append)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kAppend);
  EXPECT_EQ(decoded->append.facts, append.facts);
  EXPECT_EQ(decoded->append.source_name, append.source_name);

  protocol::RetractRequest retract;
  retract.facts = "R(b). R(c).";
  retract.source_name = "victims.sdl";
  decoded = protocol::DecodeRequest(
      Payload(protocol::EncodeRetractRequest(retract)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, MsgType::kRetract);
  EXPECT_EQ(decoded->retract.facts, retract.facts);
  EXPECT_EQ(decoded->retract.source_name, retract.source_name);

  for (MsgType t : {MsgType::kEpoch, MsgType::kCompact, MsgType::kStats,
                    MsgType::kShutdown}) {
    decoded = protocol::DecodeRequest(Payload(protocol::EncodeBareRequest(t)));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, t);
  }
}

TEST(ProtocolTest, ReplyRoundTrips) {
  protocol::RunReply run;
  run.epoch = 3;
  run.segments = 2;
  run.rendered = "S(a).\nS(b).\n";
  run.stats.derived_facts = 2;
  run.stats.rounds = 4;
  run.stats.index_probes = 7;
  run.stats.run_seconds = 0.125;
  Result<protocol::Reply> decoded =
      protocol::DecodeReply(Payload(protocol::EncodeRunReply(run)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->orig_type, MsgType::kRun);
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->run.epoch, 3u);
  EXPECT_EQ(decoded->run.segments, 2u);
  EXPECT_EQ(decoded->run.rendered, run.rendered);
  EXPECT_EQ(decoded->run.stats.derived_facts, 2u);
  EXPECT_EQ(decoded->run.stats.rounds, 4u);
  EXPECT_EQ(decoded->run.stats.index_probes, 7u);
  EXPECT_DOUBLE_EQ(decoded->run.stats.run_seconds, 0.125);

  protocol::CompileReply compile;
  compile.cache_hit = true;
  compile.rules = 5;
  compile.strata = 2;
  compile.compile_seconds = 0.5;
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeCompileReply(compile)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->compile.cache_hit);
  EXPECT_EQ(decoded->compile.rules, 5u);
  EXPECT_EQ(decoded->compile.strata, 2u);

  protocol::AppendReply append;
  append.appended = 9;
  append.db = {4, 3, 100};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeAppendReply(append)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->append.appended, 9u);
  EXPECT_EQ(decoded->append.db.epoch, 4u);
  EXPECT_EQ(decoded->append.db.segments, 3u);
  EXPECT_EQ(decoded->append.db.facts, 100u);

  protocol::RetractReply retract;
  retract.retracted = 6;
  retract.db = {5, 4, 94};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeRetractReply(retract)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kRetract);
  EXPECT_EQ(decoded->retract.retracted, 6u);
  EXPECT_EQ(decoded->retract.db.epoch, 5u);
  EXPECT_EQ(decoded->retract.db.segments, 4u);
  EXPECT_EQ(decoded->retract.db.facts, 94u);

  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeEpochReply({7, 2, 42})));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->info.epoch, 7u);

  protocol::CompactReply compact;
  compact.folded = true;
  compact.db = {7, 1, 42};
  decoded = protocol::DecodeReply(
      Payload(protocol::EncodeCompactReply(compact)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->compact.folded);

  protocol::StatsReply stats;
  stats.rendered = "R  col 0  whole  buckets=1\n";
  decoded = protocol::DecodeReply(Payload(protocol::EncodeStatsReply(stats)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stats.rendered, stats.rendered);

  decoded = protocol::DecodeReply(Payload(protocol::EncodeShutdownReply()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kShutdown);
}

TEST(ProtocolTest, ErrorReplyCarriesStatusAndNoBody) {
  std::string frame = protocol::EncodeErrorReply(
      MsgType::kRun, Status::InvalidArgument("q.sdl:3:7: expected ')'"));
  Result<protocol::Reply> decoded = protocol::DecodeReply(Payload(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->orig_type, MsgType::kRun);
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded->status.message(), "q.sdl:3:7: expected ')'");
}

TEST(ProtocolTest, TruncatedPayloadsAreRejectedAtEveryLength) {
  // Constructed, not assigned field by field: GCC 12 reports a false
  // -Wrestrict positive on `run.output_rel = "S"` here.
  const protocol::RunRequest run{.program = "S($x) <- R($x).",
                                 .source_name = "q.sdl",
                                 .output_rel = "S"};
  std::string payload = Payload(protocol::EncodeRunRequest(run));
  // Every strict prefix must fail decoding — never crash, never
  // misparse. (The frame layer reports mid-frame EOF separately.)
  for (size_t len = 0; len < payload.size(); ++len) {
    Result<protocol::Request> decoded =
        protocol::DecodeRequest(payload.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Every counter of every family crosses the wire in every reply that
// carries it: each field gets a distinct non-zero value through its
// table, so a dropped, swapped or mis-typed field fails by name. Every
// strict prefix of a counter-carrying reply is rejected, never misread.
TEST(ProtocolTest, EveryCounterRoundTripsThroughItsTable) {
  protocol::RunReply run;
  run.rendered = "S(a).\n";
  run.stats = DistinctCounters<protocol::WireEvalStats>(1);
  protocol::StatsReply stats;
  stats.rendered = "R  col 0  whole  buckets=1\n";
  stats.cache = DistinctCounters<CacheCounters>(101);
  stats.views = DistinctCounters<ViewCounters>(201);
  const protocol::DbInfo info = DistinctCounters<protocol::DbInfo>(301);
  auto decode = [](const std::string& frame) {
    Result<protocol::Reply> decoded = protocol::DecodeReply(Payload(frame));
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.ok() ? *decoded : protocol::Reply();
  };

  ExpectCountersEqual(decode(protocol::EncodeRunReply(run)).run.stats,
                      run.stats);
  protocol::Reply reply = decode(protocol::EncodeStatsReply(stats));
  ExpectCountersEqual(reply.stats.cache, stats.cache);
  ExpectCountersEqual(reply.stats.views, stats.views);
  ExpectCountersEqual(decode(protocol::EncodeEpochReply(info)).info, info);
  ExpectCountersEqual(
      decode(protocol::EncodeAppendReply({.db = info})).append.db, info);
  ExpectCountersEqual(
      decode(protocol::EncodeRetractReply({.db = info})).retract.db, info);
  ExpectCountersEqual(
      decode(protocol::EncodeCompactReply({.db = info})).compact.db, info);

  for (const std::string& frame : {protocol::EncodeRunReply(run),
                                   protocol::EncodeStatsReply(stats)}) {
    std::string payload = Payload(frame);
    for (size_t len = 0; len < payload.size(); ++len) {
      Result<protocol::Reply> decoded =
          protocol::DecodeReply(payload.substr(0, len));
      ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ProtocolTest, TrailingBytesAreMalformed) {
  std::string payload =
      Payload(protocol::EncodeBareRequest(MsgType::kEpoch)) + "x";
  Result<protocol::Request> decoded = protocol::DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(ProtocolTest, UnknownRequestTypeIsRejected) {
  std::string payload(1, static_cast<char>(99));
  Result<protocol::Request> decoded = protocol::DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, AnnotateParseErrorFormatsFileLineColumn) {
  Status parse = Status::InvalidArgument("parse error at 3:7: expected ')'");
  Status annotated = protocol::AnnotateParseError("facts.sdl", parse);
  EXPECT_EQ(annotated.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(annotated.message(), "facts.sdl:3:7: expected ')'");

  // Non-positional errors get a plain file prefix.
  Status other = Status::InvalidArgument("relation R used with arity 2");
  EXPECT_EQ(protocol::AnnotateParseError("facts.sdl", other).message(),
            "facts.sdl: relation R used with arity 2");

  // No source name / no error: unchanged.
  EXPECT_EQ(protocol::AnnotateParseError("", parse).message(),
            parse.message());
  EXPECT_TRUE(protocol::AnnotateParseError("facts.sdl", Status::OK()).ok());
}

// --- A live loopback server ---------------------------------------------------

constexpr char kReachProgram[] =
    "R($x, $y) <- E($x, $y).\n"
    "R($x, $z) <- R($x, $y), E($y, $z).\n";

/// "E(n0, n1). E(n1, n2). ..." — a chain whose reachability closure takes
/// ~`n` fixpoint rounds and derives ~n^2/2 facts: cheap to parse, slow
/// enough to be interrupted, deterministic to render.
std::string ChainEdb(size_t n, size_t start = 0) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += "E(n" + std::to_string(start + i) + ", n" +
           std::to_string(start + i + 1) + ").\n";
  }
  return out;
}

/// Universe + Database + DatabaseService + Server with matched
/// lifetimes, torn down in the right order.
struct TestServer {
  std::unique_ptr<Universe> u;
  std::unique_ptr<DatabaseService> service;
  std::unique_ptr<Server> server;

  static TestServer Start(const std::string& edb_text,
                          ServiceOptions sopts = {},
                          ServerOptions opts = {}) {
    TestServer t;
    t.u = std::make_unique<Universe>();
    Result<Instance> edb = ParseInstance(*t.u, edb_text);
    EXPECT_TRUE(edb.ok()) << edb.status().ToString();
    Result<Database> db = Database::Open(*t.u, std::move(*edb));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    t.service = std::make_unique<DatabaseService>(*t.u, std::move(*db),
                                                  std::move(sopts));
    Result<std::unique_ptr<Server>> server = Server::Start(*t.service, opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    t.server = std::move(*server);
    return t;
  }

  Result<Client> Connect() {
    return Client::Connect("127.0.0.1", server->port());
  }
};

TEST(ServerTest, FullRequestFlow) {
  TestServer t = TestServer::Start("E(a, b). E(b, c).");
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // compile: miss, then hit (the cache is keyed by program text, so a
  // second connection sending identical text also hits).
  Result<protocol::CompileReply> compiled =
      client->Compile(kReachProgram, "reach.sdl");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(compiled->cache_hit);
  EXPECT_EQ(compiled->rules, 2u);
  EXPECT_EQ(compiled->strata, 1u);
  compiled = client->Compile(kReachProgram, "reach.sdl");
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->cache_hit);
  EXPECT_EQ(t.service->NumCachedPrograms(), 1u);

  // run: rendered derived facts, pinned at epoch 0.
  Result<protocol::RunReply> run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->epoch, 0u);
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");
  EXPECT_EQ(run->stats.derived_facts, 3u);

  // The identical query at the unchanged epoch is a result-cache hit —
  // same bytes, no evaluation.
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");

  // run with projection: a distinct cache key, evaluated on first use.
  run = client->Run(kReachProgram, "R");
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered, "R(a, b).\nR(a, c).\nR(b, c).\n");
  EXPECT_EQ(t.service->NumCachedResults(), 2u);

  // append: a new epoch, visible to later runs — and a cache miss, the
  // epoch counter is the invalidation.
  Result<protocol::AppendReply> appended = client->Append("E(c, d).");
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->appended, 1u);
  EXPECT_EQ(appended->db.epoch, 1u);
  EXPECT_EQ(appended->db.segments, 2u);
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_FALSE(run->result_cached);
  EXPECT_EQ(run->rendered,
            "R(a, b).\nR(a, c).\nR(a, d).\nR(b, c).\nR(b, d).\nR(c, d).\n");
  // The append delta-refreshed the maintained view instead of re-running
  // the fixpoint: only the 3 tuples reachable through the new edge were
  // derived (a cold run would derive all 6).
  EXPECT_EQ(run->stats.derived_facts, 3u);

  // epoch / compact / stats.
  Result<protocol::DbInfo> info = client->Epoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->facts, 3u);
  Result<protocol::CompactReply> compacted = client->Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted->folded);
  EXPECT_EQ(compacted->db.segments, 1u);
  EXPECT_EQ(compacted->db.epoch, 1u);
  // Compaction keeps the epoch (same facts), so cached results stay
  // valid and correct (stats replay those of the delta refresh that
  // brought the entry to this epoch).
  run = client->Run(kReachProgram);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->stats.derived_facts, 3u);
  Result<protocol::StatsReply> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->rendered.find("E"), std::string::npos);

  // shutdown: acknowledged, then the server drains.
  EXPECT_TRUE(client->Shutdown().ok());
  t.server->Wait();
  EXPECT_GE(t.server->requests_served(), 9u);
}

TEST(ServerTest, ServerSideErrorsComeBackStructured) {
  TestServer t = TestServer::Start("E(a, b).");
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());

  // A parse error in shipped program text points at the client's file.
  Result<protocol::RunReply> run =
      client->Run("R($x <- E($x).", "", "bad.sdl");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(run.status().message().rfind("bad.sdl:1:", 0), 0u)
      << run.status().message();

  // Same for malformed appended facts.
  Result<protocol::AppendReply> appended =
      client->Append("E(a b).", "facts.sdl");
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().message().rfind("facts.sdl:1:", 0), 0u)
      << appended.status().message();

  // Unknown output relation: a clean error reply, not a dropped
  // connection — the same client keeps working.
  run = client->Run(kReachProgram, "NoSuchRel");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
  Result<protocol::DbInfo> info = client->Epoch();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(ServerTest, OversizedFrameIsRejectedWithErrorReply) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  TestServer t = TestServer::Start("E(a, b).", {}, opts);
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());

  // Declare a 1 MiB frame against the 1 KiB limit: header only, the
  // server must reject on the declared length without reading further.
  std::string header = {'\0', '\0', '\x10', '\0'};  // u32le 0x100000
  ASSERT_TRUE(protocol::WriteFrame(client->fd(), header).ok());
  Result<std::string> payload =
      protocol::ReadFrame(client->fd(), protocol::kDefaultMaxFrameBytes);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  Result<protocol::Reply> reply = protocol::DecodeReply(*payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(reply->status.message().find("oversized frame"),
            std::string::npos);
  // ... and the connection is closed behind the reply.
  Result<std::string> next =
      protocol::ReadFrame(client->fd(), protocol::kDefaultMaxFrameBytes);
  EXPECT_FALSE(next.ok());

  // The server itself is unharmed.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Epoch().ok());
}

TEST(ServerTest, TruncatedFrameDropsConnectionOnly) {
  TestServer t = TestServer::Start("E(a, b).");
  {
    Result<Client> client = t.Connect();
    ASSERT_TRUE(client.ok());
    // Declare 100 payload bytes, deliver 10, vanish.
    std::string partial = {'\x64', '\0', '\0', '\0'};
    partial += "0123456789";
    ASSERT_TRUE(protocol::WriteFrame(client->fd(), partial).ok());
    client->Close();
  }
  // The worker saw a truncated frame and dropped that connection; the
  // server keeps serving.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  Result<protocol::DbInfo> info = fresh->Epoch();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->facts, 1u);
}

TEST(ServerTest, ClientDisconnectMidRunLeavesServerHealthy) {
  TestServer t = TestServer::Start(ChainEdb(200));
  {
    Result<Client> client = t.Connect();
    ASSERT_TRUE(client.ok());
    // Fire a ~200-round run and hang up without reading the reply: the
    // worker's reply write fails (MSG_NOSIGNAL, no SIGPIPE) and the
    // connection is reaped.
    protocol::RunRequest req;
    req.program = kReachProgram;
    ASSERT_TRUE(
        protocol::WriteFrame(client->fd(), protocol::EncodeRunRequest(req))
            .ok());
    client->Close();
  }
  // The server survives and still answers — including the same query.
  Result<Client> fresh = t.Connect();
  ASSERT_TRUE(fresh.ok());
  Result<protocol::RunReply> run = fresh->Run(kReachProgram);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stats.derived_facts, 200u * 201u / 2u);
}

TEST(ServerTest, ShutdownCancelsInFlightRuns) {
  // A long chain: thousands of fixpoint rounds, far longer than the
  // shutdown below. RunOptions::cancel is polled every round, so the
  // drain interrupts the run near-instantly instead of waiting it out.
  TestServer t = TestServer::Start(ChainEdb(1500));
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok());
  protocol::RunRequest req;
  req.program = kReachProgram;
  ASSERT_TRUE(
      protocol::WriteFrame(client->fd(), protocol::EncodeRunRequest(req))
          .ok());
  // Give a worker time to pick the run up, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  t.server->Shutdown();

  // The client sees either a kCancelled error reply (run was in flight
  // when the drain started) or a closed connection (the run had not
  // started / the reply raced the close). Either way the drain already
  // finished — Shutdown() joined every thread without waiting out the
  // full fixpoint.
  Result<std::string> payload =
      protocol::ReadFrame(client->fd(), protocol::kDefaultMaxFrameBytes);
  if (payload.ok()) {
    Result<protocol::Reply> reply = protocol::DecodeReply(*payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status.code(), StatusCode::kCancelled)
        << reply->status.ToString();
  }
  EXPECT_TRUE(t.server->ShuttingDown());
}

TEST(ServerTest, QueuedConnectionsAreDroppedOnShutdown) {
  // One worker, held busy by a slow run; further connections queue and
  // must be closed (not served, not leaked) by the drain.
  ServerOptions opts;
  opts.threads = 1;
  TestServer t = TestServer::Start(ChainEdb(1200), {}, opts);
  Result<Client> busy = t.Connect();
  ASSERT_TRUE(busy.ok());
  protocol::RunRequest req;
  req.program = kReachProgram;
  ASSERT_TRUE(
      protocol::WriteFrame(busy->fd(), protocol::EncodeRunRequest(req)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<Client> queued = t.Connect();
  ASSERT_TRUE(queued.ok());
  t.server->Shutdown();
  // The queued connection was closed without a reply.
  Result<std::string> payload =
      protocol::ReadFrame(queued->fd(), protocol::kDefaultMaxFrameBytes);
  EXPECT_FALSE(payload.ok());
}

// --- Concurrency (runs under the TSan CI job's *Concurrency* filter) ---------

TEST(ServerConcurrencyTest, ClientsRaceRunsAppendsAndCompaction) {
  // Expected derived rendering per epoch, computed in-process on an
  // independent Universe.
  const std::string batch0 = "E(a, b). E(b, c).";
  const std::string batch1 = "E(c, d).";
  const std::string batch2 = "E(d, e).";
  std::vector<std::string> expected;
  {
    Universe u;
    Result<Program> p = ParseProgram(u, kReachProgram);
    ASSERT_TRUE(p.ok());
    Result<PreparedProgram> prog = Engine::CompileBorrowed(u, *p);
    ASSERT_TRUE(prog.ok());
    Instance acc;
    for (const std::string& batch : {batch0, batch1, batch2}) {
      Result<Instance> delta = ParseInstance(u, batch);
      ASSERT_TRUE(delta.ok());
      acc.UnionWith(std::move(*delta));
      Result<Database> db = Database::Open(u, acc);
      ASSERT_TRUE(db.ok());
      Result<Instance> derived = db->Snapshot().Run(*prog);
      ASSERT_TRUE(derived.ok());
      expected.push_back(derived->ToString(u));
    }
  }

  ServerOptions opts;
  opts.threads = 8;
  // Cache off: every run must actually race the engine (snapshot pins,
  // index call_onces, stats accumulator), not the result cache.
  ServiceOptions sopts;
  sopts.result_cache_entries = 0;
  TestServer t = TestServer::Start(batch0, sopts, opts);

  constexpr size_t kThreads = 8;
  constexpr size_t kRunsPerThread = 12;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] {
      Result<Client> client =
          Client::Connect("127.0.0.1", t.server->port());
      if (!client.ok()) {
        failures[i] = client.status().ToString();
        return;
      }
      for (size_t r = 0; r < kRunsPerThread; ++r) {
        Result<protocol::RunReply> run = client->Run(kReachProgram);
        if (!run.ok()) {
          failures[i] = run.status().ToString();
          return;
        }
        // Every reply must be internally consistent: the rendering of
        // exactly the epoch the run was pinned to, regardless of how
        // appends and compactions interleaved.
        if (run->epoch >= expected.size() ||
            run->rendered != expected[run->epoch]) {
          failures[i] = "epoch " + std::to_string(run->epoch) +
                        " rendered unexpectedly:\n" + run->rendered;
          return;
        }
      }
    });
  }

  // Writer thread: two appends and a compaction race the readers.
  std::thread writer([&] {
    Result<Client> client = Client::Connect("127.0.0.1", t.server->port());
    ASSERT_TRUE(client.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(client->Append(batch1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(client->Compact().ok());
    ASSERT_TRUE(client->Append(batch2).ok());
  });

  for (std::thread& c : clients) c.join();
  writer.join();
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(failures[i], "") << "client thread " << i;
  }
  Result<Client> check = t.Connect();
  ASSERT_TRUE(check.ok());
  Result<protocol::DbInfo> info = check->Epoch();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_EQ(info->facts, 4u);
}

TEST(ServerConcurrencyTest, CompileStampedeSharesOneCacheEntry) {
  ServerOptions opts;
  opts.threads = 8;
  TestServer t = TestServer::Start("E(a, b).", {}, opts);
  constexpr size_t kThreads = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Result<Client> client =
          Client::Connect("127.0.0.1", t.server->port());
      if (!client.ok()) {
        failures[i] = client.status().ToString();
        return;
      }
      Result<protocol::CompileReply> compiled =
          client->Compile(kReachProgram);
      if (!compiled.ok()) failures[i] = compiled.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(failures[i], "") << "client thread " << i;
  }
  // Races may compile redundantly, but the cache converges on one entry
  // per distinct program text.
  EXPECT_EQ(t.service->NumCachedPrograms(), 1u);
}

// --- Maintained-view cache: byte accounting, LRU eviction, counters ----------

constexpr char kProgA[] = "A($x, $y) <- E($x, $y).";
constexpr char kProgB[] = "B($x, $y) <- E($x, $y).";
constexpr char kProgC[] = "C($x, $y) <- E($x, $y).";

protocol::RunRequest ReqFor(const char* program) {
  protocol::RunRequest req;
  req.program = program;
  return req;
}

TEST(ServiceCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  // Any single entry busts the budget, so only the hottest entry (which
  // eviction never touches) survives each insert.
  sopts.cache_bytes = 1;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  CacheCounters c = service.CacheStats();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_GT(c.bytes, sopts.cache_bytes);  // the survivor is over budget

  // A second program displaces the first: its bytes, its entry, and its
  // materialized view all go.
  ASSERT_TRUE(service.Run(ReqFor(kProgB)).ok());
  c = service.CacheStats();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(service.db().views().NumViews(), 1u);

  // Re-running the evicted program is a cold materialization again.
  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 3u);
}

TEST(ServiceCacheTest, EntryCapEvictsLeastRecentlyUsed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.result_cache_entries = 2;
  sopts.cache_bytes = 0;  // unbounded: only the entry cap evicts
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  ASSERT_TRUE(service.Run(ReqFor(kProgB)).ok());
  EXPECT_EQ(service.CacheStats().entries, 2u);

  // Touch A so B becomes least recently used, then insert C: B goes.
  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  ASSERT_TRUE(service.Run(ReqFor(kProgC)).ok());
  CacheCounters c = service.CacheStats();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);

  run = service.Run(ReqFor(kProgA));  // still cached
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  run = service.Run(ReqFor(kProgB));  // was evicted: a fresh evaluation
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->result_cached);
  c = service.CacheStats();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.evictions, 2u);  // inserting B displaced another entry
}

TEST(ServiceCacheTest, AppendRefreshesViewsEagerly) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 1u);

  // The append itself delta-refreshes the stored view — before any query.
  protocol::AppendRequest append;
  append.facts = "E(c, d).";
  ASSERT_TRUE(service.Append(append).ok());
  ViewManager::Counters v = service.db().views().counters();
  EXPECT_EQ(v.cold_runs, 1u);
  EXPECT_EQ(v.delta_refreshes, 1u);

  // The next run re-renders from the refreshed view (a view-level hit,
  // no evaluation) and replays the delta refresh's stats.
  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_EQ(run->stats.derived_facts, 1u);  // only A(c, d) was new
  EXPECT_GE(service.db().views().counters().hits, 1u);

  // And the rendering is cached from here on.
  run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
}

TEST(ServiceCacheTest, RefreshOnAppendOffDefersToNextRun) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  sopts.refresh_on_append = false;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  protocol::AppendRequest append;
  append.facts = "E(b, c).";
  ASSERT_TRUE(service.Append(append).ok());
  EXPECT_EQ(service.db().views().counters().delta_refreshes, 0u);

  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_EQ(service.db().views().counters().delta_refreshes, 1u);
}

TEST(ServiceCacheTest, CountersTravelInStatsReplies) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  DatabaseService service(u, std::move(*db), ServiceOptions());

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());  // hit
  protocol::StatsReply stats = service.Stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_GT(stats.cache.bytes, 0u);
  EXPECT_EQ(stats.views.cold_runs, 1u);

  // And they survive the wire: encode → decode is lossless.
  Result<protocol::Reply> decoded = protocol::DecodeReply(
      Payload(protocol::EncodeStatsReply(stats)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stats.rendered, stats.rendered);
  ExpectCountersEqual(decoded->stats.cache, stats.cache);
  ExpectCountersEqual(decoded->stats.views, stats.views);
}

TEST(ServiceCacheTest, RetractRefreshesViewsThroughDRed) {
  Universe u;
  Result<Instance> edb = ParseInstance(u, "E(a, b). E(b, c).");
  ASSERT_TRUE(edb.ok());
  Result<Database> db = Database::Open(u, std::move(*edb));
  ASSERT_TRUE(db.ok());
  ServiceOptions sopts;
  // Admission analysis runs on the eager-refresh path too; kProgA is
  // non-generative, so the budget must not clamp its DRed refresh.
  sopts.admission = AdmissionPolicy::kBudget;
  DatabaseService service(u, std::move(*db), sopts);

  ASSERT_TRUE(service.Run(ReqFor(kProgA)).ok());
  EXPECT_EQ(service.db().views().counters().cold_runs, 1u);

  // The retract eagerly advances the stored view like an append — but
  // through the DRed path, never the append-only delta path: the cached
  // rendering at the shrink epoch must not contain the dead tuple.
  protocol::RetractRequest retract;
  retract.facts = "E(b, c).";
  Result<protocol::RetractReply> rr = service.Retract(retract);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->retracted, 1u);
  EXPECT_EQ(rr->db.epoch, 1u);
  ViewManager::Counters v = service.db().views().counters();
  EXPECT_EQ(v.cold_runs, 1u);
  EXPECT_EQ(v.delta_refreshes, 1u);
  EXPECT_EQ(v.dred_refreshes, 1u);

  Result<protocol::RunReply> run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->epoch, 1u);
  EXPECT_EQ(run->rendered, "A(a, b).\n");

  // And the post-retraction rendering is cached from here on.
  run = service.Run(ReqFor(kProgA));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->result_cached);
  EXPECT_EQ(run->rendered, "A(a, b).\n");

  // Retracting facts nobody has is a no-op end to end: no epoch bump,
  // no refresh work.
  retract.facts = "E(z, z).";
  rr = service.Retract(retract);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->retracted, 0u);
  EXPECT_EQ(rr->db.epoch, 1u);
  EXPECT_EQ(service.db().views().counters().dred_refreshes, 1u);
}

// Run replies carry the view-maintenance counters of the refresh that
// brought the served view to the reply's epoch — the same values an
// in-process ViewManager::Refresh reports for the same epochs.
TEST(ServerTest, RunRepliesCarryDeltaAndDRedCounters) {
  // A cycle plus the chord a -> c: retracting the chord over-deletes
  // R(a, c) and re-derivation rescues it around the cycle.
  const std::string edb = "E(a, b). E(b, c). E(c, a). E(a, c).";
  TestServer t = TestServer::Start(edb);
  Result<Client> client = t.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Universe u;
  Result<Instance> oracle_edb = ParseInstance(u, edb);
  ASSERT_TRUE(oracle_edb.ok());
  Result<Database> db = Database::Open(u, std::move(*oracle_edb));
  ASSERT_TRUE(db.ok());
  Result<Program> program = ParseProgram(u, kReachProgram);
  ASSERT_TRUE(program.ok());
  Result<PreparedProgram> prog = db->Compile(std::move(*program));
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  auto refresh = [&] {
    EvalStats stats;
    EXPECT_TRUE(db->views().Refresh("reach", *prog, {}, &stats).ok());
    return stats;
  };
  auto expect_same = [](const protocol::WireEvalStats& wire,
                        const EvalStats& local) {
    EXPECT_EQ(wire.delta_seed_facts, local.delta_seed_facts);
    EXPECT_EQ(wire.strata_delta_maintained, local.strata_delta_maintained);
    EXPECT_EQ(wire.strata_recomputed, local.strata_recomputed);
    EXPECT_EQ(wire.dred_decrements, local.dred_decrements);
    EXPECT_EQ(wire.dred_over_deleted, local.dred_over_deleted);
    EXPECT_EQ(wire.dred_re_derived, local.dred_re_derived);
  };

  ASSERT_TRUE(client->Run(kReachProgram).ok());
  refresh();

  ASSERT_TRUE(client->Append("E(c, d).").ok());
  ASSERT_TRUE(db->Append(*ParseInstance(u, "E(c, d).")).ok());
  Result<protocol::RunReply> grown = client->Run(kReachProgram);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(grown->epoch, 1u);
  EvalStats local = refresh();
  EXPECT_GT(grown->stats.delta_seed_facts, 0u);
  EXPECT_GT(grown->stats.strata_delta_maintained, 0u);
  expect_same(grown->stats, local);

  ASSERT_TRUE(client->Retract("E(a, c).").ok());
  ASSERT_TRUE(db->Retract(*ParseInstance(u, "E(a, c).")).ok());
  Result<protocol::RunReply> shrunk = client->Run(kReachProgram);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
  EXPECT_EQ(shrunk->epoch, 2u);
  local = refresh();
  EXPECT_GT(shrunk->stats.dred_decrements, 0u);
  EXPECT_GT(shrunk->stats.dred_over_deleted, 0u);
  EXPECT_GT(shrunk->stats.dred_re_derived, 0u);
  expect_same(shrunk->stats, local);
}

}  // namespace
}  // namespace seqdl
