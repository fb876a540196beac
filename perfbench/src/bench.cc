#include "perfbench/src/bench.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "perfbench/src/gen.h"
#include "perfbench/src/host.h"
#include "perfbench/src/trace.h"
#include "src/analysis/admission.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/lint.h"
#include "src/analysis/locality.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/frontend.h"
#include "src/engine/database.h"
#include "src/engine/instance.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/server/service.h"
#include "src/storage/storage.h"
#include "src/syntax/parser.h"
#include "src/view/view.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace protocol = seqdl::protocol;
using Clock = std::chrono::steady_clock;
using seqdl::Client;
using seqdl::Result;
using seqdl::Status;

// Server configuration shared by every workload. The cache budget is
// sized so hot_reads' pool fits in it and the cold streams overflow it.
constexpr size_t kCacheBytes = 8u << 20;
constexpr size_t kAutoCompactSegments = 16;
constexpr uint64_t kCheckpointWalBytes = 1u << 20;
constexpr size_t kShards = 2;
constexpr double kZipfS = 1.0;
// Cold and cluster set-ups warm the EDB's lazy indexes with one program
// per family; those programs are not part of the measured stream.
constexpr size_t kWarmQueries = 3;
// ingest_serve's writer sends on a fixed schedule of this many writes a
// second (and never before the previous acknowledgement): flat out, the
// writer and the readers feed back on each other through the views and
// run-to-run figures swing by half.
constexpr double kWritesPerSecond = 10;
// In the replay, every fifth ingest_serve operation is a write.
constexpr uint64_t kReplayWriteEvery = 5;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

enum class Kind { kHot, kCold, kIngest, kCluster };

// Writer-script operations each set-up loads the EDB with over the wire
// before the cache is warmed; every fifth is a retraction.
constexpr size_t kSetupWrites = 50;
constexpr size_t kSetupRetractEvery = 5;
// ingest_serve's measured writer alternates appends and retractions, so
// the live EDB keeps its size while the segment stack churns.
constexpr size_t kWriterRetractEvery = 2;
// Reader connections of every workload.
constexpr size_t kReaders = 2;
// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetupReps = 11;

struct Config {
  Kind kind = Kind::kHot;
  LogShape shape;
  /// hot_reads' program pool, or ingest_serve's maintained views.
  size_t pool = 0;
  bool writer = false;
  /// One reply in this many is compared against the oracle.
  uint64_t sample_every = 16;
  /// rss_mb is VmRSS once the measured phase has completed this many
  /// operations, under half of a 10-second run even on a slow host: the
  /// cold streams grow memory with every request, so a fixed operation
  /// count keeps the figure from tracking host speed.
  uint64_t rss_at_ops = 384;
};

std::optional<Config> ConfigFor(const std::string& name) {
  Config c;
  if (name == "hot_reads") {
    c.kind = Kind::kHot;
    c.pool = 40;
    c.sample_every = 64;
    c.rss_at_ops = 200'000;
  } else if (name == "cold_analytics") {
    c.kind = Kind::kCold;
    c.sample_every = 4;
  } else if (name == "ingest_serve") {
    c.kind = Kind::kIngest;
    c.pool = 6;
    c.writer = true;
    c.sample_every = 1024;
    c.rss_at_ops = 200'000;
  } else if (name == "cluster_scatter") {
    c.kind = Kind::kCluster;
    c.sample_every = 4;
  } else {
    return std::nullopt;
  }
  return c;
}

/// The seeded inputs of one run: program pool or stream, and the event
/// log batches (memoized; the writer and the oracle both read them).
class Inputs {
 public:
  Inputs(const Config& c, uint64_t seed) : c_(c), seed_(seed) {
    if (c.kind == Kind::kHot) pool_ = QueryPool(seed, c.shape, "h", c.pool);
    if (c.kind == Kind::kIngest) pool_ = QueryPool(seed, c.shape, "v", c.pool);
    warm_ = QueryPool(seed, c.shape, "w", kWarmQueries);
  }

  bool streamed() const {
    return c_.kind == Kind::kCold || c_.kind == Kind::kCluster;
  }
  /// Query `i`: a pool entry, or the i-th program of the cold stream.
  Query Get(uint64_t i) const {
    return streamed() ? StreamQuery(seed_, c_.shape, i) : pool_[i];
  }
  const std::vector<Query>& pool() const { return pool_; }
  /// What the set-up runs before measuring: the pool, or one program per
  /// family for the streamed workloads.
  const std::vector<Query>& warm() const {
    return pool_.empty() ? warm_ : pool_;
  }
  std::string Batch(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = batches_.find(id);
    if (it == batches_.end()) {
      it = batches_.emplace(id, BatchText(seed_, c_.shape, id)).first;
    }
    return it->second;
  }

 private:
  const Config& c_;
  uint64_t seed_;
  std::vector<Query> pool_;
  std::vector<Query> warm_;
  std::mutex mu_;
  std::map<uint64_t, std::string> batches_;
};

/// One seqdl server over a durable database.
struct Node {
  std::unique_ptr<seqdl::Universe> u;
  std::unique_ptr<seqdl::DatabaseService> service;
  std::unique_ptr<seqdl::ServiceRequestHandler> handler;
  std::unique_ptr<SpanHandler> spans;
  std::unique_ptr<seqdl::Server> server;
};

Result<std::unique_ptr<Node>> StartNode(const std::string& dir, size_t threads,
                                        Tracer* tracer) {
  auto n = std::make_unique<Node>();
  n->u = std::make_unique<seqdl::Universe>();
  seqdl::Database::OpenOptions o;
  o.data_dir = dir;
  o.sync_mode = seqdl::storage::SyncMode::kAlways;
  o.auto_compact_segments = kAutoCompactSegments;
  o.checkpoint_wal_bytes = kCheckpointWalBytes;
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db, seqdl::Database::Open(*n->u, o));
  seqdl::ServiceOptions sopts;
  sopts.cache_bytes = kCacheBytes;
  n->service = std::make_unique<seqdl::DatabaseService>(*n->u, std::move(db),
                                                        std::move(sopts));
  n->handler = std::make_unique<seqdl::ServiceRequestHandler>(*n->service);
  seqdl::RequestHandler* h = n->handler.get();
  if (tracer != nullptr) {
    n->spans = std::make_unique<SpanHandler>(*n->handler, *tracer,
                                             "server.handle");
    h = n->spans.get();
  }
  seqdl::ServerOptions opts;
  opts.threads = threads;
  SEQDL_ASSIGN_OR_RETURN(n->server, seqdl::Server::Start(*h, opts));
  return n;
}

struct WriteRecord {
  bool retract = false;
  uint64_t batch = 0;
  uint64_t epoch = 0;
};

/// The servers of one set-up, the writes they acknowledged, and what the
/// set-up cost.
struct Deployment {
  std::string dir;
  std::vector<std::unique_ptr<Node>> nodes;  ///< the node, or the shards
  std::unique_ptr<seqdl::Universe> coord_u;
  std::unique_ptr<seqdl::Coordinator> coord;
  std::unique_ptr<seqdl::CoordinatorHandler> coord_handler;
  std::unique_ptr<SpanHandler> coord_spans;
  std::unique_ptr<seqdl::Server> front;  ///< coordinator front end
  uint16_t port = 0;                     ///< where clients connect
  std::optional<WriterScript> script;
  std::vector<WriteRecord> writes;  ///< every acknowledged write, in order
  double setup_s = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    // Front end first: its workers call into the coordinator, which
    // holds connections to the shards.
    front.reset();
    coord_spans.reset();
    coord_handler.reset();
    coord.reset();
    nodes.clear();
    coord_u.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  uint64_t NumPaths() const {
    uint64_t n = coord_u ? coord_u->num_paths() : 0;
    for (const auto& node : nodes) n += node->u->num_paths();
    return n;
  }
  uint64_t NumAtoms() const {
    uint64_t n = coord_u ? coord_u->num_atoms() : 0;
    for (const auto& node : nodes) n += node->u->num_atoms();
    return n;
  }
  seqdl::CacheCounters Cache() const {
    seqdl::CacheCounters sum;
    for (const auto& node : nodes) {
      seqdl::CacheCounters c = node->service->CacheStats();
      sum.hits += c.hits;
      sum.misses += c.misses;
      sum.evictions += c.evictions;
      sum.entries += c.entries;
      sum.bytes += c.bytes;
    }
    return sum;
  }
  uint64_t ProgramsCached() const {
    uint64_t n = 0;
    for (const auto& node : nodes) n += node->service->NumCachedPrograms();
    return n;
  }
  seqdl::ViewManager::Counters Views() const {
    seqdl::ViewManager::Counters sum;
    for (const auto& node : nodes) {
      seqdl::ViewManager::Counters c = node->service->db().views().counters();
      sum.hits += c.hits;
      sum.cold_runs += c.cold_runs;
      sum.delta_refreshes += c.delta_refreshes;
      sum.dred_refreshes += c.dred_refreshes;
      sum.strata_recomputed += c.strata_recomputed;
    }
    return sum;
  }
  /// ViewSnapshot::ApproxBytes summed over the views held for `keys`.
  uint64_t ViewBytes(const std::vector<std::string>& keys) const {
    uint64_t n = 0;
    for (const auto& node : nodes) {
      for (const std::string& k : keys) {
        if (auto v = node->service->db().views().Lookup(k)) {
          n += v->ApproxBytes();
        }
      }
    }
    return n;
  }
};

struct Acked {
  bool ok = false;
  double ms = 0;
  protocol::DbInfo db;
  std::string error;
};

Acked SendWrite(Client& c, const WriteOp& op, const std::string& text) {
  Acked a;
  auto t0 = Clock::now();
  if (op.retract) {
    Result<protocol::RetractReply> r = c.Retract(text);
    a.ms = MsSince(t0);
    a.ok = r.ok();
    if (r.ok()) a.db = r->db;
    else a.error = r.status().ToString();
  } else {
    Result<protocol::AppendReply> r = c.Append(text);
    a.ms = MsSince(t0);
    a.ok = r.ok();
    if (r.ok()) a.db = r->db;
    else a.error = r.status().ToString();
  }
  return a;
}

/// Starts the servers, ingests the first kSetupWrites operations of the
/// writer script over the wire, compacts, and warms the cache. The
/// servers get `connections` worker threads, one per client connection
/// of the phase that follows.
Result<std::unique_ptr<Deployment>> SetUp(const Config& c, Inputs& in,
                                          uint64_t seed,
                                          const std::string& dir,
                                          size_t connections, Tracer* tracer) {
  auto t0 = Clock::now();
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  if (c.kind == Kind::kCluster) {
    std::vector<seqdl::ShardAddress> addrs;
    for (size_t i = 0; i < kShards; ++i) {
      // The coordinator holds one connection per shard; the traced
      // replay adds one direct connection per shard.
      SEQDL_ASSIGN_OR_RETURN(
          std::unique_ptr<Node> node,
          StartNode(dir + "/shard" + std::to_string(i), tracer ? 2 : 1,
                    nullptr));
      addrs.push_back({"127.0.0.1", node->server->port()});
      d->nodes.push_back(std::move(node));
    }
    d->coord_u = std::make_unique<seqdl::Universe>();
    d->coord = std::make_unique<seqdl::Coordinator>(*d->coord_u,
                                                    std::move(addrs));
    d->coord_handler = std::make_unique<seqdl::CoordinatorHandler>(
        *d->coord, /*forward_shutdown=*/false);
    seqdl::RequestHandler* h = d->coord_handler.get();
    if (tracer != nullptr) {
      d->coord_spans = std::make_unique<SpanHandler>(*d->coord_handler,
                                                     *tracer,
                                                     "cluster.coordinator");
      h = d->coord_spans.get();
    }
    seqdl::ServerOptions opts;
    opts.threads = connections;
    SEQDL_ASSIGN_OR_RETURN(d->front, seqdl::Server::Start(*h, opts));
    d->port = d->front->port();
  } else {
    SEQDL_ASSIGN_OR_RETURN(std::unique_ptr<Node> node,
                           StartNode(dir + "/node", connections, tracer));
    d->port = node->server->port();
    d->nodes.push_back(std::move(node));
  }
  {
    SEQDL_ASSIGN_OR_RETURN(Client client,
                           Client::Connect("127.0.0.1", d->port));
    d->script.emplace(seed);
    for (size_t i = 0; i < kSetupWrites; ++i) {
      WriteOp op = d->script->Next(kSetupRetractEvery);
      Acked a = SendWrite(client, op, in.Batch(op.batch));
      if (!a.ok) return Status::Internal("set-up write failed: " + a.error);
      d->writes.push_back({op.retract, op.batch, a.db.epoch});
    }
    Result<protocol::CompactReply> compacted = client.Compact();
    if (!compacted.ok()) return compacted.status();
    for (const Query& q : in.warm()) {
      Result<protocol::RunReply> r = client.Run(q.text, q.output);
      if (!r.ok()) return Status::Internal("warm-up failed: " + r.status().ToString());
    }
  }
  d->setup_s = MsSince(t0) / 1e3;
  return d;
}

/// Bytes of the live facts as instance text (the space_amp base).
double LiveFactBytes(Inputs& in, const Deployment& d) {
  double n = 0;
  for (uint64_t b : d.script->live()) n += static_cast<double>(in.Batch(b).size());
  return n;
}

/// A reply kept for the answer check, as a hash so the harness's own
/// memory stays out of rss_mb.
struct Check {
  uint64_t query = 0;
  uint64_t epoch = 0;
  size_t hash = 0;
  size_t bytes = 0;

  Check(uint64_t q, uint64_t e, const std::string& rendered)
      : query(q),
        epoch(e),
        hash(std::hash<std::string>{}(rendered)),
        bytes(rendered.size()) {}
  bool Matches(const std::string& want) const {
    return want.size() == bytes && std::hash<std::string>{}(want) == hash;
  }
};

/// What a measured phase observed.
struct Measured {
  /// Run latencies by the one-second window they completed in (the last
  /// entry holds runs that completed after the final window closed).
  std::vector<std::vector<double>> run_ms;
  std::vector<double> append_ms, retract_ms;
  struct Window {
    double steal_s = 0;  ///< CPU time the hypervisor took from the host VM
    double runs_s = 0;   ///< completed runs per second
    double cpu_ms = 0;   ///< process CPU ms per completed operation
  };
  std::vector<Window> windows;
  /// (on-disk + WAL bytes) / live fact text bytes after each write.
  std::vector<double> space_amp;
  double rss_mb = 0;
  std::vector<Check> checks;
  std::vector<WriteRecord> writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Merge(Measured&& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    if (run_ms.size() < o.run_ms.size()) run_ms.resize(o.run_ms.size());
    for (size_t w = 0; w < o.run_ms.size(); ++w) cat(run_ms[w], o.run_ms[w]);
    cat(space_amp, o.space_amp);
    cat(append_ms, o.append_ms);
    cat(retract_ms, o.retract_ms);
    for (Check& ch : o.checks) checks.push_back(std::move(ch));
    writes.insert(writes.end(), o.writes.begin(), o.writes.end());
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
  }
  void Fail(const Status& st) {
    ++failed;
    if (first_error.empty()) first_error = st.ToString();
  }
  size_t Runs() const {
    size_t n = 0;
    for (const auto& w : run_ms) n += w.size();
    return n;
  }
  /// The windows the end-to-end figures read: every window after the
  /// first (start-up) whose hypervisor steal is at most the median
  /// window's. On a shared host steal comes in bursts that halve a
  /// window's throughput.
  std::vector<size_t> Quiet() const {
    const size_t first = windows.size() > 1 ? 1 : 0;
    std::vector<double> steal;
    for (size_t i = first; i < windows.size(); ++i) {
      steal.push_back(windows[i].steal_s);
    }
    const double limit = Percentile(steal, 50);
    std::vector<size_t> quiet;
    for (size_t i = first; i < windows.size(); ++i) {
      if (windows[i].steal_s <= limit) quiet.push_back(i);
    }
    return quiet;
  }
};

/// Picks the queries of one reader connection: Zipf over the pool
/// (hot_reads), uniform over the views (ingest_serve), or the next
/// program of the shared cold stream.
class QueryPicker {
 public:
  QueryPicker(const Config& c, const Inputs& in, uint64_t seed, size_t conn,
              std::atomic<uint64_t>* stream)
      : c_(c),
        in_(in),
        seed_(seed),
        rng_(Mix(seed, 0x100 + conn)),
        sampler_(Mix(seed, 0x200 + conn)),
        zipf_(std::max<size_t>(in.pool().size(), 1), kZipfS),
        stream_(stream) {}

  /// Next query index; *sample is set when the reply should be checked.
  uint64_t Next(bool* sample) {
    if (in_.streamed()) {
      uint64_t k = stream_->fetch_add(1);
      *sample = Mix(seed_, k) % c_.sample_every == 0;
      return k;
    }
    uint64_t i = c_.kind == Kind::kHot ? zipf_(rng_)
                                       : rng_() % in_.pool().size();
    *sample = sampler_() % c_.sample_every == 0;
    return i;
  }

 private:
  const Config& c_;
  const Inputs& in_;
  uint64_t seed_;
  std::mt19937_64 rng_;
  std::mt19937_64 sampler_;
  Zipf zipf_;
  std::atomic<uint64_t>* stream_;
};

/// The closed-loop phase: `readers` connections send `run`s, and the
/// writer (ingest_serve) continues the writer script, until `seconds`
/// pass or `max_ops` operations were sent. Throughput and CPU per
/// operation are taken per one-second window, so a burst of host noise
/// moves one window instead of the whole figure.
Measured RunConcurrent(const Config& c, Inputs& in, Deployment& d,
                       uint64_t seed, double seconds, size_t max_ops) {
  Measured m;
  std::vector<Client> clients;
  const size_t conns = kReaders + (c.writer ? 1 : 0);
  for (size_t i = 0; i < conns; ++i) {
    Result<Client> cl = Client::Connect("127.0.0.1", d.port);
    if (!cl.ok()) {
      m.Fail(cl.status());
      return m;
    }
    clients.push_back(std::move(*cl));
  }
  std::mutex mu;
  std::atomic<uint64_t> admitted{0}, stream{0}, runs_done{0}, ops_done{0};
  std::atomic<size_t> running{conns};
  std::atomic<double> rss_at{0};
  auto admit = [&] {
    return max_ops == 0 || admitted.fetch_add(1) < max_ops;
  };
  auto done = [&](bool run) {
    if (run) runs_done.fetch_add(1);
    if (ops_done.fetch_add(1) + 1 == c.rss_at_ops) rss_at.store(RssMb());
  };
  // Hand the earlier set-ups' freed heap back to the system, so rss_mb
  // reads this deployment's memory rather than the allocator's leftovers.
  malloc_trim(0);
  const double cpu0 = CpuSeconds(), steal0 = StealSeconds();
  const auto t0 = Clock::now();
  auto at = [&t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto deadline = at(seconds);
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Measured local;
      QueryPicker picker(c, in, seed, r, &stream);
      while (Clock::now() < deadline && admit()) {
        bool sample = false;
        const uint64_t qi = picker.Next(&sample);
        const Query q = in.Get(qi);
        ++local.attempted;
        auto t = Clock::now();
        Result<protocol::RunReply> reply = clients[r].Run(q.text, q.output);
        const double ms = MsSince(t);
        if (!reply.ok()) {
          local.Fail(reply.status());
          break;
        }
        const size_t w = std::min(
            windows, static_cast<size_t>(MsSince(t0) / 1e3 / window_s));
        if (local.run_ms.size() <= w) local.run_ms.resize(w + 1);
        local.run_ms[w].push_back(ms);
        done(true);
        if (sample) {
          local.checks.emplace_back(qi, reply->epoch, reply->rendered);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      m.Merge(std::move(local));
      running.fetch_sub(1);
    });
  }
  if (c.writer) {
    double live_bytes = LiveFactBytes(in, d);
    threads.emplace_back([&, live_bytes]() mutable {
      Measured local;
      Client& cl = clients[kReaders];
      for (double due = 0; Clock::now() < deadline && admit();
           due += 1 / kWritesPerSecond) {
        std::this_thread::sleep_until(at(due));
        const WriteOp op = d.script->Next(kWriterRetractEvery);
        const std::string text = in.Batch(op.batch);
        ++local.attempted;
        Acked a = SendWrite(cl, op, text);
        if (!a.ok) {
          local.Fail(Status::Internal(a.error));
          break;
        }
        done(false);
        (op.retract ? local.retract_ms : local.append_ms).push_back(a.ms);
        local.writes.push_back({op.retract, op.batch, a.db.epoch});
        live_bytes += op.retract ? -static_cast<double>(text.size())
                                 : static_cast<double>(text.size());
        local.space_amp.push_back(
            static_cast<double>(a.db.on_disk_bytes + a.db.wal_bytes) /
            std::max(1.0, live_bytes));
      }
      std::lock_guard<std::mutex> lock(mu);
      m.Merge(std::move(local));
      running.fetch_sub(1);
    });
  }
  // The window sampler: this thread only wakes at window boundaries.
  uint64_t prev_runs = 0, prev_ops = 0;
  double prev_cpu = cpu0, prev_steal = steal0, prev_s = 0;
  for (size_t w = 1; w <= windows && running.load() > 0; ++w) {
    while (Clock::now() < at(window_s * w) && running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (running.load() == 0) break;
    const uint64_t runs = runs_done.load(), ops = ops_done.load();
    const double cpu = CpuSeconds(), steal = StealSeconds();
    const double now_s = MsSince(t0) / 1e3;
    Measured::Window win;
    win.steal_s = steal - prev_steal;
    win.runs_s = static_cast<double>(runs - prev_runs) / (now_s - prev_s);
    if (ops > prev_ops) {
      win.cpu_ms = (cpu - prev_cpu) * 1e3 / static_cast<double>(ops - prev_ops);
    }
    m.windows.push_back(win);
    prev_runs = runs;
    prev_ops = ops;
    prev_cpu = cpu;
    prev_steal = steal;
    prev_s = now_s;
  }
  for (std::thread& t : threads) t.join();
  m.rss_mb = rss_at.load() > 0 ? rss_at.load() : RssMb();
  if (m.windows.empty()) {
    // Shorter than one window (an operation cap ended the phase early):
    // the whole phase is the window.
    Measured::Window win;
    win.steal_s = StealSeconds() - steal0;
    win.runs_s = static_cast<double>(runs_done.load()) / (MsSince(t0) / 1e3);
    if (ops_done.load() > 0) {
      win.cpu_ms = (CpuSeconds() - cpu0) * 1e3 / ops_done.load();
    }
    m.windows.push_back(win);
    std::vector<double> all;
    for (const auto& w : m.run_ms) all.insert(all.end(), w.begin(), w.end());
    m.run_ms = {std::move(all)};
  }
  return m;
}

/// The answer oracle: an in-memory Database on its own Universe that
/// replays the acknowledged writes and keeps a Session per epoch, so a
/// reply can be compared with Session::Run of the same program at the
/// reply's epoch, rendered the way the server renders.
class Oracle {
 public:
  explicit Oracle(Inputs& in) : in_(in) {
    Result<seqdl::Database> db = seqdl::Database::Open(u_, seqdl::Instance());
    if (db.ok()) {
      db_.emplace(std::move(*db));
      at_.emplace(0, db_->Snapshot());
    }
  }

  Status Apply(const WriteRecord& w) {
    if (!db_) return Status::Internal("oracle database did not open");
    SEQDL_ASSIGN_OR_RETURN(seqdl::Instance facts,
                           seqdl::ParseInstance(u_, in_.Batch(w.batch)));
    Result<uint64_t> epoch = w.retract ? db_->Retract(std::move(facts))
                                       : db_->Append(std::move(facts));
    if (!epoch.ok()) return epoch.status();
    // Keyed by the epoch the server acknowledged, which replies carry.
    latest_ = w.epoch;
    at_.insert_or_assign(w.epoch, db_->Snapshot());
    return Status::OK();
  }

  /// The expected rendering of `q` at `epoch` (the latest state when
  /// `epoch` is empty).
  Result<std::string> Answer(const Query& q, std::optional<uint64_t> epoch) {
    const uint64_t e = epoch.value_or(latest_);
    auto memo = memo_.find({q.text, e});
    if (memo != memo_.end()) return memo->second;
    auto at = at_.find(e);
    if (at == at_.end()) {
      return Status::NotFound("no oracle state at epoch " + std::to_string(e));
    }
    std::shared_ptr<seqdl::PreparedProgram>& prog = progs_[q.text];
    if (prog == nullptr) {
      SEQDL_ASSIGN_OR_RETURN(seqdl::Program p, seqdl::ParseProgram(u_, q.text));
      SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram pp,
                             db_->Compile(std::move(p)));
      prog = std::make_shared<seqdl::PreparedProgram>(std::move(pp));
    }
    SEQDL_ASSIGN_OR_RETURN(seqdl::Instance derived, at->second.Run(*prog));
    SEQDL_ASSIGN_OR_RETURN(seqdl::RelId rel, u_.FindRel(q.output));
    std::string out = derived.Project({rel}).ToString(u_);
    memo_.emplace(std::make_pair(q.text, e), out);
    return out;
  }

 private:
  Inputs& in_;
  seqdl::Universe u_;
  std::optional<seqdl::Database> db_;
  std::map<uint64_t, seqdl::Session> at_;
  uint64_t latest_ = 0;
  std::map<std::string, std::shared_ptr<seqdl::PreparedProgram>> progs_;
  std::map<std::pair<std::string, uint64_t>, std::string> memo_;
};

/// Replays `writes` into a fresh oracle and compares every check with
/// it. Cluster replies are compared with the single-node answer of the
/// final state (coordinator epochs are not single-node epochs).
void Verify(const Config& c, Inputs& in, const std::vector<WriteRecord>& writes,
            const std::vector<Check>& checks, Outcome* out) {
  Oracle oracle(in);
  for (const WriteRecord& w : writes) {
    Status st = oracle.Apply(w);
    if (!st.ok()) {
      std::fprintf(stderr, "oracle replay failed: %s\n", st.ToString().c_str());
      out->mismatches += checks.size();
      return;
    }
  }
  for (const Check& ch : checks) {
    ++out->checked;
    std::optional<uint64_t> epoch;
    if (c.kind != Kind::kCluster) epoch = ch.epoch;
    Result<std::string> want = oracle.Answer(in.Get(ch.query), epoch);
    if (!want.ok() || !ch.Matches(*want)) {
      if (out->mismatches == 0) {
        std::fprintf(stderr, "answer check failed: query %llu at epoch %llu: %s\n",
                     static_cast<unsigned long long>(ch.query),
                     static_cast<unsigned long long>(ch.epoch),
                     want.ok() ? "rendering differs from the oracle"
                               : want.status().ToString().c_str());
      }
      ++out->mismatches;
    }
  }
}

/// A single-node copy of the served database on its own Universe. The
/// server's Handle is opaque from outside, so the traced replay times
/// each layer's public calls here, on the same inputs in the same order.
struct Shadow {
  seqdl::Universe u;
  std::optional<seqdl::Database> db;
  /// Side storage engine with the servers' sync policy (ingest_serve).
  std::unique_ptr<seqdl::storage::StorageEngine> wal;
  std::vector<std::string> view_keys;
  std::vector<std::shared_ptr<seqdl::PreparedProgram>> views;
  struct Counts {
    uint64_t wal_bytes = 0;
    uint64_t writes = 0;
    uint64_t dred_over_deleted = 0;
    uint64_t dred_re_derived = 0;
  } counts;
};

Result<std::unique_ptr<Shadow>> BuildShadow(const Config& c, Inputs& in,
                                            const Deployment& d) {
  auto sh = std::make_unique<Shadow>();
  SEQDL_ASSIGN_OR_RETURN(seqdl::Database db,
                         seqdl::Database::Open(sh->u, seqdl::Instance()));
  sh->db.emplace(std::move(db));
  for (const WriteRecord& w : d.writes) {
    SEQDL_ASSIGN_OR_RETURN(seqdl::Instance facts,
                           seqdl::ParseInstance(sh->u, in.Batch(w.batch)));
    Result<uint64_t> e = w.retract ? sh->db->Retract(std::move(facts))
                                   : sh->db->Append(std::move(facts));
    if (!e.ok()) return e.status();
  }
  Result<bool> compacted = sh->db->Compact();
  if (!compacted.ok()) return compacted.status();
  if (c.kind != Kind::kIngest) return sh;
  for (const Query& q : in.pool()) {
    SEQDL_ASSIGN_OR_RETURN(seqdl::Program p, seqdl::ParseProgram(sh->u, q.text));
    SEQDL_ASSIGN_OR_RETURN(seqdl::PreparedProgram pp,
                           sh->db->Compile(std::move(p)));
    sh->views.push_back(std::make_shared<seqdl::PreparedProgram>(std::move(pp)));
    sh->view_keys.push_back(q.text);
    Result<std::shared_ptr<const seqdl::ViewSnapshot>> v =
        sh->db->views().Refresh(q.text, *sh->views.back());
    if (!v.ok()) return v.status();
  }
  seqdl::storage::StorageOptions so;
  so.dir = d.dir + "/side_wal";
  so.sync_mode = seqdl::storage::SyncMode::kAlways;
  SEQDL_ASSIGN_OR_RETURN(sh->wal,
                         seqdl::storage::StorageEngine::Open(sh->u, so));
  SEQDL_RETURN_IF_ERROR(sh->wal->Checkpoint(sh->u, 0, 0, {}, false));
  return sh;
}

/// The layers of one write, replayed on the shadow: server-side decode,
/// fact parse, commit, WAL record, the refresh of every maintained view,
/// and the reply encode. With op < 0 the shadow only keeps up.
void ShadowWrite(Shadow& sh, Tracer& tr, int32_t parent, int64_t op,
                 const WriteOp& w, const std::string& text,
                 const std::string& frame, const protocol::Reply& reply) {
  {
    Scope s(tr, "server.codec", parent, op);
    (void)protocol::DecodeRequest(std::string_view(frame).substr(4));
  }
  Result<seqdl::Instance> facts = seqdl::Instance();
  {
    Scope s(tr, "syntax.parse_facts", parent, op);
    facts = seqdl::ParseInstance(sh.u, text);
  }
  if (!facts.ok()) return;
  seqdl::Instance logged = *facts;
  {
    Scope s(tr, "engine.commit", parent, op);
    (void)(w.retract ? sh.db->Retract(std::move(*facts))
                     : sh.db->Append(std::move(*facts)));
  }
  const uint64_t before = sh.wal->info().wal_bytes;
  {
    Scope s(tr, "storage.wal_commit", parent, op);
    (void)sh.wal->LogCommit(w.retract ? seqdl::storage::WalRecordType::kRetract
                                      : seqdl::storage::WalRecordType::kAppend,
                            sh.u, logged);
  }
  sh.counts.wal_bytes += sh.wal->info().wal_bytes - before;
  ++sh.counts.writes;
  for (size_t i = 0; i < sh.views.size(); ++i) {
    seqdl::EvalStats st;
    {
      Scope s(tr, "view.refresh", parent, op);
      (void)sh.db->views().Refresh(sh.view_keys[i], *sh.views[i], {}, &st);
    }
    sh.counts.dred_over_deleted += st.dred_over_deleted;
    sh.counts.dred_re_derived += st.dred_re_derived;
  }
  Scope s(tr, "server.codec", parent, op);
  (void)(w.retract ? protocol::EncodeRetractReply(reply.retract)
                   : protocol::EncodeAppendReply(reply.append));
}

/// The layers of one `run` that missed the server cache, replayed on the
/// shadow in the order DatabaseService::Run takes them.
void ShadowRun(Shadow& sh, Tracer& tr, int32_t parent, int64_t op,
               const Query& q, const std::string& frame,
               const protocol::Reply& reply, bool keep_view) {
  {
    Scope s(tr, "server.codec", parent, op);
    (void)protocol::DecodeRequest(std::string_view(frame).substr(4));
  }
  Result<seqdl::Program> p = seqdl::Program();
  {
    Scope s(tr, "syntax.parse_program", parent, op);
    p = seqdl::ParseProgram(sh.u, q.text);
  }
  if (!p.ok()) return;
  {
    Scope s(tr, "analysis.admission", parent, op);
    (void)seqdl::AnalyzeAdmission(sh.u, *p);
  }
  {
    Scope s(tr, "analysis.lint", parent, op);
    seqdl::StoreStats stats = sh.db->Stats();
    seqdl::LintOptions lo;
    lo.stats = &stats;
    seqdl::DiagnosticList diags;
    seqdl::LintProgram(sh.u, *p, lo, &diags);
  }
  Result<seqdl::PreparedProgram> prog =
      seqdl::Status::Internal("not compiled");
  {
    Scope s(tr, "engine.plan", parent, op);
    prog = sh.db->Compile(std::move(*p));
  }
  if (!prog.ok()) return;
  Result<std::shared_ptr<const seqdl::ViewSnapshot>> view =
      seqdl::Status::Internal("not run");
  {
    Scope s(tr, "engine.execute", parent, op);
    view = sh.db->views().Refresh(q.text, *prog);
  }
  if (view.ok()) {
    Scope s(tr, "server.render", parent, op);
    Result<seqdl::RelId> rel = sh.u.FindRel(q.output);
    if (rel.ok()) (void)(*view)->idb().Project({*rel}).ToString(sh.u);
  }
  {
    Scope s(tr, "server.codec", parent, op);
    (void)protocol::EncodeRunReply(reply.run);
  }
  if (!keep_view) sh.db->views().Invalidate(q.text);
}

/// Counters the traced replay accumulates next to its spans.
struct Replay {
  std::vector<double> untraced_ms;  ///< plain client round trips
  std::vector<double> traced_ms;    ///< root spans
  /// Reads only: plain round trips, and traced reads' client codec plus
  /// server-side handle (their difference is the transport).
  std::vector<double> read_untraced_ms, read_handled_ms;
  std::vector<Check> checks;
  std::vector<WriteRecord> writes;
  std::vector<std::string> keys;  ///< program texts the replay ran
  uint64_t ops = 0, traced = 0, reads = 0, writes_n = 0, misses = 0;
  uint64_t failed = 0;
  double reply_bytes = 0;
  double segments = 0;  ///< summed over reads
  uint64_t compactions = 0;
  protocol::WireEvalStats engine;  ///< summed over cache misses
  uint64_t paths = 0, atoms = 0;
  uint64_t transparent = 0, residual = 0;
  double coord_transparent_ms = 0, coord_residual_ms = 0, shard_max_ms = 0;
  uint64_t sequence_hash = 1469598103934665603ull;

  void Hash(char kind, const std::string& text) {
    auto mix = [this](unsigned char b) {
      sequence_hash = (sequence_hash ^ b) * 1099511628211ull;
    };
    mix(static_cast<unsigned char>(kind));
    for (char ch : text) mix(static_cast<unsigned char>(ch));
  }
};

/// The traced run's replay: one operation at a time in a fixed order
/// drawn from the seed, alternating plain client calls (odd ops are
/// traced) so the tracing overhead is measured against the same mix.
/// Traced ops go over a raw connection: encode, frame round trip through
/// the span-recording handler, decode; then the shadow replays the
/// layers of what the server did.
Replay RunReplay(const Config& c, Inputs& in, Deployment& d, Shadow& sh,
                 Tracer& tr, uint64_t seed, double seconds, size_t max_ops) {
  Replay rp;
  Result<Client> typed = Client::Connect("127.0.0.1", d.port);
  Result<Client> raw = Client::Connect("127.0.0.1", d.port);
  std::vector<Client> direct;  // cluster: one connection per shard
  if (c.kind == Kind::kCluster) {
    for (const auto& node : d.nodes) {
      Result<Client> cl = Client::Connect("127.0.0.1", node->server->port());
      if (!cl.ok()) {
        ++rp.failed;
        return rp;
      }
      direct.push_back(std::move(*cl));
    }
  }
  if (!typed.ok() || !raw.ok()) {
    ++rp.failed;
    return rp;
  }
  Result<protocol::DbInfo> info0 = typed->Epoch();
  uint64_t prev_segments = info0.ok() ? info0->segments : 0;
  std::atomic<uint64_t> stream{0};
  QueryPicker pickers[2] = {QueryPicker(c, in, seed, 0, &stream),
                            QueryPicker(c, in, seed, 1, &stream)};
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int64_t i = 0; Clock::now() < deadline &&
                      (max_ops == 0 || static_cast<size_t>(i) < max_ops);
       ++i) {
    ++rp.ops;
    const bool traced = i % 2 == 1;
    const bool write =
        c.writer && static_cast<uint64_t>(i) % kReplayWriteEvery == 0;
    const int64_t op = traced ? i : -1;
    const uint64_t paths0 = d.NumPaths(), atoms0 = d.NumAtoms();
    std::string frame;
    Result<protocol::Reply> reply = Status::Internal("not sent");
    WriteOp w;
    Query q;
    uint64_t qi = 0;
    bool sample = false;
    if (write) {
      w = d.script->Next(kWriterRetractEvery);
      rp.Hash(w.retract ? 'X' : 'A', in.Batch(w.batch));
      protocol::AppendRequest req{in.Batch(w.batch), ""};
      frame = w.retract ? protocol::EncodeRetractRequest({req.facts, ""})
                        : protocol::EncodeAppendRequest(req);
    } else {
      qi = pickers[i % 2].Next(&sample);
      q = in.Get(qi);
      rp.Hash('R', q.text);
      rp.keys.push_back(q.text);
    }
    if (traced) {
      const int32_t root = tr.Begin("op", -1, op);
      int32_t codec[2] = {-1, -1};
      {
        Scope s(tr, "server.codec", root, op);
        codec[0] = s.id();
        if (!write) {
          protocol::RunRequest req;
          req.program = q.text;
          req.output_rel = q.output;
          frame = protocol::EncodeRunRequest(req);
        }
      }
      tr.SetCurrent(op, root);
      Status st = protocol::WriteFrame(raw->fd(), frame);
      Result<std::string> payload =
          st.ok() ? protocol::ReadFrame(raw->fd(), protocol::kDefaultMaxFrameBytes)
                  : Result<std::string>(st);
      tr.SetCurrent(-1, -1);
      {
        Scope s(tr, "server.codec", root, op);
        codec[1] = s.id();
        if (payload.ok()) {
          reply = protocol::DecodeReply(*payload);
          rp.reply_bytes += static_cast<double>(payload->size());
        } else {
          reply = payload.status();
        }
      }
      tr.End(root);
      rp.traced_ms.push_back(tr.DurationMs(root));
      if (!write) {
        rp.read_handled_ms.push_back(tr.DurationMs(codec[0]) +
                                     tr.DurationMs(codec[1]) +
                                     tr.DurationMs(tr.last_server_span()));
      }
      ++rp.traced;
      if (reply.ok() && !reply->status.ok()) reply = reply->status;
    } else {
      auto t0 = Clock::now();
      protocol::Reply r;
      Status st;
      if (write) {
        const std::string text = in.Batch(w.batch);
        if (w.retract) {
          Result<protocol::RetractReply> x = typed->Retract(text);
          if (x.ok()) r.retract = *x;
          st = x.status();
        } else {
          Result<protocol::AppendReply> x = typed->Append(text);
          if (x.ok()) r.append = *x;
          st = x.status();
        }
      } else {
        Result<protocol::RunReply> x = typed->Run(q.text, q.output);
        if (x.ok()) r.run = std::move(*x);
        st = x.status();
      }
      rp.untraced_ms.push_back(MsSince(t0));
      if (!write) rp.read_untraced_ms.push_back(rp.untraced_ms.back());
      if (st.ok()) reply = std::move(r);
      else reply = st;
    }
    if (!reply.ok()) {
      ++rp.failed;
      std::fprintf(stderr, "replay op %lld failed: %s\n",
                   static_cast<long long>(i), reply.status().ToString().c_str());
      break;
    }
    rp.paths += d.NumPaths() - paths0;
    rp.atoms += d.NumAtoms() - atoms0;
    const int32_t parent = tr.last_server_span();
    if (write) {
      ++rp.writes_n;
      const protocol::DbInfo& db = w.retract ? reply->retract.db : reply->append.db;
      rp.writes.push_back({w.retract, w.batch, db.epoch});
      if (db.segments <= prev_segments) ++rp.compactions;
      prev_segments = db.segments;
      if (frame.empty()) {
        frame = w.retract ? protocol::EncodeRetractRequest({in.Batch(w.batch), ""})
                          : protocol::EncodeAppendRequest({in.Batch(w.batch), ""});
      }
      ShadowWrite(sh, tr, parent, op, w, in.Batch(w.batch), frame, *reply);
      continue;
    }
    ++rp.reads;
    const protocol::RunReply& run = reply->run;
    rp.segments += static_cast<double>(run.segments);
    if (sample) rp.checks.emplace_back(qi, run.epoch, run.rendered);
    if (!run.result_cached) {
      ++rp.misses;
      rp.engine.derived_facts += run.stats.derived_facts;
      rp.engine.rounds += run.stats.rounds;
      rp.engine.rule_firings += run.stats.rule_firings;
      rp.engine.index_probes += run.stats.index_probes;
      rp.engine.full_scans += run.stats.full_scans;
    }
    if (!traced) continue;
    if (c.kind != Kind::kCluster) {
      if (!run.result_cached) {
        ShadowRun(sh, tr, parent, op, q, frame, *reply, !in.streamed());
      }
      continue;
    }
    // Cluster: classify as the coordinator does, then time the shard
    // round trips of a transparent program directly (a trailing newline
    // gives the shards a text their caches have not seen), or the local
    // finish of a residual one.
    const double coord_ms = tr.DurationMs(parent);
    Result<seqdl::Program> p = seqdl::Program();
    {
      Scope s(tr, "syntax.parse_program", parent, op);
      p = seqdl::ParseProgram(sh.u, q.text);
    }
    if (!p.ok()) continue;
    seqdl::LocalityReport loc;
    {
      Scope s(tr, "analysis.locality", parent, op);
      loc = seqdl::AnalyzeLocality(sh.u, *p);
    }
    if (loc.cls == seqdl::LocalityClass::kTransparent) {
      ++rp.transparent;
      rp.coord_transparent_ms += coord_ms;
      std::vector<double> shard_ms(direct.size(), 0);
      std::vector<std::thread> threads;
      for (size_t s = 0; s < direct.size(); ++s) {
        threads.emplace_back([&, s] {
          const int32_t id = tr.Begin("cluster.shard", parent, op);
          (void)direct[s].Run(q.text + "\n", q.output);
          tr.End(id);
          shard_ms[s] = tr.DurationMs(id);
        });
      }
      for (std::thread& t : threads) t.join();
      rp.shard_max_ms += *std::max_element(shard_ms.begin(), shard_ms.end());
    } else {
      ++rp.residual;
      rp.coord_residual_ms += coord_ms;
      Result<seqdl::PreparedProgram> prog = Status::Internal("not compiled");
      {
        Scope s(tr, "engine.plan", parent, op);
        prog = sh.db->Compile(std::move(*p));
      }
      if (prog.ok()) {
        Scope s(tr, "engine.execute", parent, op);
        (void)sh.db->Snapshot().Run(*prog);
      }
    }
  }
  return rp;
}

std::string SideJson(double spin_before, double spin_after,
                     const Outcome& out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"calibration_s\": {\"before\": %.4f, \"after\": %.4f}, "
                "\"error_rate\": %.6f, \"checked\": %llu",
                spin_before, spin_after,
                out.attempted ? static_cast<double>(out.failed) / out.attempted
                              : 0.0,
                static_cast<unsigned long long>(out.checked));
  return "\"host\": {\"nproc\": " + std::to_string(NumCpus()) +
         ", \"cpu\": " + JsonString(CpuModel()) + "}, " + buf;
}


/// Sample counts, each window's steal and whether the figures read it,
/// and the writer's acknowledgement latencies (not end-to-end metrics:
/// the read-only workloads have no writes to report).
std::string PhaseJson(const Measured& m) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                ", \"samples\": {\"run\": %zu, \"append\": %zu, "
                "\"retract\": %zu}, \"writes_ms\": {\"append_p50\": %.4f, "
                "\"append_p90\": %.4f, \"retract_p50\": %.4f}",
                m.Runs(), m.append_ms.size(), m.retract_ms.size(),
                Percentile(m.append_ms, 50), Percentile(m.append_ms, 90),
                Percentile(m.retract_ms, 50));
  std::string out = buf;
  const std::vector<size_t> quiet = m.Quiet();
  out += ", \"windows\": [";
  for (size_t w = 0; w < m.windows.size(); ++w) {
    const std::vector<double> none;
    const std::vector<double>& ms = w < m.run_ms.size() ? m.run_ms[w] : none;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"steal_s\": %.3f, \"runs_s\": %.1f, \"cpu_ms\": %.5f, "
                  "\"p50\": %.5f, \"p90\": %.5f, \"quiet\": %s}",
                  w ? ", " : "", m.windows[w].steal_s, m.windows[w].runs_s,
                  m.windows[w].cpu_ms, Percentile(ms, 50), Percentile(ms, 90),
                  std::count(quiet.begin(), quiet.end(), w) ? "true" : "false");
    out += buf;
  }
  return out + "]";
}

Outcome Untraced(const Config& c, Inputs& in, const BenchOptions& o) {
  Outcome out;
  const double spin_before = SpinSeconds();
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  const size_t conns = kReaders + (c.writer ? 1 : 0);
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    Result<std::unique_ptr<Deployment>> made =
        SetUp(c, in, o.seed, o.work_dir + "/" + o.workload, conns, nullptr);
    if (!made.ok()) {
      out.started = false;
      out.error = made.status().ToString();
      return out;
    }
    d = std::move(*made);
    setups.push_back(d->setup_s);
  }
  Measured m = RunConcurrent(c, in, *d, o.seed, o.seconds, o.max_ops);
  out.attempted = m.attempted;
  if (!m.first_error.empty()) {
    std::fprintf(stderr, "operation failed: %s\n", m.first_error.c_str());
  }
  // With a writer, the median over its acknowledgements (the WAL and
  // the stack saw-tooth between checkpoints); otherwise the loaded state.
  double space_amp = Percentile(m.space_amp, 50);
  if (m.space_amp.empty()) {
    if (Result<Client> cl = Client::Connect("127.0.0.1", d->port); cl.ok()) {
      if (Result<protocol::DbInfo> info = cl->Epoch(); info.ok()) {
        space_amp = static_cast<double>(info->on_disk_bytes + info->wal_bytes) /
                    std::max(1.0, LiveFactBytes(in, *d));
      }
    }
  }
  std::vector<WriteRecord> writes = d->writes;
  writes.insert(writes.end(), m.writes.begin(), m.writes.end());
  d.reset();
  Verify(c, in, writes, m.checks, &out);
  out.failed = m.failed + out.mismatches;
  std::vector<double> quiet_ms, quiet_runs_s, quiet_cpu_ms;
  for (size_t w : m.Quiet()) {
    if (w < m.run_ms.size()) {
      quiet_ms.insert(quiet_ms.end(), m.run_ms[w].begin(), m.run_ms[w].end());
    }
    quiet_runs_s.push_back(m.windows[w].runs_s);
    if (m.windows[w].cpu_ms > 0) quiet_cpu_ms.push_back(m.windows[w].cpu_ms);
  }
  out.metrics = {
      {"setup_s", Percentile(setups, 50), "s"},
      {"run_p50_ms", Percentile(quiet_ms, 50), "ms"},
      {"cpu_ms_per_op", Percentile(quiet_cpu_ms, 50), "ms"},
      {"rss_mb", m.rss_mb, "MB"},
      {"space_amp", space_amp, "ratio"},
  };
  // Printed beside the result, not end-to-end metrics: on a shared host
  // the tail and the throughput of hot_reads' microsecond round trips move
  // with the neighbours by more than any bound the metrics may have.
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                ", \"run_p90_ms\": %.6f, \"run_ops_s\": %.1f",
                Percentile(quiet_ms, 90), Percentile(quiet_runs_s, 50));
  out.side = SideJson(spin_before, SpinSeconds(), out) + tail + PhaseJson(m);
  return out;
}

Outcome Traced(const Config& c, Inputs& in, const BenchOptions& o) {
  Outcome out;
  const double spin_before = SpinSeconds();
  const size_t conns = kReaders + (c.writer ? 1 : 0);
  const std::string dir = o.work_dir + "/" + o.workload;

  // Phase 1: the concurrent workload, untraced, for the cache counters
  // that only concurrency produces (stale misses race the writer).
  Result<std::unique_ptr<Deployment>> d1 =
      SetUp(c, in, o.seed, dir, conns, nullptr);
  if (!d1.ok()) {
    out.started = false;
    out.error = d1.status().ToString();
    return out;
  }
  const seqdl::CacheCounters cache0 = (*d1)->Cache();
  Measured m = RunConcurrent(c, in, **d1, o.seed, o.seconds / 2, o.max_ops);
  const seqdl::CacheCounters cache1 = (*d1)->Cache();
  const double programs_cached = static_cast<double>((*d1)->ProgramsCached());
  std::vector<WriteRecord> writes1 = (*d1)->writes;
  writes1.insert(writes1.end(), m.writes.begin(), m.writes.end());
  d1->reset();
  Verify(c, in, writes1, m.checks, &out);

  // Phase 2: the serialized, traced replay on a fresh deployment.
  Tracer tr;
  Result<std::unique_ptr<Deployment>> d2 = SetUp(c, in, o.seed, dir, 2, &tr);
  if (!d2.ok()) {
    out.started = false;
    out.error = d2.status().ToString();
    return out;
  }
  Deployment& d = **d2;
  Result<std::unique_ptr<Shadow>> sh = BuildShadow(c, in, d);
  if (!sh.ok()) {
    out.started = false;
    out.error = "shadow: " + sh.status().ToString();
    return out;
  }
  const seqdl::ViewManager::Counters views0 = d.Views();
  uint64_t generation0 = 0;
  if (Result<Client> cl = Client::Connect("127.0.0.1", d.port); cl.ok()) {
    if (Result<protocol::DbInfo> info = cl->Epoch(); info.ok()) {
      generation0 = info->manifest_generation;
    }
  }
  Replay rp = RunReplay(c, in, d, **sh, tr, o.seed, o.seconds / 2, o.max_ops);
  const seqdl::ViewManager::Counters views1 = d.Views();
  protocol::DbInfo info_end;
  if (Result<Client> cl = Client::Connect("127.0.0.1", d.port); cl.ok()) {
    if (Result<protocol::DbInfo> info = cl->Epoch(); info.ok()) info_end = *info;
  }
  std::vector<std::string> keys = rp.keys;
  if (c.kind == Kind::kCluster) {
    for (const std::string& k : rp.keys) keys.push_back(k + "\n");
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const double view_bytes = static_cast<double>(d.ViewBytes(keys));
  std::vector<WriteRecord> writes2 = d.writes;
  writes2.insert(writes2.end(), rp.writes.begin(), rp.writes.end());
  const Shadow::Counts shadow = (*sh)->counts;
  sh->reset();
  d2->reset();
  Verify(c, in, writes2, rp.checks, &out);

  const std::vector<Span> spans = tr.spans();
  if (!o.trace_path.empty()) {
    tr.WriteJson(o.trace_path, "\"workload\": " + JsonString(o.workload) +
                                   ", \"seed\": " + std::to_string(o.seed));
  }
  const SpanSummary sum = Summarize(spans);
  const double traced = std::max<double>(1, static_cast<double>(rp.traced));
  auto per_call = [&](const char* name) {
    auto it = sum.by_name.find(name);
    return it == sum.by_name.end() ? 0.0 : it->second.total_ms / it->second.count;
  };
  auto per_op = [&](const char* name) {
    auto it = sum.by_name.find(name);
    return it == sum.by_name.end() ? 0.0 : it->second.total_ms / traced;
  };
  auto self = [&](const char* layer) {
    auto it = sum.by_layer.find(layer);
    return it == sum.by_layer.end() ? 0.0 : it->second.self_ms / traced;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double ops = static_cast<double>(rp.ops);
  const double writes = static_cast<double>(rp.writes_n);
  const double misses = static_cast<double>(rp.misses);
  const double runs1 = static_cast<double>(m.Runs());
  const double hits1 = static_cast<double>(cache1.hits - cache0.hits);
  const double misses1 = static_cast<double>(cache1.misses - cache0.misses);
  const double coord_t = ratio(rp.coord_transparent_ms, rp.transparent);
  const double shard_max = ratio(rp.shard_max_ms, rp.transparent);
  const double op_ms = Percentile(rp.traced_ms, 50);
  const double untraced_ms = Percentile(rp.untraced_ms, 50);
  auto view_delta = [&](uint64_t a, uint64_t b) {
    return ratio(static_cast<double>(b - a), ops);
  };
  out.metrics = {
      {"ingest.append_p50_ms", Percentile(m.append_ms, 50), "ms"},
      {"ingest.retract_p50_ms", Percentile(m.retract_ms, 50), "ms"},
      {"server.handle_ms", per_call("server.handle"), "ms"},
      {"server.codec_ms", per_op("server.codec"), "ms"},
      {"server.transport_ms",
       Percentile(rp.read_untraced_ms, 50) - Percentile(rp.read_handled_ms, 50),
       "ms"},
      {"server.render_ms", per_call("server.render"), "ms"},
      {"server.reply_bytes", rp.reply_bytes / traced, "bytes"},
      {"server.cache_hit_ratio", ratio(hits1, hits1 + misses1), "ratio"},
      {"server.stale_misses", ratio(misses1, runs1), "1/op"},
      {"server.cache_evictions",
       ratio(static_cast<double>(cache1.evictions - cache0.evictions), runs1),
       "1/op"},
      {"server.programs_cached", programs_cached, "count"},
      {"server.self_ms", self("server"), "ms"},
      {"syntax.parse_program_ms", per_call("syntax.parse_program"), "ms"},
      {"syntax.parse_facts_ms", per_call("syntax.parse_facts"), "ms"},
      {"syntax.self_ms", self("syntax"), "ms"},
      {"analysis.admission_ms", per_call("analysis.admission"), "ms"},
      {"analysis.lint_ms", per_call("analysis.lint"), "ms"},
      {"analysis.locality_ms", per_call("analysis.locality"), "ms"},
      {"analysis.self_ms", self("analysis"), "ms"},
      {"engine.plan_ms", per_call("engine.plan"), "ms"},
      {"engine.execute_ms", per_call("engine.execute"), "ms"},
      {"engine.commit_ms", per_call("engine.commit"), "ms"},
      {"engine.self_ms", self("engine"), "ms"},
      {"engine.rule_firings", ratio(rp.engine.rule_firings, misses), "1/op"},
      {"engine.derived_facts", ratio(rp.engine.derived_facts, misses), "1/op"},
      {"engine.rounds", ratio(rp.engine.rounds, misses), "1/op"},
      {"engine.index_probes", ratio(rp.engine.index_probes, misses), "1/op"},
      {"engine.full_scans", ratio(rp.engine.full_scans, misses), "1/op"},
      {"engine.segments", ratio(rp.segments, rp.reads), "count"},
      {"engine.compactions", ratio(rp.compactions, writes), "1/write"},
      {"view.refresh_ms", per_call("view.refresh"), "ms"},
      {"view.self_ms", self("view"), "ms"},
      {"view.delta_refreshes", view_delta(views0.delta_refreshes, views1.delta_refreshes), "1/op"},
      {"view.dred_refreshes", view_delta(views0.dred_refreshes, views1.dred_refreshes), "1/op"},
      {"view.strata_recomputed", view_delta(views0.strata_recomputed, views1.strata_recomputed), "1/op"},
      {"view.cold_runs", view_delta(views0.cold_runs, views1.cold_runs), "1/op"},
      {"view.dred_over_deleted", ratio(shadow.dred_over_deleted, writes), "1/write"},
      {"view.dred_re_derived", ratio(shadow.dred_re_derived, writes), "1/write"},
      {"view.bytes", view_bytes, "bytes"},
      {"storage.wal_commit_ms", per_call("storage.wal_commit"), "ms"},
      {"storage.wal_bytes_per_write", ratio(shadow.wal_bytes, shadow.writes), "bytes"},
      {"storage.on_disk_bytes", static_cast<double>(info_end.on_disk_bytes), "bytes"},
      {"storage.checkpoints",
       ratio(static_cast<double>(info_end.manifest_generation - generation0), writes),
       "1/write"},
      {"storage.self_ms", self("storage"), "ms"},
      {"term.paths_interned", ratio(rp.paths, ops), "1/op"},
      {"term.atoms_interned", ratio(rp.atoms, ops), "1/op"},
      {"cluster.coordinator_transparent_ms", coord_t, "ms"},
      {"cluster.coordinator_residual_ms", ratio(rp.coord_residual_ms, rp.residual), "ms"},
      {"cluster.shard_max_ms", shard_max, "ms"},
      {"cluster.merge_ms", rp.transparent > 0 ? coord_t - shard_max : 0.0, "ms"},
      {"cluster.transparent_share",
       ratio(rp.transparent, rp.transparent + rp.residual), "ratio"},
      {"cluster.self_ms", self("cluster"), "ms"},
      {"trace.op_ms", op_ms, "ms"},
      {"trace.untraced_op_ms", untraced_ms, "ms"},
      {"trace.overhead_share", untraced_ms > 0 ? op_ms / untraced_ms - 1 : 0.0, "ratio"},
      {"trace.unattributed_ms", sum.unattributed_ms / traced, "ms"},
      {"trace.spans", static_cast<double>(spans.size()) / traced, "1/op"},
      {"host.spin_before_s", spin_before, "s"},
  };
  const double spin_after = SpinSeconds();
  out.metrics.push_back({"host.spin_after_s", spin_after, "s"});
  out.counts = {
      {"replay.ops", ops},
      {"replay.misses", misses},
      {"engine.rule_firings", static_cast<double>(rp.engine.rule_firings)},
      {"engine.derived_facts", static_cast<double>(rp.engine.derived_facts)},
      {"engine.compactions", static_cast<double>(rp.compactions)},
      {"term.paths_interned", static_cast<double>(rp.paths)},
      {"term.atoms_interned", static_cast<double>(rp.atoms)},
      {"storage.on_disk_bytes", static_cast<double>(info_end.on_disk_bytes)},
      {"view.delta_refreshes", static_cast<double>(views1.delta_refreshes - views0.delta_refreshes)},
      {"view.dred_refreshes", static_cast<double>(views1.dred_refreshes - views0.dred_refreshes)},
      {"view.strata_recomputed", static_cast<double>(views1.strata_recomputed - views0.strata_recomputed)},
      {"view.cold_runs", static_cast<double>(views1.cold_runs - views0.cold_runs)},
      {"view.dred_over_deleted", static_cast<double>(shadow.dred_over_deleted)},
      {"view.dred_re_derived", static_cast<double>(shadow.dred_re_derived)},
  };
  out.sequence_hash = rp.sequence_hash;
  out.attempted = m.attempted + rp.ops;
  out.failed = m.failed + rp.failed + out.mismatches;
  out.side = SideJson(spin_before, spin_after, out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "hot_reads", "cold_analytics", "ingest_serve", "cluster_scatter"};
  return kNames;
}

Outcome RunWorkload(const BenchOptions& o) {
  std::optional<Config> c = ConfigFor(o.workload);
  if (!c) {
    Outcome out;
    out.started = false;
    out.error = "unknown workload " + o.workload;
    return out;
  }
  Inputs in(*c, o.seed);
  return o.trace ? Traced(*c, in, o) : Untraced(*c, in, o);
}

}  // namespace perfbench
