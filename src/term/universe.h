// Universe: the owning context for all interned symbols of a seqdl session —
// atomic values, paths (hash-consed), variables, and relation names. Every
// seqdl component takes a Universe& explicitly; there is no global state.
//
// Thread safety: all interning and lookup methods may be called from any
// number of threads concurrently (parallel PreparedProgram::Run / Session
// runs intern paths while evaluating). The path store is sharded: each
// shard's hash-cons index is an open-addressed table of (hash, id) slots
// guarded by the shard's mutex, and the paths themselves live once, in
// append-only block storage published with release stores, so GetPath
// never takes a lock and a lookup that hits allocates nothing. One-atom
// paths — @var keys and heads — skip the index once resolved: a lock-free
// per-atom slot remembers their id.
//
// InternPath inserts; FindPath only looks up, answering kNoPath for a path
// that is not interned. The engine's executor interns only what a run
// derives (head values and packed values) and resolves probe keys and
// negated tuples with FindPath: a path that is not interned occurs in no
// stored tuple, so such a lookup never grows the Universe. The
// (much colder) atom/variable/relation tables are guarded by one
// shared_mutex each (lookups take shared locks, interning exclusive ones)
// and hand out references into std::deque storage, which never relocates
// elements.
#ifndef SEQDL_TERM_UNIVERSE_H_
#define SEQDL_TERM_UNIVERSE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/term/value.h"

namespace seqdl {

/// Identifier of a variable (atomic @x or path $x).
using VarId = uint32_t;

/// Identifier of a relation name.
using RelId = uint32_t;

/// The two kinds of variables of Sequence Datalog (paper §2.2): atomic
/// variables range over atomic values, path variables over paths.
enum class VarKind : uint8_t { kAtomic, kPath };

/// Owning symbol context. Interns atoms, paths, variables and relation
/// names, and generates fresh names for program transformations. Safe for
/// concurrent use from multiple threads (see file comment).
class Universe {
 public:
  Universe();
  ~Universe();

  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  // --- Atoms -------------------------------------------------------------

  /// Interns an atomic value by name; idempotent.
  AtomId InternAtom(std::string_view name);
  /// The printed name of an atom (stable reference; deque storage).
  const std::string& AtomName(AtomId id) const;
  /// A fresh atom whose name starts with `hint` and collides with nothing
  /// interned so far.
  AtomId FreshAtom(std::string_view hint);
  size_t num_atoms() const;

  // --- Paths (hash-consed) ----------------------------------------------

  /// Interns the path consisting of `values`; returns its id. The empty
  /// span maps to kEmptyPath. Thread-safe; equal contents always intern to
  /// the same id regardless of which thread got there first.
  PathId InternPath(std::span<const Value> values);
  /// The id of the path consisting of `values` if it is interned, else
  /// kNoPath; never inserts (see the file comment).
  PathId FindPath(std::span<const Value> values) const;
  /// The values of an interned path. Lock-free: resolves through the
  /// shard's published block storage; the returned span stays valid for
  /// the Universe's lifetime (interned paths are immutable).
  std::span<const Value> GetPath(PathId id) const;
  size_t PathLength(PathId id) const { return GetPath(id).size(); }
  size_t num_paths() const;

  /// Concatenation p1 · p2.
  PathId Concat(PathId p1, PathId p2);
  /// p · v.
  PathId Append(PathId p, Value v);
  /// The contiguous subpath [start, start+len).
  PathId SubPath(PathId p, size_t start, size_t len);
  /// A one-value path.
  PathId SingletonPath(Value v) { return InternPath({&v, 1}); }

  /// True iff the path contains no packed value at any nesting depth.
  bool IsFlatPath(PathId p) const;
  bool IsFlatValue(Value v) const;

  /// Inserts every atom occurring in `p` (at any depth) into `out`.
  void CollectAtoms(PathId p, std::unordered_set<AtomId>* out) const;

  /// All contiguous subpaths of p, including the empty path and p itself.
  std::vector<PathId> AllSubPaths(PathId p);

  // --- Formatting ---------------------------------------------------------

  /// Formats a value: atom name, or "<p>" for packed values.
  std::string FormatValue(Value v) const;
  /// Formats a path with interpunct separators; "()" for the empty path.
  std::string FormatPath(PathId p) const;

  // --- Variables ----------------------------------------------------------

  /// Interns a variable by kind + name; idempotent per (kind, name).
  VarId InternVar(VarKind kind, std::string_view name);
  VarKind VarKindOf(VarId id) const;
  const std::string& VarName(VarId id) const;
  /// Fresh variable of the given kind; name derived from `hint`.
  VarId FreshVar(VarKind kind, std::string_view hint);
  size_t num_vars() const;

  // --- Relation names -----------------------------------------------------

  /// Interns a relation name with the given arity. Re-interning with the
  /// same arity returns the existing id; a different arity is an error.
  Result<RelId> InternRel(std::string_view name, uint32_t arity);
  /// Looks up a relation by name.
  Result<RelId> FindRel(std::string_view name) const;
  const std::string& RelName(RelId id) const;
  uint32_t RelArity(RelId id) const;
  /// Fresh relation name with the given arity, derived from `hint`.
  RelId FreshRel(std::string_view hint, uint32_t arity);
  size_t num_rels() const;

  // --- Convenience constructors (mostly for tests and examples) -----------

  /// Path of single-character atoms, e.g. "aab" -> a·a·b.
  PathId PathOfChars(std::string_view chars);
  /// Path of whitespace-separated atoms, e.g. "open pay close".
  PathId PathOfWords(std::string_view words);

 private:
  // --- Sharded hash-consed path store -------------------------------------
  //
  // A PathId encodes (shard, per-shard index): the low kPathShardBits bits
  // select the shard (chosen by contents hash, so equal paths always land
  // in the same shard), the remaining bits are the append-only index into
  // that shard's storage. Storage is a sequence of geometrically growing
  // blocks (block b holds BlockCapacity(b) entries); blocks are never
  // moved or freed until destruction, and block pointers are published
  // with release stores, so GetPath resolves ids with two loads and no
  // lock. kEmptyPath (id 0 = shard 0, index 0) is pre-registered at
  // construction. The per-atom singleton slots use the same block layout.
  static constexpr uint32_t kPathShardBits = 4;
  static constexpr uint32_t kPathShards = 1u << kPathShardBits;
  static constexpr uint32_t kFirstBlockBits = 10;
  /// Enough blocks that kMaxPathsPerShard is the binding limit: blocks
  /// 0..17 hold 1024 * (2^18 - 1) > 2^27 entries.
  static constexpr uint32_t kMaxBlocks = 18;
  /// PathIds must fit Value's 31-bit payload: per-shard index < 2^27.
  static constexpr uint32_t kMaxPathsPerShard = 1u << 27;
  /// Atoms with a singleton slot: everything kMaxBlocks blocks hold.
  static constexpr uint32_t kMaxAtoms = ((1u << kMaxBlocks) - 1)
                                        << kFirstBlockBits;
  static constexpr uint32_t kIndexInitialSlots = 64;

  /// One hash-cons index slot: a path's contents hash (the bits above the
  /// shard selector) and its PathId + 1; id_plus_one == 0 marks a free
  /// slot.
  struct IndexSlot {
    uint32_t hash = 0;
    uint32_t id_plus_one = 0;
  };
  struct PathShard {
    std::mutex mu;
    /// Open-addressed (linear probing) index over the stored paths;
    /// power-of-two size, kept at most half full. Guarded by mu.
    std::vector<IndexSlot> index;
    /// Number of paths stored; guarded by mu.
    uint32_t size = 0;
    /// size, republished for lock-free num_paths().
    std::atomic<uint32_t> published_size{0};
    /// blocks[b] holds BlockCapacity(b) entries (release-published).
    std::array<std::atomic<std::vector<Value>*>, kMaxBlocks> blocks{};

    ~PathShard();
  };

  static uint32_t BlockOf(uint32_t local);
  static uint32_t OffsetOf(uint32_t local, uint32_t block);
  static uint32_t BlockCapacity(uint32_t block);
  /// Doubles `s`'s index and reinserts every slot; the caller holds s.mu.
  static void GrowIndex(PathShard& s);
  /// The id of `values` (slot hash `hash`) in `s`, or kNoPath with
  /// `*slot` at the free slot it would take; the caller holds s.mu.
  static PathId LookupLocked(const PathShard& s, uint32_t hash,
                             std::span<const Value> values, size_t* slot);
  /// InternPath through the shard's hash-cons index.
  PathId InternIndexed(std::span<const Value> values);
  /// The singleton slot of a one-atom path, else nullptr.
  std::atomic<PathId>* SingletonSlot(std::span<const Value> values) const;

  // Unlocked variants; the caller holds the corresponding mutex.
  AtomId InternAtomLocked(std::string_view name);
  VarId InternVarLocked(VarKind kind, std::string_view name);
  Result<RelId> InternRelLocked(std::string_view name, uint32_t arity);

  std::string UniqueName(std::string_view hint,
                         const std::unordered_map<std::string, uint32_t>& used,
                         uint32_t* counter);

  std::unique_ptr<PathShard[]> path_shards_;

  mutable std::shared_mutex atom_mu_;
  std::deque<std::string> atom_names_;
  /// Per-AtomId singleton path, kEmptyPath until InternPath first interns
  /// it. Blocks are allocated under atom_mu_ as atoms are interned and
  /// release-published; slots are read and filled without a lock.
  std::array<std::atomic<std::atomic<PathId>*>, kMaxBlocks> singleton_blocks_{};
  std::unordered_map<std::string, AtomId> atom_ids_;
  uint32_t fresh_atom_counter_ = 0;

  mutable std::shared_mutex var_mu_;
  std::deque<std::string> var_names_;
  std::deque<VarKind> var_kinds_;
  std::unordered_map<std::string, VarId> var_ids_;  // key: sigil + name
  uint32_t fresh_var_counter_ = 0;

  mutable std::shared_mutex rel_mu_;
  std::deque<std::string> rel_names_;
  std::deque<uint32_t> rel_arities_;
  std::unordered_map<std::string, RelId> rel_ids_;
  uint32_t fresh_rel_counter_ = 0;
};

}  // namespace seqdl

#endif  // SEQDL_TERM_UNIVERSE_H_
