#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/term/universe.h"
#include "src/term/value.h"

namespace seqdl {
namespace {

TEST(ValueTest, AtomRoundTrip) {
  Value v = Value::Atom(17);
  EXPECT_TRUE(v.is_atom());
  EXPECT_FALSE(v.is_packed());
  EXPECT_EQ(v.atom(), 17u);
}

TEST(ValueTest, PackedRoundTrip) {
  Value v = Value::Packed(23);
  EXPECT_TRUE(v.is_packed());
  EXPECT_FALSE(v.is_atom());
  EXPECT_EQ(v.packed_path(), 23u);
}

TEST(ValueTest, AtomAndPackedWithSamePayloadDiffer) {
  EXPECT_NE(Value::Atom(5), Value::Packed(5));
}

TEST(UniverseTest, AtomInterningIsIdempotent) {
  Universe u;
  AtomId a1 = u.InternAtom("hello");
  AtomId a2 = u.InternAtom("hello");
  AtomId b = u.InternAtom("world");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(u.AtomName(a1), "hello");
}

TEST(UniverseTest, EmptyPathIsIdZero) {
  Universe u;
  EXPECT_EQ(u.InternPath({}), kEmptyPath);
  EXPECT_EQ(u.PathLength(kEmptyPath), 0u);
}

TEST(UniverseTest, PathInterningGivesStructuralEquality) {
  Universe u;
  PathId p1 = u.PathOfChars("abc");
  PathId p2 = u.PathOfChars("abc");
  PathId p3 = u.PathOfChars("abd");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
}

TEST(UniverseTest, ConcatIsAssociative) {
  Universe u;
  PathId a = u.PathOfChars("ab");
  PathId b = u.PathOfChars("cd");
  PathId c = u.PathOfChars("ef");
  EXPECT_EQ(u.Concat(u.Concat(a, b), c), u.Concat(a, u.Concat(b, c)));
  EXPECT_EQ(u.Concat(a, kEmptyPath), a);
  EXPECT_EQ(u.Concat(kEmptyPath, a), a);
}

TEST(UniverseTest, SubPath) {
  Universe u;
  PathId p = u.PathOfChars("abcde");
  EXPECT_EQ(u.SubPath(p, 1, 3), u.PathOfChars("bcd"));
  EXPECT_EQ(u.SubPath(p, 0, 0), kEmptyPath);
  EXPECT_EQ(u.SubPath(p, 0, 5), p);
}

TEST(UniverseTest, PackedValuesNestAndCompare) {
  Universe u;
  PathId inner = u.PathOfChars("aba");
  Value packed = Value::Packed(inner);
  PathId outer1 = u.Append(u.PathOfChars("c"), packed);
  PathId outer2 = u.Append(u.PathOfChars("c"), Value::Packed(inner));
  EXPECT_EQ(outer1, outer2);  // hash-consing: O(1) deep equality
  EXPECT_EQ(u.FormatPath(outer1), "c·<a·b·a>");
}

TEST(UniverseTest, IsFlatPath) {
  Universe u;
  EXPECT_TRUE(u.IsFlatPath(u.PathOfChars("abc")));
  EXPECT_TRUE(u.IsFlatPath(kEmptyPath));
  PathId packed = u.Append(kEmptyPath, Value::Packed(u.PathOfChars("a")));
  EXPECT_FALSE(u.IsFlatPath(packed));
}

TEST(UniverseTest, CollectAtomsDescendsIntoPacks) {
  Universe u;
  PathId inner = u.PathOfChars("ab");
  PathId p = u.Append(u.PathOfChars("c"), Value::Packed(inner));
  std::unordered_set<AtomId> atoms;
  u.CollectAtoms(p, &atoms);
  EXPECT_EQ(atoms.size(), 3u);
  EXPECT_TRUE(atoms.count(u.InternAtom("a")));
  EXPECT_TRUE(atoms.count(u.InternAtom("b")));
  EXPECT_TRUE(atoms.count(u.InternAtom("c")));
}

TEST(UniverseTest, AllSubPathsOfAbc) {
  Universe u;
  std::vector<PathId> subs = u.AllSubPaths(u.PathOfChars("abc"));
  // eps, a, b, c, ab, bc, abc = 7 distinct subpaths.
  EXPECT_EQ(subs.size(), 7u);
}

TEST(UniverseTest, AllSubPathsDeduplicates) {
  Universe u;
  std::vector<PathId> subs = u.AllSubPaths(u.PathOfChars("aaa"));
  // eps, a, aa, aaa.
  EXPECT_EQ(subs.size(), 4u);
}

TEST(UniverseTest, FormatPathEmpty) {
  Universe u;
  EXPECT_EQ(u.FormatPath(kEmptyPath), "()");
}

TEST(UniverseTest, VariablesAreKeyedByKindAndName) {
  Universe u;
  VarId pv = u.InternVar(VarKind::kPath, "x");
  VarId av = u.InternVar(VarKind::kAtomic, "x");
  EXPECT_NE(pv, av);
  EXPECT_EQ(u.InternVar(VarKind::kPath, "x"), pv);
  EXPECT_EQ(u.VarKindOf(pv), VarKind::kPath);
  EXPECT_EQ(u.VarKindOf(av), VarKind::kAtomic);
}

TEST(UniverseTest, FreshVarsAvoidCollisions) {
  Universe u;
  u.InternVar(VarKind::kPath, "x_0");
  VarId fresh = u.FreshVar(VarKind::kPath, "x");
  EXPECT_NE(u.VarName(fresh), "x_0");
}

TEST(UniverseTest, RelArityConflictIsError) {
  Universe u;
  ASSERT_TRUE(u.InternRel("R", 1).ok());
  Result<RelId> again = u.InternRel("R", 1);
  ASSERT_TRUE(again.ok());
  Result<RelId> conflict = u.InternRel("R", 2);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
}

TEST(UniverseTest, FindRel) {
  Universe u;
  ASSERT_TRUE(u.InternRel("S", 0).ok());
  EXPECT_TRUE(u.FindRel("S").ok());
  EXPECT_EQ(u.FindRel("Nope").status().code(), StatusCode::kNotFound);
}

TEST(UniverseTest, FreshRelAvoidsNames) {
  Universe u;
  ASSERT_TRUE(u.InternRel("T_0", 2).ok());
  RelId fresh = u.FreshRel("T", 1);
  EXPECT_NE(u.RelName(fresh), "T_0");
  EXPECT_EQ(u.RelArity(fresh), 1u);
}

TEST(UniverseTest, PathOfWords) {
  Universe u;
  PathId p = u.PathOfWords("open  pay close");
  EXPECT_EQ(u.PathLength(p), 3u);
  EXPECT_EQ(u.FormatPath(p), "open·pay·close");
}

TEST(UniverseTest, SingletonPathEqualsInternPath) {
  Universe u;
  Value early = Value::Atom(u.InternAtom("early"));
  PathId abc = u.PathOfChars("abc");
  Value late = Value::Atom(u.InternAtom("late"));
  Value fresh = Value::Atom(u.FreshAtom("f"));
  for (Value v : {early, late, fresh}) {
    EXPECT_EQ(u.SingletonPath(v), u.InternPath({&v, 1}));
    EXPECT_EQ(u.SingletonPath(v), u.InternPath({&v, 1}));
  }
  // InternPath first, then the singleton slot.
  Value other = Value::Atom(u.FreshAtom("g"));
  PathId interned = u.InternPath({&other, 1});
  EXPECT_EQ(u.SingletonPath(other), interned);
  // Atoms of an already interned path, and packed values.
  Value a = u.GetPath(abc)[0];
  EXPECT_EQ(u.SingletonPath(a), u.SubPath(abc, 0, 1));
  Value packed = Value::Packed(abc);
  EXPECT_EQ(u.SingletonPath(packed), u.InternPath({&packed, 1}));
  EXPECT_EQ(u.FormatPath(u.SingletonPath(fresh)), u.AtomName(fresh.atom()));
}

TEST(UniverseTest, SingletonPathInternsExactlyOnePath) {
  Universe u;
  Value x = Value::Atom(u.InternAtom("x"));
  const size_t before = u.num_paths();
  PathId p = u.SingletonPath(x);
  EXPECT_EQ(u.num_paths(), before + 1);
  EXPECT_EQ(u.SingletonPath(x), p);
  EXPECT_EQ(u.InternPath({&x, 1}), p);
  EXPECT_EQ(u.num_paths(), before + 1);
  // The other order: an InternPath miss, then a singleton hit.
  Value y = Value::Atom(u.FreshAtom("y"));
  PathId q = u.InternPath({&y, 1});
  EXPECT_EQ(u.num_paths(), before + 2);
  EXPECT_EQ(u.SingletonPath(y), q);
  EXPECT_EQ(u.num_paths(), before + 2);
}

TEST(UniverseTest, ManyPathsRoundTripAcrossIndexGrowth) {
  Universe u;
  constexpr size_t kAtoms = 64;
  constexpr size_t kPaths = 300'000;
  std::vector<Value> atoms;
  for (size_t i = 0; i < kAtoms; ++i) {
    atoms.push_back(Value::Atom(u.InternAtom("a" + std::to_string(i))));
  }
  // Path i spells i in base kAtoms, least significant digit first, then a
  // digit-count marker, so every i gives distinct contents.
  auto path_of = [&](size_t i) {
    std::vector<Value> out;
    for (size_t n = i; n > 0; n /= kAtoms) out.push_back(atoms[n % kAtoms]);
    out.push_back(atoms[out.size()]);
    return out;
  };
  std::vector<PathId> ids;
  ids.reserve(kPaths);
  for (size_t i = 0; i < kPaths; ++i) ids.push_back(u.InternPath(path_of(i)));
  EXPECT_EQ(u.num_paths(), kPaths + 1);  // + the empty path
  for (size_t i = 0; i < kPaths; ++i) {
    std::vector<Value> want = path_of(i);
    std::span<const Value> got = u.GetPath(ids[i]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "path " << i;
    // Ids handed out before the index grew still resolve and re-intern
    // to themselves.
    ASSERT_EQ(u.InternPath(want), ids[i]) << "path " << i;
  }
  EXPECT_EQ(u.num_paths(), kPaths + 1);
}

}  // namespace
}  // namespace seqdl
