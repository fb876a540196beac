#include <gtest/gtest.h>

#include "src/analysis/features.h"
#include "src/analysis/safety.h"
#include "src/engine/eval.h"
#include "src/engine/instance.h"
#include "src/queries/queries.h"
#include "src/term/universe.h"

namespace seqdl {
namespace {

Instance MustInstance(Universe& u, const std::string& text) {
  Result<Instance> i = ParseInstance(u, text);
  EXPECT_TRUE(i.ok()) << i.status().ToString();
  return std::move(i).value();
}

TEST(CorpusTest, AllEntriesParseAndValidate) {
  for (const PaperQuery& q : PaperCorpus()) {
    Universe u;
    Result<ParsedQuery> parsed = ParsePaperQuery(u, q);
    ASSERT_TRUE(parsed.ok()) << q.id << ": " << parsed.status().ToString();
    EXPECT_TRUE(ValidateProgram(u, parsed->program).ok()) << q.id;
  }
}

TEST(CorpusTest, LookupByIdWorks) {
  EXPECT_TRUE(FindPaperQuery("ex21_nfa").ok());
  EXPECT_TRUE(FindPaperQuery("squaring").ok());
  EXPECT_EQ(FindPaperQuery("does_not_exist").status().code(),
            StatusCode::kNotFound);
}

TEST(CorpusTest, DeclaredFeaturesMatchFragmentClaims) {
  struct Expected {
    const char* id;
    const char* features;
  };
  // Feature sets claimed by the paper for its examples.
  std::vector<Expected> cases = {
      {"ex31_only_as_e", "E"},
      {"ex31_only_as_air", "AIR"},
      {"ex44_only_as_noeq", "AI"},
      {"ex46_marked", "AEINR"},
      {"reach_ab", "IR"},
      {"squaring", "AIR"},
      {"ex23_nonterminating", "R"},
      {"doubling", "AIR"},
      {"undoubling", "AIR"},
  };
  for (const Expected& c : cases) {
    Universe u;
    Result<ParsedQuery> parsed = ParsePaperQuery(u, c.id);
    ASSERT_TRUE(parsed.ok()) << c.id;
    Result<FeatureSet> want = FeatureSet::FromLetters(c.features);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(DetectFeatures(parsed->program), *want)
        << c.id << " got " << DetectFeatures(parsed->program).ToString();
  }
}

TEST(CorpusTest, TerminatingEntriesTerminateOnSamples) {
  // Every corpus query marked terminating must evaluate within budget on a
  // small generic instance mentioning its EDB relations.
  for (const PaperQuery& q : PaperCorpus()) {
    if (!q.terminating) continue;
    Universe u;
    Result<ParsedQuery> parsed = ParsePaperQuery(u, q);
    ASSERT_TRUE(parsed.ok()) << q.id;
    Instance in;
    for (RelId rel : EdbRels(parsed->program)) {
      uint32_t arity = u.RelArity(rel);
      Tuple t;
      for (uint32_t i = 0; i < arity; ++i) t.push_back(u.PathOfChars("ab"));
      in.Add(rel, t);
    }
    RunOptions opts;
    opts.max_facts = 100000;
    opts.max_iterations = 10000;
    Result<Instance> out = Eval(u, parsed->program, in, opts);
    EXPECT_TRUE(out.ok()) << q.id << ": " << out.status().ToString();
  }
}

TEST(CorpusTest, NonterminatingEntryExhaustsBudget) {
  Universe u;
  Result<ParsedQuery> parsed = ParsePaperQuery(u, "ex23_nonterminating");
  ASSERT_TRUE(parsed.ok());
  RunOptions opts;
  opts.max_facts = 500;
  Result<Instance> out = Eval(u, parsed->program, Instance{}, opts);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(CorpusTest, OnlyAsVariantsAgree) {
  Universe u1, u2;
  Result<ParsedQuery> q1 = ParsePaperQuery(u1, "ex31_only_as_e");
  Result<ParsedQuery> q2 = ParsePaperQuery(u2, "ex31_only_as_air");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  const char* data = "R(a ++ a). R(a ++ b). R(b). R(eps). R(a ++ a ++ a).";
  Instance in1 = MustInstance(u1, data);
  Instance in2 = MustInstance(u2, data);
  Result<Instance> o1 = EvalQuery(u1, q1->program, in1, q1->output);
  Result<Instance> o2 = EvalQuery(u2, q2->program, in2, q2->output);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->ToString(u1), o2->ToString(u2));
}

TEST(CorpusTest, OnlyAsNoeqVariantAgrees) {
  Universe u1, u2;
  Result<ParsedQuery> q1 = ParsePaperQuery(u1, "ex31_only_as_e");
  Result<ParsedQuery> q2 = ParsePaperQuery(u2, "ex44_only_as_noeq");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  const char* data = "R(a ++ a). R(a ++ b). R(eps). R(a).";
  Instance in1 = MustInstance(u1, data);
  Instance in2 = MustInstance(u2, data);
  Result<Instance> o1 = EvalQuery(u1, q1->program, in1, q1->output);
  Result<Instance> o2 = EvalQuery(u2, q2->program, in2, q2->output);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->ToString(u1), o2->ToString(u2));
}

TEST(CorpusTest, ReverseVariantsAgree) {
  Universe u1, u2;
  Result<ParsedQuery> q1 = ParsePaperQuery(u1, "ex43_reverse");
  Result<ParsedQuery> q2 = ParsePaperQuery(u2, "ex43_reverse_noarity");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  // The hand-encoded variant only lacks arity; it must agree on data that
  // includes the encoding atoms a and b themselves.
  const char* data = "R(c ++ d). R(a ++ b ++ c). R(eps). R(a).";
  Instance in1 = MustInstance(u1, data);
  Instance in2 = MustInstance(u2, data);
  Result<Instance> o1 = EvalQuery(u1, q1->program, in1, q1->output);
  Result<Instance> o2 = EvalQuery(u2, q2->program, in2, q2->output);
  ASSERT_TRUE(o1.ok()) << o1.status().ToString();
  ASSERT_TRUE(o2.ok()) << o2.status().ToString();
  EXPECT_EQ(o1->ToString(u1), o2->ToString(u2));
}

TEST(CorpusTest, JsonSalesSwapsItemAndYear) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "json_sales");
  ASSERT_TRUE(q.ok());
  Instance in = MustInstance(
      u, "Sales(widget ++ y2020 ++ n100). Sales(widget ++ y2021 ++ n120). "
         "Sales(gadget ++ y2020 ++ n7).");
  Result<Instance> out = EvalQuery(u, q->program, in, q->output);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumFacts(), 3u);
  EXPECT_TRUE(
      out->Contains(q->output, {u.PathOfWords("y2020 widget n100")}));
  EXPECT_TRUE(out->Contains(q->output, {u.PathOfWords("y2020 gadget n7")}));
}

TEST(CorpusTest, DeepEqualDetectsEqualSets) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "deep_equal");
  ASSERT_TRUE(q.ok());
  Instance eq = MustInstance(u, "A0(a ++ b). A0(c). B0(c). B0(a ++ b).");
  Result<Instance> out = EvalQuery(u, q->program, eq, q->output);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains(q->output, {}));

  Universe u2;
  Result<ParsedQuery> q2 = ParsePaperQuery(u2, "deep_equal");
  ASSERT_TRUE(q2.ok());
  Instance neq = MustInstance(u2, "A0(a ++ b). B0(a).");
  Result<Instance> out2 = EvalQuery(u2, q2->program, neq, q2->output);
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->Contains(q2->output, {}));
}

TEST(CorpusTest, GcoreCommonNodes) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "gcore_common_nodes");
  ASSERT_TRUE(q.ok());
  Instance in = MustInstance(
      u, "P(n1 ++ n2 ++ n3). P(n2 ++ n3 ++ n4). P(n3 ++ n2).");
  Result<Instance> out = EvalQuery(u, q->program, in, q->output);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Nodes on all three paths: n2 and n3.
  EXPECT_EQ(out->NumFacts(), 2u);
  EXPECT_TRUE(out->Contains(q->output, {u.PathOfWords("n2")}));
  EXPECT_TRUE(out->Contains(q->output, {u.PathOfWords("n3")}));
}

TEST(CorpusTest, ProcessMiningFiltersViolatingLogs) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "process_mining");
  ASSERT_TRUE(q.ok());
  Instance in = MustInstance(
      u,
      "R(start ++ co ++ pack ++ rp ++ end).\n"   // good
      "R(start ++ co ++ pack ++ end).\n"          // bad: co without rp
      "R(start ++ rp ++ end).\n"                  // good: no co at all
      "R(co ++ rp ++ co ++ rp).\n"                // good
      "R(co ++ rp ++ co).\n");                    // bad: second co
  Result<Instance> out = EvalQuery(u, q->program, in, q->output);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumFacts(), 3u);
  EXPECT_TRUE(out->Contains(q->output,
                            {u.PathOfWords("start co pack rp end")}));
  EXPECT_TRUE(out->Contains(q->output, {u.PathOfWords("start rp end")}));
  EXPECT_TRUE(out->Contains(q->output, {u.PathOfWords("co rp co rp")}));
}

TEST(CorpusTest, SquaringProducesQuadraticOutput) {
  Universe u;
  Result<ParsedQuery> q = ParsePaperQuery(u, "squaring");
  ASSERT_TRUE(q.ok());
  for (size_t n : {0u, 1u, 2u, 4u, 6u}) {
    Universe un;
    Result<ParsedQuery> qn = ParsePaperQuery(un, "squaring");
    ASSERT_TRUE(qn.ok());
    Instance in;
    in.Add(*un.FindRel("R"), {un.PathOfChars(std::string(n, 'a'))});
    Result<Instance> out = EvalQuery(un, qn->program, in, qn->output);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->NumFacts(), 1u);
    EXPECT_TRUE(out->Contains(qn->output,
                              {un.PathOfChars(std::string(n * n, 'a'))}));
  }
}

}  // namespace
}  // namespace seqdl
