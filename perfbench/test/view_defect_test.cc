// A defect in maintained views (src/view) that the benchmark's answer
// check found, reduced to the service API. This test fails until views
// survive auto-compaction correctly; it is not part of the benchmark run.
//
// A view registered before the EDB is loaded is delta-refreshed by every
// append. When auto-compaction folds segments the view already covers and
// the newest folded segment is an append (so SegmentSet::shrink_floor
// stays below the view's epoch), the next refresh treats the whole merged
// segment as new and counts every derivation a second time. A later
// retraction then decrements a tuple's support once, DRed keeps it, and
// the view serves a log that is no longer in the EDB. The benchmark's
// set-ups load the EDB before they warm the cache, so its workloads do
// not reach this path.
#include <gtest/gtest.h>

#include <string>

#include "perfbench/src/gen.h"
#include "src/engine/database.h"
#include "src/server/service.h"
#include "src/syntax/parser.h"

namespace perfbench {
namespace {

std::string ColdAnswer(const seqdl::Database& db, const std::string& program,
                       const std::string& output) {
  seqdl::Universe u;
  seqdl::Result<seqdl::Instance> edb =
      seqdl::ParseInstance(u, db.edb().ToString(db.universe()));
  seqdl::Result<seqdl::Program> p = seqdl::ParseProgram(u, program);
  if (!edb.ok() || !p.ok()) return "<parse error>";
  seqdl::Result<seqdl::Database> fresh = seqdl::Database::Open(u, std::move(*edb));
  seqdl::Result<seqdl::PreparedProgram> prog = fresh->Compile(std::move(*p));
  seqdl::Result<seqdl::Instance> derived = fresh->Snapshot().Run(*prog);
  if (!prog.ok() || !derived.ok()) return "<run error>";
  return derived->Project({*u.FindRel(output)}).ToString(u);
}

TEST(KnownDefect, ViewKeepsRetractedFactAfterAutoCompaction) {
  seqdl::Universe u;
  seqdl::Database::OpenOptions opts;
  opts.auto_compact_segments = 16;
  seqdl::Result<seqdl::Database> db = seqdl::Database::Open(u, seqdl::Instance(), opts);
  ASSERT_TRUE(db.ok());
  seqdl::DatabaseService service(u, std::move(*db));
  seqdl::protocol::RunRequest run;
  run.program = "S($x) <- R($x), $x = $u ++ rp ++ $v ++ act0 ++ $w.\n";
  run.output_rel = "S";
  ASSERT_TRUE(service.Run(run).ok());  // register the view on the empty EDB

  LogShape shape;
  WriterScript script(1);
  for (int i = 0; i < 50; ++i) {
    const WriteOp op = script.Next(5);
    const std::string facts = BatchText(1, shape, op.batch);
    if (op.retract) {
      ASSERT_TRUE(service.Retract({facts, ""}).ok());
    } else {
      ASSERT_TRUE(service.Append({facts, ""}).ok());
    }
    seqdl::Result<seqdl::protocol::RunReply> served = service.Run(run);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->rendered, ColdAnswer(service.db(), run.program, "S"))
        << "after write " << i << " (" << (op.retract ? "retract" : "append")
        << " of batch " << op.batch << ")";
  }
}

}  // namespace
}  // namespace perfbench
