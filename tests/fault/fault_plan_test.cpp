// FaultPlan rendering: the resilience experiment compares plan summaries
// byte for byte, so each fault's one-line description must be exact.
#include "fault/fault.h"

#include <gtest/gtest.h>

namespace dlte::fault {
namespace {

TEST(FaultSpec, DescribeNamesKindAndTarget) {
  FaultSpec s;
  s.kind = FaultKind::kApCrash;
  s.ap = ApId{7};
  EXPECT_EQ(s.describe(), "ap-crash ap=7");

  FaultSpec p;
  p.kind = FaultKind::kLinkPartition;
  p.link_a = NodeId{1};
  p.link_b = NodeId{2};
  EXPECT_EQ(p.describe(), "link-partition link=1<->2");

  FaultSpec o;
  o.kind = FaultKind::kRegistryOutage;
  o.outage = spectrum::RegistryOutage::kCommitStall;
  EXPECT_EQ(o.describe(), "registry-outage mode=commit-stall zone=all");
}

TEST(FaultPlan, SummaryMarksPermanentFaults) {
  FaultPlan plan;
  FaultSpec s;
  s.kind = FaultKind::kApCrash;
  s.ap = ApId{1};
  s.at = TimePoint{} + Duration::seconds(30.0);
  plan.add(s);  // duration stays zero = permanent.
  EXPECT_NE(plan.summary().find("dur=permanent"), std::string::npos);
  EXPECT_NE(plan.summary().find("t=30.000s"), std::string::npos);
}

}  // namespace
}  // namespace dlte::fault
