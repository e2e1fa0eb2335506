#include "workflow/workflow.hpp"

#include <gtest/gtest.h>

namespace {

using medcc::workflow::Workflow;

Workflow small_valid() {
  Workflow wf;
  const auto a = wf.add_module("a", 10.0);
  const auto b = wf.add_module("b", 20.0);
  const auto c = wf.add_module("c", 30.0);
  wf.add_dependency(a, b, 1.0);
  wf.add_dependency(a, c, 2.0);
  wf.add_dependency(b, c, 3.0);
  return wf;
}

TEST(Workflow, BasicAccessors) {
  const auto wf = small_valid();
  EXPECT_EQ(wf.module_count(), 3u);
  EXPECT_EQ(wf.dependency_count(), 3u);
  EXPECT_EQ(wf.module(0).name, "a");
  EXPECT_DOUBLE_EQ(wf.module(1).workload, 20.0);
  EXPECT_DOUBLE_EQ(wf.data_size(2), 3.0);
  EXPECT_DOUBLE_EQ(wf.total_workload(), 60.0);
}

TEST(Workflow, EntryAndExit) {
  const auto wf = small_valid();
  EXPECT_EQ(wf.entry(), 0u);
  EXPECT_EQ(wf.exit(), 2u);
}

TEST(Workflow, ValidWorkflowPassesValidation) {
  EXPECT_TRUE(small_valid().validate().ok());
  EXPECT_NO_THROW(small_valid().ensure_valid());
}

TEST(Workflow, EmptyWorkflowInvalid) {
  Workflow wf;
  const auto report = wf.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_THROW(wf.ensure_valid(), medcc::InvalidArgument);
}

TEST(Workflow, MultipleSourcesDetected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  const auto c = wf.add_module("c", 1.0);
  wf.add_dependency(a, c);
  wf.add_dependency(b, c);
  const auto report = wf.validate();
  EXPECT_FALSE(report.ok());
}

TEST(Workflow, MultipleSinksDetected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  const auto c = wf.add_module("c", 1.0);
  wf.add_dependency(a, b);
  wf.add_dependency(a, c);
  EXPECT_FALSE(wf.validate().ok());
}

TEST(Workflow, FixedModulesAreNotComputing) {
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto mid = wf.add_module("mid", 5.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, mid);
  wf.add_dependency(mid, exit);
  EXPECT_TRUE(wf.validate().ok());
  EXPECT_EQ(wf.computing_module_count(), 1u);
  EXPECT_EQ(wf.computing_modules(), std::vector<medcc::workflow::NodeId>{mid});
  EXPECT_TRUE(wf.module(entry).is_fixed());
  EXPECT_FALSE(wf.module(mid).is_fixed());
  EXPECT_DOUBLE_EQ(wf.total_workload(), 5.0);
}

TEST(Workflow, NegativeWorkloadRejected) {
  Workflow wf;
  EXPECT_THROW((void)wf.add_module("bad", -1.0), medcc::InvalidArgument);
  EXPECT_THROW((void)wf.add_fixed_module("bad", -1.0),
               medcc::InvalidArgument);
}

TEST(Workflow, NegativeDataSizeRejected) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("b", 1.0);
  EXPECT_THROW((void)wf.add_dependency(a, b, -0.5), medcc::InvalidArgument);
}

TEST(Workflow, ValidationReportNamesProblems) {
  Workflow wf;
  const auto a = wf.add_module("a", 1.0);
  const auto b = wf.add_module("island", 1.0);
  (void)a;
  (void)b;
  const auto report = wf.validate();  // two sources, two sinks
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.problems.size(), 2u);
}

}  // namespace
