#include "analysis/runner.h"

#include <gtest/gtest.h>

#include "core/use_cases.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

/// Engine stub that counts invocations and can be told to fail.
class StubEngine : public QueryEngine {
 public:
  explicit StubEngine(bool fail = false) : fail_(fail) {}
  EngineKind kind() const override { return EngineKind::kDatalog; }
  std::string description() const override { return "stub"; }
  Result<uint64_t> Evaluate(const Graph&, const Query&,
                            const ResourceBudget&,
                            EvalContext* ctx) const override {
    ++calls_;
    if (ctx != nullptr && ctx->profile != nullptr) {
      ctx->profile->peak_tuples = 7;
    }
    if (fail_) return Status::ResourceExhausted("stub failure");
    return static_cast<uint64_t>(42);
  }
  mutable int calls_ = 0;

 private:
  bool fail_;
};

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest()
      : graph_(ParallelGenerateGraph(MakeBibConfig(200, 3)).ValueOrDie()) {
    QueryRule rule;
    rule.head = {0, 1};
    rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(0))}};
    query_.rules = {rule};
  }
  Graph graph_;
  Query query_;
};

TEST_F(RunnerTest, ProtocolRunsColdPlusWarm) {
  StubEngine engine;
  TimingResult result =
      TimeQuery(engine, graph_, query_, ResourceBudget::Unlimited());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.count, 42u);
  // Paper protocol: 1 cold + 5 warm.
  EXPECT_EQ(engine.calls_, 6);
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(RunnerTest, FailurePropagatesAfterColdRun) {
  StubEngine engine(/*fail=*/true);
  TimingResult result =
      TimeQuery(engine, graph_, query_, ResourceBudget::Unlimited());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(engine.calls_, 1);  // Fails cold, stops immediately.
  EXPECT_EQ(result.ToCell(), "-");
}

TEST_F(RunnerTest, CustomProtocol) {
  StubEngine engine;
  TimingProtocol protocol;
  protocol.cold_run = false;
  protocol.warm_runs = 3;
  protocol.trim_each_side = 0;
  TimingResult result = TimeQuery(engine, graph_, query_,
                                  ResourceBudget::Unlimited(), protocol);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(engine.calls_, 3);
}

TEST_F(RunnerTest, DegenerateTrimFallsBackToAll) {
  StubEngine engine;
  TimingProtocol protocol;
  protocol.cold_run = false;
  protocol.warm_runs = 2;
  protocol.trim_each_side = 1;  // Would leave zero samples.
  TimingResult result = TimeQuery(engine, graph_, query_,
                                  ResourceBudget::Unlimited(), protocol);
  EXPECT_TRUE(result.ok());
  EXPECT_GE(result.seconds, 0.0);
}

TEST_F(RunnerTest, ProfileRidesTheColdRun) {
  StubEngine engine;
  TimingResult result =
      TimeQuery(engine, graph_, query_, ResourceBudget::Unlimited());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.profile.peak_tuples, 7u);
}

TEST_F(RunnerTest, ProfileFilledOnFailureToo) {
  StubEngine engine(/*fail=*/true);
  TimingResult result =
      TimeQuery(engine, graph_, query_, ResourceBudget::Unlimited());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.profile.peak_tuples, 7u);
}

TEST_F(RunnerTest, ProfileRidesFirstWarmRunWhenColdDisabled) {
  StubEngine engine;
  TimingProtocol protocol;
  protocol.cold_run = false;
  protocol.warm_runs = 2;
  protocol.trim_each_side = 0;
  TimingResult result = TimeQuery(engine, graph_, query_,
                                  ResourceBudget::Unlimited(), protocol);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.profile.peak_tuples, 7u);
}

TEST_F(RunnerTest, ToCellFormatsSeconds) {
  TimingResult r;
  r.status = Status::OK();
  r.seconds = 1.23456;
  EXPECT_EQ(r.ToCell(), "1.235");
}

}  // namespace
}  // namespace gmark
