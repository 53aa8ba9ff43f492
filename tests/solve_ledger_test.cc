// The flight-recorder vocabulary: the stable names of ladder-attempt
// outcomes that explain reports and the workflow print.

#include "core/solve_ledger.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

TEST(SolveLedgerTest, OutcomeNames) {
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kNotRun), "not_run");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kOk), "ok");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kFailed), "failed");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kExpired), "expired");
  EXPECT_STREQ(AttemptOutcomeToString(AttemptOutcome::kPruned), "pruned");
}

}  // namespace
}  // namespace rasa
