#include "core/solve_ledger.h"

namespace rasa {

const char* AttemptOutcomeToString(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::kNotRun:
      return "not_run";
    case AttemptOutcome::kOk:
      return "ok";
    case AttemptOutcome::kFailed:
      return "failed";
    case AttemptOutcome::kExpired:
      return "expired";
    case AttemptOutcome::kPruned:
      return "pruned";
  }
  return "unknown";
}

}  // namespace rasa
