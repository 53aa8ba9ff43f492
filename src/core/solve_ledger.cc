#include "core/solve_ledger.h"

#include <atomic>

#include "common/metrics.h"

namespace rasa {
namespace {

std::atomic<bool> g_ledger_enabled{true};

}  // namespace

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

SolveLedger& SolveLedger::Default() {
  // Leaked on purpose, like MetricRegistry: destruction order vs. worker
  // threads at exit is otherwise unknowable.
  static SolveLedger* ledger = new SolveLedger();
  return *ledger;
}

void SolveLedger::AppendLocked(LedgerRecord record) {
  if (records_.size() < kCapacity) {
    records_.push_back(std::move(record));
    return;
  }
  records_[oldest_] = std::move(record);
  oldest_ = (oldest_ + 1) % kCapacity;
}

void SolveLedger::Append(LedgerRecord record) {
  static Counter& appended =
      MetricRegistry::Default().GetCounter("ledger.records");
  appended.Increment();
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(std::move(record));
}

void SolveLedger::AppendAll(const std::vector<LedgerRecord>& records) {
  static Counter& appended =
      MetricRegistry::Default().GetCounter("ledger.records");
  appended.Increment(records.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const LedgerRecord& record : records) AppendLocked(record);
}

std::vector<LedgerRecord> SolveLedger::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LedgerRecord> out(records_.begin() + oldest_, records_.end());
  out.insert(out.end(), records_.begin(), records_.begin() + oldest_);
  return out;
}

size_t SolveLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void SolveLedger::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  oldest_ = 0;
}

void SetSolveLedgerEnabled(bool enabled) {
  g_ledger_enabled.store(enabled, std::memory_order_relaxed);
}

bool SolveLedgerEnabled() {
  return g_ledger_enabled.load(std::memory_order_relaxed);
}

}  // namespace rasa
