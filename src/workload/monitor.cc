#include "workload/monitor.h"

#include "sql/normalizer.h"

namespace aim::workload {

WorkloadMonitor& WorkloadMonitor::operator=(const WorkloadMonitor& other) {
  if (this == &other) return *this;
  // std::scoped_lock acquires both mutexes deadlock-free regardless of
  // which thread copies which way.
  std::scoped_lock lock(mu_, other.mu_);
  stats_ = other.stats_;
  return *this;
}

void WorkloadMonitor::Record(const sql::Statement& stmt,
                             const executor::ExecutionMetrics& metrics) {
  const std::string normalized_sql = sql::NormalizedSql(stmt);
  RecordKeyed(sql::TextFingerprint(normalized_sql), normalized_sql, metrics);
}

void WorkloadMonitor::RecordKeyed(
    uint64_t fingerprint, const std::string& normalized_sql,
    const executor::ExecutionMetrics& metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryStats& s = stats_[fingerprint];
  if (s.executions == 0) {
    s.fingerprint = fingerprint;
    s.normalized_sql = normalized_sql;
  }
  ++s.executions;
  s.total_cpu_seconds += metrics.cpu_seconds;
  s.rows_examined += metrics.rows_examined;
  s.rows_sent += metrics.rows_sent;
  s.sum_sent_to_read += metrics.SentToReadRatio();
}

void WorkloadMonitor::MergeFrom(const WorkloadMonitor& other) {
  if (this == &other) return;
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [fp, s] : other.stats_) {
    QueryStats& mine = stats_[fp];
    if (mine.executions == 0) {
      mine.fingerprint = fp;
      mine.normalized_sql = s.normalized_sql;
    }
    mine.executions += s.executions;
    mine.total_cpu_seconds += s.total_cpu_seconds;
    mine.rows_examined += s.rows_examined;
    mine.rows_sent += s.rows_sent;
    mine.sum_sent_to_read += s.sum_sent_to_read;
  }
}

std::vector<QueryStats> WorkloadMonitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryStats> out;
  out.reserve(stats_.size());
  for (const auto& [_, s] : stats_) out.push_back(s);
  return out;
}

const QueryStats* WorkloadMonitor::Find(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(fingerprint);
  return it == stats_.end() ? nullptr : &it->second;
}

void WorkloadMonitor::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
}

}  // namespace aim::workload
