#include "api/counters.h"

#include <sstream>

#include "api/mr_api.h"

namespace m3r::api {

void ReportTally(Reporter& reporter, const char* group, const char* name,
                 int64_t tally) {
  if (tally != 0) reporter.IncrCounter(group, name, tally);
}

Counters::Counters(const Counters& other) { values_ = other.Snapshot(); }

Counters& Counters::operator=(const Counters& other) {
  if (this != &other) {
    auto snapshot = other.Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    values_ = std::move(snapshot);
  }
  return *this;
}

void Counters::Increment(const std::string& group, const std::string& name,
                         int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[{group, name}] += delta;
}

int64_t Counters::Get(const std::string& group,
                      const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find({group, name});
  return it == values_.end() ? 0 : it->second;
}

void Counters::MergeFrom(const Counters& other) {
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, v] : snapshot) values_[k] += v;
}

std::map<std::pair<std::string, std::string>, int64_t> Counters::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

std::string Counters::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  std::string last_group;
  for (const auto& [key, v] : values_) {
    if (key.first != last_group) {
      os << key.first << ":\n";
      last_group = key.first;
    }
    os << "  " << key.second << "=" << v << "\n";
  }
  return os.str();
}

}  // namespace m3r::api
