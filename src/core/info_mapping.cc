#include "core/info_mapping.h"

#include <algorithm>

#include "common/logging.h"

namespace fela::core {

void InfoMapping::RecordAssigned(TokenId token, sim::NodeId worker) {
  assignee_[token] = worker;
}

void InfoMapping::RecordCompleted(TokenId token, sim::NodeId worker) {
  FELA_CHECK(holder_.find(token) == holder_.end())
      << "token " << token << " completed twice";
  holder_[token] = worker;
  assignee_.erase(token);
}

sim::NodeId InfoMapping::HolderOf(TokenId token) const {
  auto it = holder_.find(token);
  return it == holder_.end() ? -1 : it->second;
}

sim::NodeId InfoMapping::AssigneeOf(TokenId token) const {
  auto it = assignee_.find(token);
  return it == assignee_.end() ? -1 : it->second;
}

bool InfoMapping::IsCompleted(TokenId token) const {
  return holder_.count(token) > 0;
}

std::vector<TokenId> InfoMapping::CompletedBySorted(sim::NodeId worker) const {
  std::vector<TokenId> out;
  // fela-lint: allow(unordered-iter): this IS the snapshot pattern: the
  // collected keys are sorted before anything observes them.
  for (const auto& [token, holder] : holder_) {
    if (holder == worker) out.push_back(token);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TokenId> InfoMapping::CompletedTokensSorted() const {
  std::vector<TokenId> out;
  out.reserve(holder_.size());
  // fela-lint: allow(unordered-iter): this IS the snapshot pattern: the
  // collected keys are sorted before anything observes them.
  for (const auto& [token, worker] : holder_) out.push_back(token);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<TokenId, sim::NodeId>> InfoMapping::AssignmentsSorted()
    const {
  std::vector<std::pair<TokenId, sim::NodeId>> out(assignee_.begin(),
                                                   assignee_.end());
  std::sort(out.begin(), out.end());
  return out;
}

double InfoMapping::LocalityScore(sim::NodeId worker,
                                  const std::vector<TokenId>& deps) const {
  if (deps.empty()) return 1.0;
  size_t hits = 0;
  for (TokenId d : deps) {
    if (HolderOf(d) == worker) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(deps.size());
}

double InfoMapping::LocalityScore(sim::NodeId worker,
                                  const std::vector<TokenDep>& deps) const {
  if (deps.empty()) return 1.0;
  size_t hits = 0;
  for (const auto& d : deps) {
    if (HolderOf(d.id) == worker) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(deps.size());
}

void InfoMapping::Reset() {
  holder_.clear();
  assignee_.clear();
}

}  // namespace fela::core
