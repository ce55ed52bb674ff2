#ifndef FELA_CORE_INFO_MAPPING_H_
#define FELA_CORE_INFO_MAPPING_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/token.h"
#include "sim/types.h"

namespace fela::core {

/// The token server's (worker, token) bookkeeping (§III-A): which worker
/// completed each token (and therefore holds its output parameters in its
/// Parameter Chunks), which worker is currently training which token, and
/// the per-worker completed sets H_wid used by the Eq. 1 locality score
/// (t is in H_w exactly when HolderOf(t) == w, so H_w is not stored).
class InfoMapping {
 public:
  InfoMapping() = default;

  /// Registers that `worker` is currently training `token` (recorded at
  /// distribution time, before the notify messages go out).
  void RecordAssigned(TokenId token, sim::NodeId worker);

  /// Registers a completion report: `worker` now holds the token's
  /// output parameters.
  void RecordCompleted(TokenId token, sim::NodeId worker);

  /// Holder of a completed token's output, or -1 if not completed.
  sim::NodeId HolderOf(TokenId token) const;

  /// Worker currently assigned to a token, or -1.
  sim::NodeId AssigneeOf(TokenId token) const;

  bool IsCompleted(TokenId token) const;

  /// Sorted-key-snapshot pattern: any code that *iterates* the unordered
  /// state below and feeds the results into event emission, logging,
  /// span output, or tie-breaking must first copy the keys into a
  /// sorted vector (what these helpers do) so the visit order is
  /// deterministic. fela-lint's unordered-iter rule enforces this.
  ///
  /// H_wid: tokens completed by `worker` this iteration, ascending (a
  /// scan of every completion — for tests and reports, not hot paths).
  std::vector<TokenId> CompletedBySorted(sim::NodeId worker) const;

  /// All completed token ids, ascending.
  std::vector<TokenId> CompletedTokensSorted() const;

  /// All currently-assigned (token, worker) pairs, ascending by token.
  std::vector<std::pair<TokenId, sim::NodeId>> AssignmentsSorted() const;

  /// Eq. 1: |H_wid ∩ D_tid| / |D_tid|. Returns 1.0 for empty deps (a
  /// token with no dependencies is fully "local" anywhere).
  double LocalityScore(sim::NodeId worker,
                       const std::vector<TokenId>& deps) const;
  double LocalityScore(sim::NodeId worker,
                       const std::vector<TokenDep>& deps) const;

  size_t completed_count() const { return holder_.size(); }

  /// Clears all per-iteration state (tokens are iteration-scoped).
  void Reset();

 private:
  std::unordered_map<TokenId, sim::NodeId> holder_;
  std::unordered_map<TokenId, sim::NodeId> assignee_;
};

}  // namespace fela::core

#endif  // FELA_CORE_INFO_MAPPING_H_
