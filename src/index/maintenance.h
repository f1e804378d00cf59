// Asynchronous index maintenance (paper §3.2, Figure 3).
//
// Base-table writes trigger compiled update functions: the maintainer maps
// each (entity, change) to the registered plans it affects and enqueues a
// bounded task per plan into the UpdateQueue, with a deadline derived from
// the plan's staleness bound. Cascades (two-hop indexes maintained from the
// adjacency/"friend" index) fire when the adjacency task completes —
// "updatable structures may themselves be specified as tables".
//
// Adjacency and two-hop indexes hold one id list per user (index/keys.h),
// read and rewritten whole on the primary. An added edge (x, y) reads the
// adjacency lists of x and y, then the two-hop lists of x, y and their
// friends in one batch, unions in the ids each gains and writes those that
// grew in one batch. A removed edge also reads its ends' friends' adjacency
// lists: a pair whose path ran over the edge and whose users no longer
// share a friend leaves both users' lists. A task redone writes nothing new.
//
// Each task's router-operation count is tracked against the plan's
// update_cost bound; overruns are counted (they indicate a planner bug or a
// violated fan-out cap).

#ifndef SCADS_INDEX_MAINTENANCE_H_
#define SCADS_INDEX_MAINTENANCE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "index/update_queue.h"
#include "query/planner.h"
#include "query/schema.h"

namespace scads {

/// Maintenance statistics.
struct MaintenanceStats {
  int64_t tasks_enqueued = 0;
  int64_t entries_written = 0;
  int64_t entries_deleted = 0;
  int64_t lookups = 0;
  int64_t budget_overruns = 0;
};

/// Owns the registered index plans and drives their maintenance.
class IndexMaintainer {
 public:
  IndexMaintainer(EventLoop* loop, Router* router, const Catalog* catalog, UpdateQueue* queue)
      : loop_(loop), router_(router), catalog_(catalog), queue_(queue) {}

  /// Registers a plan. `staleness_bound` sets task deadlines (0 = one
  /// minute default). The shared adjacency helper arrives once per query;
  /// it keeps the tightest bound, so its task of a write always runs
  /// before the tasks cascaded from it.
  Status RegisterPlan(const IndexPlan& plan, Duration staleness_bound);

  /// Notifies the maintainer that a base row changed. `old_row` is the
  /// previous image (nullopt on insert), `new_row` the new one (nullopt on
  /// delete). The write itself has already been routed; this only schedules
  /// derived-structure updates.
  void OnBaseWrite(const std::string& entity, std::optional<Row> old_row,
                   std::optional<Row> new_row);

  const MaintenanceStats& stats() const { return stats_; }
  UpdateQueue* queue() { return queue_; }

  /// Registered plan by name (nullptr when unknown).
  const IndexPlan* GetPlan(const std::string& name) const;

  /// Concatenated Figure-3 maintenance table of all registered plans.
  std::vector<MaintenanceEntry> MaintenanceTable() const;

 private:
  struct Registered {
    IndexPlan plan;
    Duration staleness_bound;
  };

  // Task bodies. Each invokes done(status) exactly once.
  void RunSelectionUpdate(const Registered& reg, std::optional<Row> old_row,
                          std::optional<Row> new_row, std::function<void(Status)> done);
  void RunAdjacencyUpdate(const Registered& reg, std::optional<Row> old_edge,
                          std::optional<Row> new_edge, std::function<void(Status)> done);
  void RunJoinEdgeUpdate(const Registered& reg, std::optional<Row> old_edge,
                         std::optional<Row> new_edge, std::function<void(Status)> done);
  void RunJoinTargetUpdate(const Registered& reg, std::optional<Row> old_row,
                           std::optional<Row> new_row, std::function<void(Status)> done);
  void RunTwoHopUpdate(const Registered& reg, std::optional<Row> old_edge,
                       std::optional<Row> new_edge, std::function<void(Status)> done);

  /// Adjacency or two-hop lists, by user (index/keys.h).
  using Lists = std::map<uint64_t, std::vector<uint64_t>>;
  /// A task's next step, handed the task's done() to call or pass on.
  using Next = std::function<void(std::function<void(Status)>)>;

  /// Adds to `*lists` the lists in `plan` of the `ids` it lacks (absent: empty)
  /// with one primary-pinned MultiGet, then, while `hops` > 1, those of the
  /// ids they list. Runs `next`, or done() with the first failed read.
  void ReadLists(const IndexPlan& plan, std::vector<uint64_t> ids, int hops,
                 std::shared_ptr<Lists> lists, std::function<void(Status)> done, Next next);

  /// The two-hop task of an edge (x, y) that was `added` or removed: finds
  /// the pairs whose paths run over the edge and hands them to WriteTwoHop,
  /// which adds each user's `edits` to its two-hop list (`add`) or erases
  /// them, and writes the lists that changed in one batch.
  void EditTwoHop(const Registered& reg, const IndexPlan& adjacency, uint64_t x, uint64_t y,
                  bool added, std::function<void(Status)> done);
  void WriteTwoHop(const Registered& reg, std::shared_ptr<Lists> edits, bool add,
                   std::function<void(Status)> done);

  /// Flushes index-entry mutations as one batched write (one message per
  /// owning primary); done() gets the first per-op failure, or Ok. Callers
  /// that tolerate entry-write failures wrap `done` to swallow the status.
  void FlushEntryOps(std::vector<Router::WriteOp> ops, std::function<void(Status)> done);

  EventLoop* loop_;
  Router* router_;
  const Catalog* catalog_;
  UpdateQueue* queue_;
  std::map<std::string, Registered> plans_;
  MaintenanceStats stats_;
};

}  // namespace scads

#endif  // SCADS_INDEX_MAINTENANCE_H_
