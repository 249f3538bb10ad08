// calu_dag.h — construction of CALU's task dependency graph (Figure 3).
//
// Tasks, following the paper's notation (Section 2):
//   P  — panel preprocessing: TSLU tournament leaves, binary-tree merges,
//        and a finalize step (swap application + unpivoted top-tile LU);
//   L  — L-factor tiles of the panel (trsm);
//   U  — right swap + U tile of the current block row (trsm);
//   S  — trailing-matrix update (gemm), grouped into k*b-tall segments in
//        the static BCL region (Section 3's granularity optimization);
//   pL — pack one finished L tile (I, k) into the step's shared gemm
//        operand arena (micro-kernel strip layout), one task per tile row;
//   pU — likewise for one U tile (k, J), one task per trailing column.
//
// The pack tasks (trace::Kind::PackL / PackU, enabled by `pack_panels`)
// hoist operand packing out of the S tasks: each panel is packed once per
// step — O(nb) packs — and every S task of the step consumes the shared
// packed copy, instead of re-packing its operands per task — O(nb^2)
// packs.  An S task then depends on the pL tasks of its tile group and
// the pU task of its column (which transitively cover the old L/U edges).
//
// Ownership encodes the schedule split: tasks operating on the first
// Nstatic tile columns carry their block-cyclic owner; the rest are
// dynamic.  Priorities encode DFS order (J, K, kind), which realizes both
// Algorithm 2's left-to-right traversal and the static section's
// look-ahead; pack tasks slot directly after their producer (pL after L,
// pU after U) so they ride the critical path ahead of the updates they
// feed.
#pragma once

#include <string>
#include <vector>

#include "src/layout/grid.h"
#include "src/layout/packed.h"
#include "src/sched/dag.h"

namespace calu::core {

struct CaluPlan {
  sched::TaskGraph graph;

  /// Tournament node: leaf (children < 0, thread_row = leaf chunk id) or
  /// merge (children are node indices within the same panel).
  struct TNode {
    int child_a = -1, child_b = -1;
    int thread_row = -1;
    int task = -1;  // task id in `graph`
  };
  std::vector<std::vector<TNode>> tnodes;  // per panel
  std::vector<int> root_node;              // per panel: tournament root
  std::vector<int> final_task;             // per panel: Pfinal task id

  layout::Tiling tiling;
  layout::Grid grid;
  int npanels = 0;
  int nstatic = 0;       // panels (tile columns) scheduled statically
  int group_factor = 1;  // effective S-group size (1 = per tile)
  bool grouped = false;
  bool pack_panels = false;  // pL/pU tasks present; S consumes the arena
  /// build_whole_job_plan: the graph is one P task factoring the whole
  /// matrix; tnodes/root_node/final_task are empty and npanels keeps the
  /// tiling's panel count.
  bool whole_job = false;
};

/// Build the plan.  `dratio` in [0, 1]; `group_factor` >= 1 activates
/// grouped S tasks when the layout supports it (BCL); `pack_panels` adds
/// the pL/pU operand-pack tasks (see header comment).
CaluPlan build_plan(const layout::Tiling& tiling, const layout::Grid& grid,
                    layout::Layout layout, double dratio, int group_factor,
                    bool pack_panels = true);

/// The whole-job plan: one dynamic P task that factors the entire matrix
/// with recursive GEPP (core::PlanKind::WholeJob).
CaluPlan build_whole_job_plan(const layout::Tiling& tiling,
                              const layout::Grid& grid);

/// Graphviz rendering of the plan's task graph (Figure 3); intended for
/// small tile counts.
std::string plan_to_dot(const CaluPlan& plan);

}  // namespace calu::core
