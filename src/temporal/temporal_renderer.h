// Temporal renderer: the frame-sequence serving layer. Consecutive cameras
// of a flythrough produce nearly identical per-group depth orders, so most
// of the per-frame group sorting GS-TG already reduced is *still* redundant
// across frames. TemporalRenderer wraps the persistent renderer's frame
// stages with a cross-frame group-sort cache:
//
//   per group, keep the previous frame's sorted order as original cloud
//   indices; on the new frame, split the group's entries into *stayers*
//   (already in the cached list) and *joiners*. An O(n) validity walk
//   checks that the stayers, taken in cached order, are still strictly
//   increasing under the new (depth, index) packed keys — keys are unique
//   within a group, so a strictly increasing sequence IS sorted. Then the
//   joiners (usually a handful of boundary crossers) go through the shared
//   per-group sort (core/grouping.h) and a two-way merge by key produces
//   the group's order; splats that left the group simply drop out of the
//   walk. Unique keys make the sorted order unique, so the merged result is
//   bit-identical to a full per-frame sort — exact by construction, not
//   approximately. Only when the stayer order itself broke (depth
//   inversions under the new view) does the whole group fall back to the
//   full sort.
//
// TemporalMode::kVerify audits that argument at runtime: every reused order
// is re-sorted and compared bit-for-bit (mismatches are counted and the
// sorted result wins). kOff degenerates to Renderer::render.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/renderer.h"
#include "render/metrics.h"
#include "temporal/camera_path.h"

namespace gstg {

/// Previous frame's group-sort snapshot: per group, the sorted entry list
/// as original cloud indices (ProjectedSplat::index — stable across frames,
/// unlike positions in the per-frame splat vector).
struct GroupSortCache {
  bool valid = false;
  int cells_x = 0;  ///< group grid the snapshot belongs to
  int cells_y = 0;
  std::size_t cloud_size = 0;
  std::vector<std::uint32_t> offsets;          ///< cell_count + 1
  std::vector<std::uint32_t> sorted_cloud_ids; ///< per entry, in sorted order
};

/// Reusable per-worker buffers of the temporal sort stage. The cloud-sized
/// stamp/entry maps give the O(n) membership check; the epoch counter makes
/// one pair of maps serve every group a worker visits without clearing.
struct TemporalScratch {
  struct Worker {
    SortWorkerScratch sort;
    std::vector<std::uint32_t> stamp;     ///< per cloud index: epoch of last marking
    std::vector<std::uint32_t> entry_of;  ///< per cloud index: entry position when stamped
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> stayer_ids;  ///< staged stayers, cached order
    std::vector<TileMask> stayer_masks;
    std::vector<std::uint64_t> stayer_keys;
    std::vector<std::uint32_t> joiner_ids;  ///< staged joiners, sorted before the merge
    std::vector<TileMask> joiner_masks;
    std::vector<std::uint32_t> verify_ids;  ///< kVerify: independent re-sort input
    std::vector<TileMask> verify_masks;
    TemporalStats stats;
  };
  std::vector<Worker> workers;
  /// Per group: the sort volume the walk accounted, reduced in group order
  /// after the join so the double total is schedule-independent.
  std::vector<double> group_volume;
};

/// A persistent renderer with the cross-frame group-sort cache. Unlike
/// core/renderer.h's Renderer it is stateful (the cache belongs to one
/// frame sequence), so use one TemporalRenderer per camera stream; frames
/// must be rendered in sequence order for reuse to mean anything.
///
/// Every temporal mode is pixel-exact: output images and all RenderCounters
/// except sort_comparison_volume match render_gstg on the same frame
/// exactly (reused groups perform no sort, so kReuse reports less sorting
/// work — that reduction is the point; kVerify re-sorts everything and
/// therefore matches render_gstg's counters bit-for-bit).
class TemporalRenderer {
 public:
  /// Captures config.resolved() (core/gstg_config.h): the environment
  /// overrides — GSTG_TEMPORAL winning over config.temporal, GSTG_THREADS
  /// for threads == 0 — are applied once here, and a malformed or unknown
  /// override throws std::invalid_argument.
  explicit TemporalRenderer(const GsTgConfig& config);

  [[nodiscard]] const GsTgConfig& config() const { return config_; }
  [[nodiscard]] TemporalMode mode() const { return config_.temporal; }

  /// Renders one frame into `ctx` (same contract as Renderer::render) and
  /// updates the cache, last_frame() and total() statistics.
  void render(const GaussianCloud& cloud, const Camera& camera, FrameContext& ctx);

  /// Reuse statistics of the most recent frame / of every frame rendered
  /// since construction (or the last invalidate()).
  [[nodiscard]] const TemporalStats& last_frame() const { return last_; }
  [[nodiscard]] const TemporalStats& total() const { return total_; }

  /// Drops the cache and zeroes total(): the next frame sorts every group
  /// (a "cold" frame). Use when switching to an unrelated camera stream.
  void invalidate();

 private:
  void temporal_sort(std::span<const ProjectedSplat> splats, FrameContext& ctx);
  void snapshot_cache(const GroupedFrame& frame, std::span<const ProjectedSplat> splats,
                      std::size_t cloud_size);

  GsTgConfig config_;
  GroupSortCache cache_;
  TemporalScratch scratch_;
  TemporalStats last_;
  TemporalStats total_;
};

/// One frame sequence rendered through a TemporalRenderer: per-frame
/// outputs plus the merged counters and reuse statistics. `images` is empty
/// when the sequence was rendered with keep_images = false.
struct TemporalSequenceResult {
  std::vector<Framebuffer> images;
  std::vector<StageTimes> times;
  std::vector<RenderCounters> counters;
  std::vector<TemporalStats> frame_stats;
  RenderCounters total_counters;
  TemporalStats total_stats;
  double wall_ms = 0.0;
};

/// Renders every camera in order through one TemporalRenderer and reused
/// FrameContext (frames of a sequence are causally dependent through the
/// cache, so this path is sequential — view parallelism belongs to
/// render_batch's independent-frame model). keep_images = false skips the
/// per-frame framebuffer copies — retaining them is O(frames × image)
/// memory, gigabytes for a long paper-scale sequence — while counters,
/// times and reuse statistics are still recorded per frame.
TemporalSequenceResult render_sequence(const GaussianCloud& cloud,
                                       std::span<const Camera> cameras,
                                       const GsTgConfig& config, bool keep_images = true);

/// render_sequence over a named FrameSequence.
TemporalSequenceResult render_sequence(const GaussianCloud& cloud, const FrameSequence& sequence,
                                       const GsTgConfig& config, bool keep_images = true);

}  // namespace gstg
