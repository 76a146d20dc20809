#include "core/field_upgrade.hpp"

namespace crusade {

FieldUpgradeResult try_field_upgrade(const Specification& new_spec,
                                     const ResourceLibrary& lib,
                                     const Architecture& deployed,
                                     CrusadeParams params) {
  lib.validate();
  new_spec.validate(lib.pe_count());
  FieldUpgradeResult result;

  // The flat view and clusters belong to the NEW specification; nothing in
  // the result keeps references into it, so a local suffices.
  const FlatSpec flat(new_spec);
  const CanonicalTimes canon = canonical_times(flat, lib);
  result.clusters = cluster_tasks(flat, lib, canon, params.clustering);
  result.task_cluster =
      task_to_cluster(result.clusters, flat.task_count());

  AllocParams alloc_params;
  alloc_params.boot_estimate = estimate_boot_time;
  alloc_params.power_cap_mw = params.power_cap_mw;
  alloc_params.max_iterations = params.max_iterations;
  alloc_params.allow_new_pes = false;  // the board is what it is

  Allocator allocator(flat, lib, canon,
                      params.enable_reconfig && new_spec.compatibility
                          ? &*new_spec.compatibility
                          : nullptr,
                      alloc_params);
  AllocationOutcome outcome = allocator.run(result.clusters, &deployed);

  result.arch = std::move(outcome.arch);
  result.schedule = std::move(outcome.schedule);
  for (std::size_t c = 0; c < result.clusters.size(); ++c)
    if (result.arch.cluster_pe[c] < 0) ++result.unplaceable_clusters;
  result.accommodated = !outcome.upgrade_rejected &&
                        result.unplaceable_clusters == 0 &&
                        result.schedule.feasible;
  return result;
}

}  // namespace crusade
