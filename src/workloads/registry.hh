/**
 * @file
 * The workload registry: every benchmark factory registered under its
 * label, symmetric to driver::archRegistry() — experiment specs name
 * both sides of the (benchmark, architecture) grid by string.
 *
 * Besides the explicitly registered labels (the 13 Mediabench models
 * plus one canonical instance of each synthetic family), the registry
 * understands the parametric synthetic-family grammar, so any label
 * makeSyntheticWorkload() accepts resolves to its generator:
 *
 *   stream-<ops> | stride-<s>x<ops> | stencil2d-<w> | reduce-<fan>
 *   | pchase-<s> | rand-s<seed>-<ops>
 *
 * Resolution is deterministic: the same label always yields a
 * bit-identical benchmark model, and only the canonical spelling
 * resolves ("stream-04" does not); the lookup rules are
 * common::LabelRegistry's.
 */

#ifndef L0VLIW_WORKLOADS_REGISTRY_HH
#define L0VLIW_WORKLOADS_REGISTRY_HH

#include "common/label_registry.hh"
#include "workloads/workload.hh"

namespace l0vliw::workloads
{

/** Label-to-factory registry of benchmark models. */
using WorkloadRegistry = LabelRegistry<Benchmark, &Benchmark::name>;

/**
 * The process-wide registry, pre-seeded with the Mediabench suite and
 * the canonical synthetic-family instances.
 */
WorkloadRegistry &workloadRegistry();

} // namespace l0vliw::workloads

#endif // L0VLIW_WORKLOADS_REGISTRY_HH
