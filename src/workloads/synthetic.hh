/**
 * @file
 * Parametric synthetic workload families.
 *
 * The Mediabench models in mediabench.cc reproduce the paper's eight
 * figures from thirteen fixed programs; the synthetic families probe
 * the L0 design across the whole access-pattern space instead. Each
 * family is a label grammar whose parameters control one axis the L0
 * machinery cares about — stride, reuse distance, fan-in, dependence-
 * chain length — and every label expands deterministically: the same
 * label always produces bit-identical ir::Loop kernels (the rand
 * family draws everything from an Rng seeded by its label).
 *
 * Grammar (all integers canonical decimal — no sign, space or
 * leading zero, see parseDecimal in common/decimal.hh; bounds in
 * makeSyntheticWorkload):
 *
 *   stream-<ops>        unit-stride map, <ops>-deep ALU chain
 *   stride-<s>x<ops>    walk with stride <s> elements, <ops> ALU ops
 *   stencil2d-<w>       2D stencil: taps at -<w>..+<w> and +-1 row
 *   reduce-<fan>        <fan> input streams into a memory recurrence
 *   pchase-<s>          address-serialized load chain, stride <s>
 *   rand-s<seed>-<ops>  seeded random DDG of <ops> operations
 *
 * The labels resolve through workloadRegistry() exactly like the
 * "l0-..." grammar resolves through archRegistry().
 */

#ifndef L0VLIW_WORKLOADS_SYNTHETIC_HH
#define L0VLIW_WORKLOADS_SYNTHETIC_HH

#include <optional>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace l0vliw::workloads
{

/**
 * Expand a synthetic-family label into a benchmark model, or empty
 * when @p label does not match the grammar (malformed numbers and
 * out-of-range parameters are "no match", mirroring the arch
 * registry's treatment of bad "l0-..." labels). Deterministic: the
 * same label always returns a bit-identical model.
 */
std::optional<Benchmark> makeSyntheticWorkload(const std::string &label);

/**
 * One canonical label per synthetic family, in grammar order — the
 * instances workloadRegistry() pre-registers and the sweep drivers
 * use as anchors.
 */
const std::vector<std::string> &syntheticFamilyLabels();

} // namespace l0vliw::workloads

#endif // L0VLIW_WORKLOADS_SYNTHETIC_HH
