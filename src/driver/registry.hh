/**
 * @file
 * The architecture registry: every ArchSpec factory registered under
 * its label, so experiment specs can name architectures by string
 * ("l0-8", "multivliw", ...) instead of calling factories directly.
 *
 * Besides the explicitly registered labels, the registry understands
 * the parametric "l0-..." label grammar the ArchSpec factories emit,
 * so any label a factory can produce resolves back to that factory:
 *
 *   l0-<N> | l0-unbounded          ArchSpec::l0(N / -1)
 *   ...-nl0 | ...-psr              coherence mode suffixes
 *   ...-allcand                    ArchSpec::l0AllCandidates(N)
 *   ...-pf<D>                      ArchSpec::l0PrefetchDistance(N, D)
 *
 * Only the canonical spelling resolves ("l0-08", "l0-8-" do not);
 * the lookup rules are common::LabelRegistry's.
 */

#ifndef L0VLIW_DRIVER_REGISTRY_HH
#define L0VLIW_DRIVER_REGISTRY_HH

#include "common/label_registry.hh"
#include "driver/runner.hh"

namespace l0vliw::driver
{

/** Label-to-factory registry of architecture specifications. */
using ArchRegistry = LabelRegistry<ArchSpec, &ArchSpec::label>;

/**
 * The process-wide registry, pre-seeded with every architecture the
 * paper's figures and tables use.
 */
ArchRegistry &archRegistry();

} // namespace l0vliw::driver

#endif // L0VLIW_DRIVER_REGISTRY_HH
