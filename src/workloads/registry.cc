#include "workloads/registry.hh"

#include "workloads/synthetic.hh"

namespace l0vliw::workloads
{

WorkloadRegistry &
workloadRegistry()
{
    static WorkloadRegistry *reg = [] {
        auto *r = new WorkloadRegistry(
            "benchmark", makeSyntheticWorkload,
            "a Mediabench name, stream-<ops>, stride-<s>x<ops>, "
            "stencil2d-<w>, reduce-<fan>, pchase-<s>, "
            "rand-s<seed>-<ops>");
        for (const auto &name : benchmarkNames())
            r->add(name, [name] { return makeBenchmark(name); });
        // One canonical instance per synthetic family; every other
        // label of the grammar resolves parametrically.
        for (const auto &label : syntheticFamilyLabels())
            r->add(label, [label] {
                return *makeSyntheticWorkload(label);
            });
        return r;
    }();
    return *reg;
}

} // namespace l0vliw::workloads
