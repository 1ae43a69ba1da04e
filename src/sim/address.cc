#include "sim/address.hh"

#include "common/logging.hh"

namespace l0vliw::sim
{

Addr
addressOf(const ir::Loop &loop, OpId id, std::uint64_t iter)
{
    const ir::Operation &op = loop.op(id);
    L0_ASSERT(ir::isMemKind(op.kind), "addressOf on non-memory op %d", id);
    const ir::ArrayInfo &arr = loop.array(op.mem.array);
    if (op.mem.strided) {
        long elem = op.mem.offsetElems
                    + op.mem.strideElems * static_cast<long>(iter);
        // Streams wrap inside the array so long-trip loops keep a
        // bounded working set (the workload models pick array sizes so
        // wrapping matches the intended locality).
        std::uint64_t elems = arr.sizeBytes / op.mem.elemSize;
        L0_ASSERT(elems > 0, "array %s too small",
                  arr.name.c_str());
        long wrapped = elem % static_cast<long>(elems);
        if (wrapped < 0)
            wrapped += static_cast<long>(elems);
        return arr.base + static_cast<Addr>(wrapped) * op.mem.elemSize;
    }
    // Irregular: deterministic pseudo-random element.
    std::uint64_t elems = arr.sizeBytes / op.mem.elemSize;
    std::uint64_t elem = mix(static_cast<std::uint64_t>(id) + 1, iter)
                         % elems;
    return arr.base + elem * op.mem.elemSize;
}

} // namespace l0vliw::sim
