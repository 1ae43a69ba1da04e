/**
 * @file
 * Deterministic address and value streams for dynamic memory accesses.
 *
 * Strided operations follow the affine stream in their MemInfo;
 * irregular operations walk a deterministic pseudo-random sequence
 * within their array. Store values are a hash of (op, iteration). The
 * same functions drive both the timing simulation and the golden
 * replay, so the coherence oracle compares like with like.
 */

#ifndef L0VLIW_SIM_ADDRESS_HH
#define L0VLIW_SIM_ADDRESS_HH

#include <cstdint>

#include "common/types.hh"
#include "ir/loop.hh"

namespace l0vliw::sim
{

/** Mixing hash used for irregular strides and store values. Inline:
 *  the executor calls it once per simulated store. */
inline std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Effective address of memory op @p id at iteration @p iter. */
Addr addressOf(const ir::Loop &loop, OpId id, std::uint64_t iter);

/** Value stored by store op @p id at iteration @p iter (acc.size
 *  low-order bytes are written). */
inline std::uint64_t
storeValue(OpId id, std::uint64_t iter)
{
    return mix(0xabcdULL + static_cast<std::uint64_t>(id), iter);
}

} // namespace l0vliw::sim

#endif // L0VLIW_SIM_ADDRESS_HH
