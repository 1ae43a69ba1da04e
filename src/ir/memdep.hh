/**
 * @file
 * Memory-dependent sets and code specialization (paper Section 4.1).
 *
 * The scheduler groups memory instructions into sets Si of mutually
 * dependent operations (per the compiler's disambiguation). Sets that
 * mix loads and stores constrain cluster assignment (NL0 / 1C / PSR).
 * Code specialization produces an aggressive loop version with the
 * conservative (may-alias) edges stripped, guarded by a runtime check.
 */

#ifndef L0VLIW_IR_MEMDEP_HH
#define L0VLIW_IR_MEMDEP_HH

#include <vector>

#include "ir/loop.hh"

namespace l0vliw::ir
{

/**
 * The loop's memory operations partitioned into memory-dependent sets,
 * in one flat array: set s holds ops[begin[s] .. begin[s + 1]).
 */
struct MemorySets
{
    /** The members of one set, ascending. */
    struct Members
    {
        const OpId *first, *last;
        const OpId *begin() const { return first; }
        const OpId *end() const { return last; }
        std::size_t size() const { return last - first; }
    };

    std::vector<int> begin{0};
    std::vector<OpId> ops;

    int size() const { return static_cast<int>(begin.size()) - 1; }
    Members
    operator[](int s) const
    {
        return {ops.data() + begin[s], ops.data() + begin[s + 1]};
    }
};

/**
 * Partition the loop's memory operations into memory-dependent sets.
 *
 * Two memory operations are in the same set when they are connected
 * (in either direction) by memory edges. Singleton sets are returned
 * too; callers filter as needed.
 */
MemorySets memorySets(const Loop &loop);

/** True when the set contains at least one load and one store. */
bool setHasLoadAndStore(const Loop &loop, MemorySets::Members set);

/**
 * Code specialization: return the aggressive version of @p loop with
 * every conservative memory edge removed and the specialized flag set.
 * The caller is responsible for charging the runtime-check overhead
 * (a few cycles per invocation) and for only using the aggressive
 * version when the checks pass — in our workload models, as in the
 * paper's experiments for epicdec/pgpdec/pgpenc/rasta, they always do.
 */
Loop specializeLoop(const Loop &loop);

/** Number of conservative memory edges in @p loop. */
int countConservativeEdges(const Loop &loop);

} // namespace l0vliw::ir

#endif // L0VLIW_IR_MEMDEP_HH
