/**
 * @file
 * Inner-loop data-dependence graphs (DDGs).
 *
 * A Loop owns its operations, its dependence edges (register and
 * memory, each with an iteration distance), and the table of arrays
 * its memory operations touch. This is the unit the modulo scheduler
 * consumes and the kernel simulator executes.
 */

#ifndef L0VLIW_IR_LOOP_HH
#define L0VLIW_IR_LOOP_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "ir/operation.hh"

namespace l0vliw::ir
{

/** Kind of a dependence edge. */
enum class DepKind
{
    Reg,    ///< register flow dependence (value produced -> consumed)
    Mem,    ///< memory dependence (ordering between loads/stores)
};

/** One dependence edge of the DDG. */
struct DepEdge
{
    OpId src = kNoOp;
    OpId dst = kNoOp;
    DepKind kind = DepKind::Reg;
    /** Iteration distance: 0 = same iteration, k = k iterations later. */
    int distance = 0;
    /**
     * Memory edges only: true when the dependence was inserted by a
     * conservative (may-alias) disambiguation and code specialization
     * (Section 4.1) is allowed to strip it in the aggressive version.
     */
    bool conservative = false;
};

/** A (simulated) array referenced by the loop's memory operations. */
struct ArrayInfo
{
    std::string name;
    Addr base = 0;          ///< byte address of element 0
    std::uint64_t sizeBytes = 0;
};

/** An inner loop: operations + dependence edges + array table. */
class Loop
{
  public:
    explicit Loop(std::string loop_name = "loop") : _name(std::move(loop_name)) {}

    const std::string &name() const { return _name; }
    void setName(std::string n) { _name = std::move(n); }

    /** Append an operation; its id is assigned densely. */
    OpId addOp(Operation op);

    /** Register an array and return its index in the array table. */
    int addArray(ArrayInfo info);

    /** Room for @p ops operations, @p edges edges and @p arrays
     *  arrays without reallocating. */
    void
    reserve(std::size_t ops, std::size_t edges, std::size_t arrays)
    {
        _ops.reserve(ops);
        _edges.reserve(edges);
        _arrays.reserve(arrays);
    }

    /** Add a register flow dependence src -> dst. */
    void addRegEdge(OpId src, OpId dst, int distance = 0);

    /** Add a memory ordering dependence src -> dst. */
    void addMemEdge(OpId src, OpId dst, int distance = 0,
                    bool conservative = false);

    const std::vector<Operation> &ops() const { return _ops; }
    const std::vector<DepEdge> &edges() const { return _edges; }
    const std::vector<ArrayInfo> &arrays() const { return _arrays; }

    Operation &
    op(OpId id)
    {
        L0_ASSERT(id >= 0 && id < numOps(), "op id %d out of range", id);
        return _ops[id];
    }

    const Operation &
    op(OpId id) const
    {
        L0_ASSERT(id >= 0 && id < numOps(), "op id %d out of range", id);
        return _ops[id];
    }

    const ArrayInfo &
    array(int idx) const
    {
        L0_ASSERT(idx >= 0 && idx < static_cast<int>(_arrays.size()),
                  "array index %d out of range", idx);
        return _arrays[idx];
    }

    int numOps() const { return static_cast<int>(_ops.size()); }

    /** Edges leaving @p id (register and memory). */
    std::vector<const DepEdge *> succs(OpId id) const;
    /** Edges entering @p id (register and memory). */
    std::vector<const DepEdge *> preds(OpId id) const;

    /** Count of operations occupying memory slots. */
    int numMemOps() const;

    /**
     * The unroll factor already applied to this body (1 = not
     * unrolled). Recorded so statistics such as Figure 6's average
     * unroll factor can be derived.
     */
    int unrollFactor() const { return _unrollFactor; }
    void setUnrollFactor(int f) { _unrollFactor = f; }

    /**
     * True when this body is the aggressive version produced by code
     * specialization (conservative memory edges stripped). The
     * per-invocation cost of the runtime check is carried by the
     * workload's invocation model.
     */
    bool specialized() const { return _specialized; }
    void setSpecialized(bool s) { _specialized = s; }

    /**
     * Abort via panic() if the DDG is malformed: dangling edge
     * endpoints, a zero-distance cycle, memory edges between
     * non-memory operations, or memory operations without array info.
     */
    void validate() const;

  private:
    std::string _name;
    std::vector<Operation> _ops;
    std::vector<DepEdge> _edges;
    std::vector<ArrayInfo> _arrays;
    int _unrollFactor = 1;
    bool _specialized = false;
};

/**
 * Unroll @p loop by @p factor.
 *
 * Copy k of the body stands for original iteration U*m + k. An edge
 * src -> dst with distance d becomes, for each copy k, an edge from
 * copy k of src to copy (k + d) mod U of dst with distance
 * (k + d) / U. Memory offsets advance by the original stride per copy
 * and strides scale by the factor.
 */
Loop unrollLoop(const Loop &loop, int factor);

} // namespace l0vliw::ir

#endif // L0VLIW_IR_LOOP_HH
