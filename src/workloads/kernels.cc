#include "workloads/kernels.hh"

#include <vector>

#include "common/logging.hh"

namespace l0vliw::workloads
{

OpId
chainAlu(ir::Loop &loop, OpId input, int int_ops, int fp_ops)
{
    OpId prev = input;
    for (int k = 0; k < int_ops; ++k) {
        ir::Operation alu;
        alu.kind = ir::OpKind::IntAlu;
        alu.tag = "alu" + std::to_string(k);
        OpId id = loop.addOp(alu);
        loop.addRegEdge(prev, id);
        prev = id;
    }
    for (int k = 0; k < fp_ops; ++k) {
        ir::Operation alu;
        alu.kind = ir::OpKind::FpAlu;
        alu.tag = "fpu" + std::to_string(k);
        OpId id = loop.addOp(alu);
        loop.addRegEdge(prev, id);
        prev = id;
    }
    return prev;
}

ir::Operation
makeLoad(int array, int elem_size, long stride, long offset,
         const std::string &tag, bool strided)
{
    ir::Operation op;
    op.kind = ir::OpKind::Load;
    op.tag = tag;
    op.mem.array = array;
    op.mem.elemSize = elem_size;
    op.mem.strideElems = stride;
    op.mem.offsetElems = offset;
    op.mem.strided = strided;
    return op;
}

ir::Operation
makeStore(int array, int elem_size, long stride, long offset,
          const std::string &tag)
{
    ir::Operation op;
    op.kind = ir::OpKind::Store;
    op.tag = tag;
    op.mem.array = array;
    op.mem.elemSize = elem_size;
    op.mem.strideElems = stride;
    op.mem.offsetElems = offset;
    op.mem.strided = true;
    return op;
}

ir::Loop
streamMap(AddressSpace &as, const std::string &name, const StreamParams &p)
{
    ir::Loop loop(name);
    const int chain = p.intOps + p.fpOps;
    loop.reserve(2 * p.loadStreams - 1 + chain + p.storeStreams,
                 2 * (p.loadStreams - 1) + chain + p.storeStreams,
                 p.loadStreams + p.storeStreams);
    std::vector<OpId> loads;
    for (int s = 0; s < p.loadStreams; ++s) {
        int arr = loop.addArray(
            {name + "_in" + std::to_string(s), as.alloc(p.arrayBytes),
             p.arrayBytes});
        loads.push_back(loop.addOp(makeLoad(
            arr, p.elemSize, p.stride, 0, "ld" + std::to_string(s))));
    }
    // Combine tree, then the per-element chain.
    OpId acc = loads[0];
    for (std::size_t s = 1; s < loads.size(); ++s) {
        ir::Operation comb;
        comb.kind = ir::OpKind::IntAlu;
        comb.tag = "comb" + std::to_string(s);
        OpId id = loop.addOp(comb);
        loop.addRegEdge(acc, id);
        loop.addRegEdge(loads[s], id);
        acc = id;
    }
    OpId tail = chainAlu(loop, acc, p.intOps, p.fpOps);
    for (int s = 0; s < p.storeStreams; ++s) {
        int arr = loop.addArray(
            {name + "_out" + std::to_string(s), as.alloc(p.arrayBytes),
             p.arrayBytes});
        OpId st = loop.addOp(makeStore(arr, p.elemSize, p.stride, 0,
                                       "st" + std::to_string(s)));
        loop.addRegEdge(tail, st);
    }
    loop.validate();
    return loop;
}

ir::Loop
memRecurrence(AddressSpace &as, const std::string &name,
              const RecurrenceParams &p)
{
    ir::Loop loop(name);
    loop.reserve(2 + 2 * p.extraLoads + p.chainOps,
                 3 + 2 * p.extraLoads + p.chainOps, 1 + p.extraLoads);
    int y = loop.addArray({name + "_y", as.alloc(p.arrayBytes),
                           p.arrayBytes});
    OpId ld_prev = loop.addOp(makeLoad(y, p.elemSize, 1, -p.lookback,
                                       "ld_yprev"));
    std::vector<OpId> inputs{ld_prev};
    for (int s = 0; s < p.extraLoads; ++s) {
        int x = loop.addArray(
            {name + "_x" + std::to_string(s), as.alloc(p.arrayBytes),
             p.arrayBytes});
        inputs.push_back(loop.addOp(makeLoad(
            x, p.elemSize, 1, 0, "ld_x" + std::to_string(s))));
    }
    OpId acc = inputs[0];
    for (std::size_t s = 1; s < inputs.size(); ++s) {
        ir::Operation comb;
        comb.kind = ir::OpKind::IntAlu;
        comb.tag = "comb" + std::to_string(s);
        OpId id = loop.addOp(comb);
        loop.addRegEdge(acc, id);
        loop.addRegEdge(inputs[s], id);
        acc = id;
    }
    OpId tail = chainAlu(loop, acc, p.fpChain ? 0 : p.chainOps,
                         p.fpChain ? p.chainOps : 0);
    OpId st = loop.addOp(makeStore(y, p.elemSize, 1, 0, "st_y"));
    loop.addRegEdge(tail, st);
    // Genuine memory dependences of the recurrence: the store feeds the
    // lookback load `lookback` iterations later; the load must also
    // issue before the same-block store of its own iteration.
    loop.addMemEdge(st, ld_prev, p.lookback);
    loop.addMemEdge(ld_prev, st, 0);
    loop.validate();
    return loop;
}

ir::Loop
blockTransform(AddressSpace &as, const std::string &name, int block,
               int elem_size, std::uint64_t array_bytes)
{
    ir::Loop loop(name);
    loop.reserve(3 * block, 3 * block, 2);
    int x = loop.addArray({name + "_x", as.alloc(array_bytes),
                           array_bytes});
    int y = loop.addArray({name + "_y", as.alloc(array_bytes),
                           array_bytes});
    // One iteration consumes `block` consecutive elements.
    std::vector<OpId> stage;
    for (int k = 0; k < block; ++k)
        stage.push_back(loop.addOp(makeLoad(
            x, elem_size, block, k, "ld" + std::to_string(k))));
    // Butterfly-ish log-depth combine.
    while (stage.size() > 1) {
        std::vector<OpId> next;
        for (std::size_t i = 0; i + 1 < stage.size(); i += 2) {
            ir::Operation comb;
            comb.kind = ir::OpKind::IntAlu;
            comb.tag = "bf";
            OpId id = loop.addOp(comb);
            loop.addRegEdge(stage[i], id);
            loop.addRegEdge(stage[i + 1], id);
            next.push_back(id);
        }
        if (stage.size() % 2)
            next.push_back(stage.back());
        stage = std::move(next);
    }
    for (int k = 0; k < block; ++k) {
        OpId st = loop.addOp(makeStore(y, elem_size, block, k,
                                       "st" + std::to_string(k)));
        loop.addRegEdge(stage[0], st);
    }
    loop.validate();
    return loop;
}

ir::Loop
columnWalk(AddressSpace &as, const std::string &name, const ColumnParams &p)
{
    ir::Loop loop(name);
    loop.reserve(2 * p.streams + p.intOps, 2 * p.streams + p.intOps,
                 p.streams + 1);
    std::vector<OpId> loads;
    for (int s = 0; s < p.streams; ++s) {
        int arr = loop.addArray(
            {name + "_m" + std::to_string(s), as.alloc(p.arrayBytes),
             p.arrayBytes});
        loads.push_back(loop.addOp(makeLoad(
            arr, p.elemSize, p.strideElems, s, "col" + std::to_string(s))));
    }
    OpId acc = loads[0];
    for (std::size_t s = 1; s < loads.size(); ++s) {
        ir::Operation comb;
        comb.kind = ir::OpKind::IntAlu;
        comb.tag = "comb";
        OpId id = loop.addOp(comb);
        loop.addRegEdge(acc, id);
        loop.addRegEdge(loads[s], id);
        acc = id;
    }
    OpId tail = chainAlu(loop, acc, p.intOps, 0);
    int out = loop.addArray({name + "_out", as.alloc(p.arrayBytes),
                             p.arrayBytes});
    OpId st = loop.addOp(makeStore(out, p.elemSize, 1, 0, "st"));
    loop.addRegEdge(tail, st);
    loop.validate();
    return loop;
}

ir::Loop
tableLookup(AddressSpace &as, const std::string &name, int irregular_loads,
            int strided_loads, int int_ops, std::uint64_t table_bytes,
            int elem_size)
{
    ir::Loop loop(name);
    const int loads = strided_loads + irregular_loads;
    loop.reserve(2 * loads + int_ops, 3 * loads + int_ops, loads + 1);
    std::vector<OpId> inputs;
    for (int s = 0; s < strided_loads; ++s) {
        int arr = loop.addArray(
            {name + "_in" + std::to_string(s), as.alloc(table_bytes),
             table_bytes});
        inputs.push_back(loop.addOp(makeLoad(
            arr, elem_size, 1, 0, "ld" + std::to_string(s))));
    }
    for (int s = 0; s < irregular_loads; ++s) {
        int arr = loop.addArray(
            {name + "_tab" + std::to_string(s), as.alloc(table_bytes),
             table_bytes});
        OpId lk = loop.addOp(makeLoad(arr, elem_size, 0, 0,
                                      "lk" + std::to_string(s), false));
        // The lookup index comes from a strided input when present.
        if (!inputs.empty())
            loop.addRegEdge(inputs[0], lk);
        inputs.push_back(lk);
    }
    OpId acc = inputs[0];
    for (std::size_t s = 1; s < inputs.size(); ++s) {
        ir::Operation comb;
        comb.kind = ir::OpKind::IntAlu;
        comb.tag = "comb";
        OpId id = loop.addOp(comb);
        loop.addRegEdge(acc, id);
        loop.addRegEdge(inputs[s], id);
        acc = id;
    }
    OpId tail = chainAlu(loop, acc, int_ops, 0);
    int out = loop.addArray({name + "_out", as.alloc(table_bytes),
                             table_bytes});
    OpId st = loop.addOp(makeStore(out, elem_size, 1, 0, "st"));
    loop.addRegEdge(tail, st);
    loop.validate();
    return loop;
}

ir::Loop
conservativeUpdate(AddressSpace &as, const std::string &name,
                   int load_streams, int int_ops, int elem_size,
                   std::uint64_t array_bytes)
{
    ir::Loop loop(name);
    loop.reserve(2 * load_streams + int_ops, 4 * load_streams + int_ops + 1,
                 load_streams);
    std::vector<OpId> loads;
    std::vector<int> arrays;
    for (int s = 0; s < load_streams; ++s) {
        int arr = loop.addArray(
            {name + "_a" + std::to_string(s), as.alloc(array_bytes),
             array_bytes});
        arrays.push_back(arr);
        loads.push_back(loop.addOp(makeLoad(
            arr, elem_size, 1, 0, "ld" + std::to_string(s))));
    }
    OpId acc = loads[0];
    for (std::size_t s = 1; s < loads.size(); ++s) {
        ir::Operation comb;
        comb.kind = ir::OpKind::IntAlu;
        comb.tag = "comb";
        OpId id = loop.addOp(comb);
        loop.addRegEdge(acc, id);
        loop.addRegEdge(loads[s], id);
        acc = id;
    }
    OpId tail = chainAlu(loop, acc, int_ops, 0);
    // In-place update of stream 0 a few elements behind the read.
    OpId st = loop.addOp(makeStore(arrays[0], elem_size, 1, -2, "st"));
    loop.addRegEdge(tail, st);
    // Genuine set: the store writes elements load0 already read (WAR)
    // and a reader two iterations later would see them (RAW is real
    // because offset -2 trails the load stream).
    loop.addMemEdge(st, loads[0], 2);
    loop.addMemEdge(loads[0], st, 0);
    // Conservative may-alias edges to every other stream: the
    // pessimistic disambiguation code specialization removes.
    for (std::size_t s = 1; s < loads.size(); ++s) {
        loop.addMemEdge(st, loads[s], 1, /*conservative=*/true);
        loop.addMemEdge(loads[s], st, 0, /*conservative=*/true);
    }
    loop.validate();
    return loop;
}

} // namespace l0vliw::workloads
