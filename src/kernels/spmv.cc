/**
 * @file
 * SPMV over Compact Row Storage: out = A * vec.
 *
 * Row extents come from rowDelim loads, so inner-loop trip counts
 * are data-dependent. The optional guard reproduces the paper's
 * Table I experiment: a bit-shift on the column index that only
 * executes when the index falls in a configured range, hidden
 * behind a real branch — visible to an execute-in-execute model,
 * invisible to a trace that never triggers it.
 *
 * Layout from base:
 *   val[rows * nnz]      double
 *   cols[rows * nnz]     i64
 *   rowDelim[rows + 1]   i64
 *   vec[2 * rows]        double (oversized so guarded indices land)
 *   out[rows]            double
 */

#include <cmath>
#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

class SpmvKernel : public Kernel
{
  public:
    SpmvKernel(unsigned rows, unsigned nnz, bool guarded,
               unsigned dataset)
        : rows(rows), nnz(nnz), guarded(guarded), dataset(dataset)
    {}

    std::string
    name() const override
    {
        return guarded ? "spmv-crs-guarded" : "spmv-crs";
    }

    std::string
    key() const override
    {
        return formatKey(
            {{"r", rows}, {"z", nnz}, {"g", guarded}, {"d", dataset}});
    }

    std::uint64_t valBytes() const { return 8ull * rows * nnz; }

    std::uint64_t colsBytes() const { return 8ull * rows * nnz; }

    std::uint64_t delimBytes() const { return 8ull * (rows + 1); }

    std::uint64_t vecBytes() const { return 8ull * 2 * rows; }

    std::uint64_t
    footprintBytes() const override
    {
        return valBytes() + colsBytes() + delimBytes() + vecBytes() +
               8ull * rows;
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f64 = ctx.doubleType();
        const Type *i64 = ctx.i64();
        Function *fn = b.createFunction("spmv", ctx.voidType());
        Argument *val = fn->addArgument(ctx.pointerTo(f64), "val");
        Argument *cols = fn->addArgument(ctx.pointerTo(i64), "cols");
        Argument *delim =
            fn->addArgument(ctx.pointerTo(i64), "rowDelim");
        Argument *vec = fn->addArgument(ctx.pointerTo(f64), "vec");
        Argument *out = fn->addArgument(ctx.pointerTo(f64), "out");

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        OuterLoop li(b, "row", 0, rows);
        // Row bounds: begin = rowDelim[i], end = rowDelim[i+1].
        Value *begin = b.load(b.gep(i64, delim, li.iv(), "pb"),
                              "begin");
        Value *ip1 = b.add(li.iv(), b.constI64(1), "ip1");
        Value *end = b.load(b.gep(i64, delim, ip1, "pe"), "end");

        // Inner loop over the row's nonzeros; dynamic trip count, so
        // it is built by hand (while-style with a guard for empty
        // rows).
        BasicBlock *row_head = b.insertBlock();
        BasicBlock *inner = b.createBlock("nnz");
        BasicBlock *guard_then =
            guarded ? b.createBlock("guard.then") : nullptr;
        BasicBlock *inner_tail =
            guarded ? b.createBlock("nnz.tail") : nullptr;
        BasicBlock *row_done = b.createBlock("row.done");

        Value *has_work =
            b.icmp(Predicate::SLT, begin, end, "has.work");
        b.condBr(has_work, inner, row_done);

        b.setInsertPoint(inner);
        PhiInst *j = b.phi(i64, "j");
        PhiInst *sum = b.phi(f64, "sum");
        Value *v = b.load(b.gep(f64, val, j, "pv"), "v");
        Value *c = b.load(b.gep(i64, cols, j, "pc"), "c");

        Value *sum_next;
        Value *j_next;
        Value *cont;
        if (guarded) {
            // The Table I modification: shift the column index when
            // it falls inside [guardLo, rows): real branch, real
            // shifter in the datapath only when the data hits it.
            Value *hit = b.icmp(Predicate::SGE, c,
                                b.constI64(guardLo()), "hit");
            b.condBr(hit, guard_then, inner_tail);

            b.setInsertPoint(guard_then);
            Value *shifted = b.shl(c, b.constI64(1), "c.shift");
            b.br(inner_tail);

            b.setInsertPoint(inner_tail);
            PhiInst *c_eff = b.phi(i64, "c.eff");
            c_eff->addIncoming(c, inner);
            c_eff->addIncoming(shifted, guard_then);
            Value *x =
                b.load(b.gep(f64, vec, c_eff, "px"), "x");
            sum_next = b.fadd(sum, b.fmul(v, x, "prod"),
                              "sum.next");
            j_next = b.add(j, b.constI64(1), "j.next");
            cont = b.icmp(Predicate::SLT, j_next, end, "cont");
            b.condBr(cont, inner, row_done);
        } else {
            Value *x = b.load(b.gep(f64, vec, c, "px"), "x");
            sum_next = b.fadd(sum, b.fmul(v, x, "prod"),
                              "sum.next");
            j_next = b.add(j, b.constI64(1), "j.next");
            cont = b.icmp(Predicate::SLT, j_next, end, "cont");
            b.condBr(cont, inner, row_done);
        }
        BasicBlock *backedge_block = guarded ? inner_tail : inner;
        j->addIncoming(begin, row_head);
        j->addIncoming(j_next, backedge_block);
        sum->addIncoming(b.constDouble(0.0), row_head);
        sum->addIncoming(sum_next, backedge_block);

        b.setInsertPoint(row_done);
        PhiInst *row_sum = b.phi(f64, "row.sum");
        row_sum->addIncoming(b.constDouble(0.0), row_head);
        row_sum->addIncoming(sum_next, backedge_block);
        b.store(row_sum, b.gep(f64, out, li.iv(), "pout"));
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(11 + dataset);
        std::uint64_t val = base;
        std::uint64_t cols = base + valBytes();
        std::uint64_t delim = cols + colsBytes();
        std::uint64_t vec = delim + delimBytes();

        std::uint64_t edge = 0;
        mem.writeI64(delim, 0);
        for (unsigned i = 0; i < rows; ++i) {
            unsigned count = 1 + static_cast<unsigned>(
                rng.nextBelow(nnz - 1));
            for (unsigned k = 0; k < count; ++k) {
                mem.writeF64(val + 8 * edge,
                             rng.nextDouble() - 0.5);
                // Dataset 2 occasionally emits indices in the guard
                // range; dataset 1 never does.
                std::int64_t col;
                if (dataset == 2 && rng.nextBelow(8) == 0) {
                    col = guardLo() +
                        static_cast<std::int64_t>(rng.nextBelow(
                            rows - static_cast<unsigned>(
                                       guardLo())));
                } else {
                    col = static_cast<std::int64_t>(
                        rng.nextBelow(guardLo()));
                }
                mem.writeI64(cols + 8 * edge, col);
                ++edge;
            }
            mem.writeI64(delim + 8ull * (i + 1),
                         static_cast<std::int64_t>(edge));
        }
        for (unsigned i = 0; i < 2 * rows; ++i)
            mem.writeF64(vec + 8ull * i, rng.nextDouble() - 0.5);
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t val = base;
        std::uint64_t cols = base + valBytes();
        std::uint64_t delim = cols + colsBytes();
        std::uint64_t vec = delim + delimBytes();
        std::uint64_t out = vec + vecBytes();
        return {RuntimeValue::fromPointer(val),
                RuntimeValue::fromPointer(cols),
                RuntimeValue::fromPointer(delim),
                RuntimeValue::fromPointer(vec),
                RuntimeValue::fromPointer(out)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t val = base;
        std::uint64_t cols = base + valBytes();
        std::uint64_t delim = cols + colsBytes();
        std::uint64_t vec = delim + delimBytes();
        std::uint64_t out = vec + vecBytes();
        for (unsigned i = 0; i < rows; ++i) {
            std::int64_t begin = mem.readI64(delim + 8ull * i);
            std::int64_t end = mem.readI64(delim + 8ull * (i + 1));
            double expected = 0.0;
            for (std::int64_t j = begin; j < end; ++j) {
                std::int64_t c = mem.readI64(
                    cols + 8ull * static_cast<std::uint64_t>(j));
                if (guarded && c >= guardLo())
                    c <<= 1;
                expected += mem.readF64(
                                val +
                                8ull *
                                    static_cast<std::uint64_t>(j)) *
                    mem.readF64(
                        vec + 8ull * static_cast<std::uint64_t>(c));
            }
            double got = mem.readF64(out + 8ull * i);
            if (std::abs(got - expected) > 1e-9) {
                std::ostringstream os;
                os << "spmv mismatch at row " << i << ": got "
                   << got << " expected " << expected;
                return os.str();
            }
        }
        return "";
    }

  private:
    std::int64_t guardLo() const { return rows / 2; }

    unsigned rows;
    unsigned nnz;
    bool guarded;
    unsigned dataset;
};

} // namespace

std::unique_ptr<Kernel>
makeSpmv(unsigned rows, unsigned nnz_per_row, bool guarded,
         unsigned dataset)
{
    return std::make_unique<SpmvKernel>(rows, nnz_per_row, guarded,
                                        dataset);
}

} // namespace salam::kernels
