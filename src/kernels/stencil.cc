/**
 * @file
 * Stencil2D (3x3 filter) and Stencil3D (7-point), both i32, matching
 * MachSuite's stencil kernels. The small filter loops are emitted
 * straight-line, as clang's unroller would leave them.
 *
 * Stencil2D layout: orig[rows*cols], sol[rows*cols], filter[9].
 * Stencil3D layout: C[2], orig[h*r*c], sol[h*r*c].
 */

#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

class Stencil2dKernel : public Kernel
{
  public:
    Stencil2dKernel(unsigned rows, unsigned cols, unsigned unroll)
        : rows(rows), cols(cols), unroll(unroll)
    {}

    std::string name() const override { return "stencil2d"; }

    std::string
    key() const override
    {
        return formatKey({{"r", rows}, {"c", cols}, {"u", unroll}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 4ull * (2 * rows * cols + 9);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *i32 = ctx.i32();
        Function *fn = b.createFunction("stencil2d",
                                        ctx.voidType());
        Argument *orig =
            fn->addArgument(ctx.pointerTo(i32), "orig");
        Argument *sol = fn->addArgument(ctx.pointerTo(i32), "sol");
        Argument *filter =
            fn->addArgument(ctx.pointerTo(i32), "filter");

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);
        // Filter coefficients are loop-invariant: load them once.
        std::vector<Value *> f;
        for (int k = 0; k < 9; ++k) {
            f.push_back(b.load(
                b.gep(i32, filter, b.constI64(k)), "f"));
        }

        OuterLoop lr(b, "r", 0, static_cast<std::int64_t>(rows) - 2);
        Value *r_base =
            b.mul(lr.iv(),
                  b.constI64(static_cast<std::int64_t>(cols)),
                  "r.base");

        InnerLoop lc(b, "c", 0, static_cast<std::int64_t>(cols) - 2);
        Value *acc = nullptr;
        for (int k1 = 0; k1 < 3; ++k1) {
            for (int k2 = 0; k2 < 3; ++k2) {
                Value *idx = b.add(
                    b.add(r_base, lc.iv(), "idx.rc"),
                    b.constI64(k1 * static_cast<std::int64_t>(cols) +
                               k2),
                    "idx");
                Value *v =
                    b.load(b.gep(i32, orig, idx, "p.in"), "in");
                Value *prod = b.mul(
                    f[static_cast<std::size_t>(k1 * 3 + k2)], v,
                    "prod");
                acc = acc ? b.add(acc, prod, "acc") : prod;
            }
        }
        Value *out_idx = b.add(r_base, lc.iv(), "out.idx");
        b.store(acc, b.gep(i32, sol, out_idx, "p.out"));
        lc.close();
        lr.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(31);
        for (unsigned i = 0; i < rows * cols; ++i) {
            mem.writeI32(base + 4ull * i,
                         static_cast<std::int32_t>(
                             rng.nextBelow(1000)) -
                             500);
        }
        std::uint64_t filter = base + 8ull * rows * cols;
        for (unsigned k = 0; k < 9; ++k) {
            mem.writeI32(filter + 4ull * k,
                         static_cast<std::int32_t>(
                             rng.nextBelow(16)) -
                             8);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(base + 4ull * rows * cols),
                RuntimeValue::fromPointer(base +
                                          8ull * rows * cols)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t sol = base + 4ull * rows * cols;
        std::uint64_t filter = base + 8ull * rows * cols;
        for (unsigned r = 0; r + 2 < rows; ++r) {
            for (unsigned c = 0; c + 2 < cols; ++c) {
                std::int32_t expected = 0;
                for (unsigned k1 = 0; k1 < 3; ++k1) {
                    for (unsigned k2 = 0; k2 < 3; ++k2) {
                        expected += mem.readI32(filter +
                                                4ull *
                                                    (k1 * 3 + k2)) *
                            mem.readI32(
                                base +
                                4ull * ((r + k1) * cols + c + k2));
                    }
                }
                std::int32_t got =
                    mem.readI32(sol + 4ull * (r * cols + c));
                if (got != expected) {
                    std::ostringstream os;
                    os << "stencil2d mismatch at (" << r << ","
                       << c << "): got " << got << " expected "
                       << expected;
                    return os.str();
                }
            }
        }
        return "";
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        std::vector<opt::PassSpec> passes;
        if (unroll > 1)
            passes.push_back(opt::PassSpec::unroll("c", unroll));
        passes.push_back(opt::PassSpec::balance());
        passes.push_back(opt::PassSpec::cleanup());
        return passes;
    }

  private:
    unsigned rows, cols, unroll;
};

class Stencil3dKernel : public Kernel
{
  public:
    Stencil3dKernel(unsigned height, unsigned rows, unsigned cols,
                    unsigned unroll)
        : height(height), rows(rows), cols(cols), unroll(unroll)
    {}

    std::string name() const override { return "stencil3d"; }

    std::string
    key() const override
    {
        return formatKey(
            {{"h", height}, {"r", rows}, {"c", cols}, {"u", unroll}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 4ull * (2 + 2ull * height * rows * cols);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *i32 = ctx.i32();
        Function *fn = b.createFunction("stencil3d",
                                        ctx.voidType());
        Argument *coef = fn->addArgument(ctx.pointerTo(i32), "C");
        Argument *orig =
            fn->addArgument(ctx.pointerTo(i32), "orig");
        Argument *sol = fn->addArgument(ctx.pointerTo(i32), "sol");

        auto rc = static_cast<std::int64_t>(rows * cols);
        auto cc = static_cast<std::int64_t>(cols);

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);
        Value *c0 = b.load(b.gep(i32, coef, b.constI64(0)), "c0");
        Value *c1 = b.load(b.gep(i32, coef, b.constI64(1)), "c1");

        OuterLoop li(b, "i", 1, static_cast<std::int64_t>(height) - 1);
        Value *i_base = b.mul(li.iv(), b.constI64(rc), "i.base");
        OuterLoop lj(b, "j", 1, static_cast<std::int64_t>(rows) - 1);
        Value *j_base = b.mul(lj.iv(), b.constI64(cc), "j.base");
        Value *ij_base = b.add(i_base, j_base, "ij.base");

        InnerLoop lk(b, "kk", 1, static_cast<std::int64_t>(cols) - 1);
        Value *center_idx = b.add(ij_base, lk.iv(), "center.idx");
        auto load_at = [&](std::int64_t delta, const char *nm) {
            Value *idx = b.add(center_idx, b.constI64(delta), nm);
            return b.load(b.gep(i32, orig, idx), nm);
        };
        Value *center = load_at(0, "vc");
        Value *sum = b.add(load_at(rc, "xp"), load_at(-rc, "xm"),
                           "s1");
        sum = b.add(sum, load_at(cc, "yp"), "s2");
        sum = b.add(sum, load_at(-cc, "ym"), "s3");
        sum = b.add(sum, load_at(1, "zp"), "s4");
        sum = b.add(sum, load_at(-1, "zm"), "s5");
        Value *result = b.add(b.mul(c0, center, "mc"),
                              b.mul(c1, sum, "ms"), "result");
        b.store(result, b.gep(i32, sol, center_idx, "p.out"));
        lk.close();
        lj.close();
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        mem.writeI32(base, 2);
        mem.writeI32(base + 4, -1);
        Lcg rng(41);
        std::uint64_t orig = base + 8;
        for (unsigned i = 0; i < height * rows * cols; ++i) {
            mem.writeI32(orig + 4ull * i,
                         static_cast<std::int32_t>(
                             rng.nextBelow(256)) -
                             128);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t orig = base + 8;
        std::uint64_t sol = orig + 4ull * height * rows * cols;
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(orig),
                RuntimeValue::fromPointer(sol)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t orig = base + 8;
        std::uint64_t sol = orig + 4ull * height * rows * cols;
        std::int32_t c0 = mem.readI32(base);
        std::int32_t c1 = mem.readI32(base + 4);
        auto at = [&](unsigned i, unsigned j, unsigned k) {
            return mem.readI32(orig +
                               4ull * ((i * rows + j) * cols + k));
        };
        for (unsigned i = 1; i + 1 < height; ++i) {
            for (unsigned j = 1; j + 1 < rows; ++j) {
                for (unsigned k = 1; k + 1 < cols; ++k) {
                    std::int32_t sum = at(i + 1, j, k) +
                        at(i - 1, j, k) + at(i, j + 1, k) +
                        at(i, j - 1, k) + at(i, j, k + 1) +
                        at(i, j, k - 1);
                    std::int32_t expected =
                        c0 * at(i, j, k) + c1 * sum;
                    std::int32_t got = mem.readI32(
                        sol +
                        4ull * ((i * rows + j) * cols + k));
                    if (got != expected) {
                        std::ostringstream os;
                        os << "stencil3d mismatch at (" << i << ","
                           << j << "," << k << ")";
                        return os.str();
                    }
                }
            }
        }
        return "";
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        std::vector<opt::PassSpec> passes;
        if (unroll > 1)
            passes.push_back(opt::PassSpec::unroll("kk", unroll));
        passes.push_back(opt::PassSpec::balance());
        passes.push_back(opt::PassSpec::cleanup());
        return passes;
    }

  private:
    unsigned height, rows, cols, unroll;
};

} // namespace

std::unique_ptr<Kernel>
makeStencil2d(unsigned rows, unsigned cols, unsigned unroll)
{
    return std::make_unique<Stencil2dKernel>(rows, cols, unroll);
}

std::unique_ptr<Kernel>
makeStencil3d(unsigned height, unsigned rows, unsigned cols,
              unsigned unroll)
{
    return std::make_unique<Stencil3dKernel>(height, rows, cols,
                                             unroll);
}

} // namespace salam::kernels
