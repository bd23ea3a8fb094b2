/**
 * @file
 * GEMM n-cubed: prod = m1 * m2 over N x N doubles.
 *
 * The classic triple loop, with the reduction in the innermost
 * (unrollable) block — MachSuite gemm/ncubed.
 */

#include <cmath>
#include <sstream>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

class GemmKernel : public Kernel
{
  public:
    GemmKernel(unsigned n, unsigned unroll) : n(n), unroll(unroll) {}

    std::string name() const override { return "gemm"; }

    std::string
    key() const override
    {
        return formatKey({{"n", n}, {"u", unroll}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 3ull * n * n * 8;
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f64 = ctx.doubleType();
        Function *fn = b.createFunction("gemm", ctx.voidType());
        Argument *m1 = fn->addArgument(ctx.pointerTo(f64), "m1");
        Argument *m2 = fn->addArgument(ctx.pointerTo(f64), "m2");
        Argument *prod = fn->addArgument(ctx.pointerTo(f64),
                                         "prod");
        auto nn = static_cast<std::int64_t>(n);

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        OuterLoop li(b, "i", 0, nn);
        OuterLoop lj(b, "j", 0, nn);

        Value *i_base = b.mul(li.iv(), b.constI64(nn), "i.base");

        InnerLoop lk(b, "k", 0, nn);
        PhiInst *sum = lk.accumulator(f64, "sum");
        Value *m1_idx = b.add(i_base, lk.iv(), "m1.idx");
        Value *k_base = b.mul(lk.iv(), b.constI64(nn), "k.base");
        Value *m2_idx = b.add(k_base, lj.iv(), "m2.idx");
        Value *a = b.load(b.gep(f64, m1, m1_idx, "m1.p"), "a");
        Value *bv = b.load(b.gep(f64, m2, m2_idx, "m2.p"), "b");
        Value *mult = b.fmul(a, bv, "mult");
        Value *sum_next = b.fadd(sum, mult, "sum.next");
        lk.close({{sum, sum_next}}, {b.constDouble(0.0)});

        Value *p_idx = b.add(i_base, lj.iv(), "prod.idx");
        b.store(sum_next, b.gep(f64, prod, p_idx, "prod.p"));
        lj.close();
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(7);
        for (unsigned i = 0; i < n * n; ++i) {
            mem.writeF64(base + 8ull * i, rng.nextDouble() - 0.5);
            mem.writeF64(base + 8ull * (n * n + i),
                         rng.nextDouble() - 0.5);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(base + 8ull * n * n),
                RuntimeValue::fromPointer(base + 16ull * n * n)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t m1 = base;
        std::uint64_t m2 = base + 8ull * n * n;
        std::uint64_t prod = base + 16ull * n * n;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < n; ++j) {
                double expected = 0.0;
                for (unsigned k = 0; k < n; ++k) {
                    expected +=
                        mem.readF64(m1 + 8ull * (i * n + k)) *
                        mem.readF64(m2 + 8ull * (k * n + j));
                }
                double got = mem.readF64(prod + 8ull * (i * n + j));
                if (std::abs(got - expected) > 1e-9) {
                    std::ostringstream os;
                    os << "gemm mismatch at (" << i << "," << j
                       << "): got " << got << " expected "
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
        if (unroll > 1) {
            passes.push_back(opt::PassSpec::unroll("k", unroll));
            // HLS expression balancing turns the accumulation chain
            // into a reduction tree (unsafe-math, as Vivado does
            // when unrolling reductions).
            passes.push_back(opt::PassSpec::balance());
        }
        passes.push_back(opt::PassSpec::cleanup());
        return passes;
    }

  private:
    unsigned n;
    unsigned unroll;
};

} // namespace

std::unique_ptr<Kernel>
makeGemm(unsigned n, unsigned unroll)
{
    return std::make_unique<GemmKernel>(n, unroll);
}

} // namespace salam::kernels
