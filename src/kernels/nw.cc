/**
 * @file
 * Needleman-Wunsch score-matrix fill (i32), MachSuite nw.
 *
 * The max-of-three selection maps to comparator + mux chains, the
 * operation mix the paper calls out for NW's power behaviour.
 *
 * Layout: seqA[len] i8, seqB[len] i8, M[(len+1)*(len+1)] i32.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

constexpr std::int32_t matchScore = 1;
constexpr std::int32_t mismatchScore = -1;
constexpr std::int32_t gapScore = -1;

class NwKernel : public Kernel
{
  public:
    explicit NwKernel(unsigned length) : len(length) {}

    std::string name() const override { return "nw"; }

    std::string
    key() const override
    {
        return formatKey({{"l", len}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 2ull * len + 4ull * (len + 1) * (len + 1);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *i32 = ctx.i32();
        const Type *i8 = ctx.i8();
        Function *fn = b.createFunction("nw", ctx.voidType());
        Argument *seqa = fn->addArgument(ctx.pointerTo(i8), "seqA");
        Argument *seqb = fn->addArgument(ctx.pointerTo(i8), "seqB");
        Argument *m = fn->addArgument(ctx.pointerTo(i32), "M");

        auto w = static_cast<std::int64_t>(len) + 1;

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        // Boundary rows/columns: M[0][j] = j * gap; M[i][0] = i*gap.
        InnerLoop lb(b, "border", 0, w);
        Value *gap_mul = b.mul(
            b.trunc(lb.iv(), i32, "bj32"),
            b.constInt(i32, static_cast<std::uint64_t>(gapScore)),
            "gap.mul");
        b.store(gap_mul, b.gep(i32, m, lb.iv(), "p.row0"));
        Value *col_idx = b.mul(lb.iv(), b.constI64(w), "col.idx");
        b.store(gap_mul, b.gep(i32, m, col_idx, "p.col0"));
        lb.close();

        OuterLoop li(b, "i", 1, w);
        Value *i_base = b.mul(li.iv(), b.constI64(w), "i.base");
        Value *im1_base = b.sub(i_base, b.constI64(w), "im1.base");
        Value *ca = b.load(
            b.gep(i8, seqa,
                  b.sub(li.iv(), b.constI64(1), "ia"), "p.ca"),
            "ca");

        InnerLoop lj(b, "j", 1, w);
        Value *cb = b.load(
            b.gep(i8, seqb,
                  b.sub(lj.iv(), b.constI64(1), "jb"), "p.cb"),
            "cb");
        Value *same = b.icmp(Predicate::EQ, ca, cb, "same");
        Value *subst = b.select(
            same, b.constInt(i32, static_cast<std::uint64_t>(
                                      matchScore)),
            b.constInt(i32, static_cast<std::uint64_t>(
                                mismatchScore)),
            "subst");

        Value *jm1 = b.sub(lj.iv(), b.constI64(1), "jm1");
        Value *diag = b.load(
            b.gep(i32, m, b.add(im1_base, jm1, "d.idx"), "p.d"),
            "diag");
        Value *up = b.load(
            b.gep(i32, m, b.add(im1_base, lj.iv(), "u.idx"),
                  "p.u"),
            "up");
        Value *left = b.load(
            b.gep(i32, m, b.add(i_base, jm1, "l.idx"), "p.l"),
            "left");

        Value *score_d = b.add(diag, subst, "score.d");
        Value *score_u = b.add(
            up, b.constInt(i32, static_cast<std::uint64_t>(
                                    gapScore)),
            "score.u");
        Value *score_l = b.add(
            left, b.constInt(i32, static_cast<std::uint64_t>(
                                      gapScore)),
            "score.l");
        Value *du = b.select(
            b.icmp(Predicate::SGT, score_d, score_u, "c.du"),
            score_d, score_u, "max.du");
        Value *best = b.select(
            b.icmp(Predicate::SGT, du, score_l, "c.dul"), du,
            score_l, "best");
        b.store(best, b.gep(i32, m,
                            b.add(i_base, lj.iv(), "o.idx"),
                            "p.o"));
        lj.close();
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(53);
        for (unsigned i = 0; i < len; ++i) {
            std::uint8_t a = static_cast<std::uint8_t>(
                'A' + rng.nextBelow(4));
            std::uint8_t bb = static_cast<std::uint8_t>(
                'A' + rng.nextBelow(4));
            mem.writeBytes(base + i, 1, &a);
            mem.writeBytes(base + len + i, 1, &bb);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(base + len),
                RuntimeValue::fromPointer(base + 2ull * len)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        unsigned w = len + 1;
        std::uint64_t mbase = base + 2ull * len;
        std::vector<std::int32_t> golden(w * w);
        for (unsigned j = 0; j < w; ++j)
            golden[j] = static_cast<std::int32_t>(j) * gapScore;
        for (unsigned i = 0; i < w; ++i)
            golden[i * w] = static_cast<std::int32_t>(i) * gapScore;
        for (unsigned i = 1; i < w; ++i) {
            std::uint8_t ca;
            mem.readBytes(base + i - 1, 1, &ca);
            for (unsigned j = 1; j < w; ++j) {
                std::uint8_t cb;
                mem.readBytes(base + len + j - 1, 1, &cb);
                std::int32_t subst =
                    (ca == cb) ? matchScore : mismatchScore;
                std::int32_t best = std::max(
                    {golden[(i - 1) * w + j - 1] + subst,
                     golden[(i - 1) * w + j] + gapScore,
                     golden[i * w + j - 1] + gapScore});
                golden[i * w + j] = best;
            }
        }
        for (unsigned i = 0; i < w * w; ++i) {
            std::int32_t got = mem.readI32(mbase + 4ull * i);
            if (got != golden[i]) {
                std::ostringstream os;
                os << "nw mismatch at " << i / w << "," << i % w
                   << ": got " << got << " expected " << golden[i];
                return os.str();
            }
        }
        return "";
    }

  private:
    unsigned len;
};

} // namespace

std::unique_ptr<Kernel>
makeNw(unsigned length)
{
    return std::make_unique<NwKernel>(length);
}

} // namespace salam::kernels
