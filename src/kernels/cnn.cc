/**
 * @file
 * CNN layer kernels (float): conv2d 3x3 valid, ReLU, max-pool 2x2.
 *
 * Used by the Sec. IV-E multi-accelerator scenarios. Each kernel can
 * address its input/output either as a normal array (private or
 * shared SPM) or as a fixed-address FIFO port (stream buffer); the
 * stream flags switch the addressing, nothing else — demonstrating
 * the decoupling of datapath from communication interface.
 *
 * conv2d layout: in[w*h], weights[9], out[(w-2)*(h-2)].
 * relu layout:   in[count], out[count].
 * maxpool:       in[w*h], rowbuf[2*w] (scratch), out[(w/2)*(h/2)].
 */

#include <algorithm>
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

/** Index helper: stream side uses the fixed port slot 0. */
Value *
portIndex(IRBuilder &b, bool stream, Value *idx)
{
    return stream ? static_cast<Value *>(b.constI64(0)) : idx;
}

class Conv2dKernel : public Kernel
{
  public:
    Conv2dKernel(unsigned w, unsigned h, bool stream_out)
        : w(w), h(h), streamOut(stream_out)
    {}

    std::string name() const override { return "conv2d"; }

    std::string
    key() const override
    {
        return formatKey({{"w", w}, {"h", h}, {"so", streamOut}});
    }

    unsigned outW() const { return w - 2; }

    unsigned outH() const { return h - 2; }

    std::uint64_t
    footprintBytes() const override
    {
        return 4ull * (w * h + 9 + outW() * outH());
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f32 = ctx.floatType();
        Function *fn = b.createFunction("conv2d", ctx.voidType());
        Argument *in = fn->addArgument(ctx.pointerTo(f32), "in");
        Argument *wts =
            fn->addArgument(ctx.pointerTo(f32), "weights");
        Argument *out = fn->addArgument(ctx.pointerTo(f32), "out");

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);
        std::vector<Value *> k;
        for (int i = 0; i < 9; ++i)
            k.push_back(
                b.load(b.gep(f32, wts, b.constI64(i)), "w"));

        OuterLoop lr(b, "r", 0, outH());
        Value *r_base = b.mul(
            lr.iv(), b.constI64(static_cast<std::int64_t>(w)),
            "r.base");
        Value *o_base = b.mul(
            lr.iv(),
            b.constI64(static_cast<std::int64_t>(outW())),
            "o.base");

        InnerLoop lc(b, "c", 0, outW());
        Value *acc = nullptr;
        for (int k1 = 0; k1 < 3; ++k1) {
            for (int k2 = 0; k2 < 3; ++k2) {
                Value *idx = b.add(
                    b.add(r_base, lc.iv(), "rc"),
                    b.constI64(k1 * static_cast<std::int64_t>(w) +
                               k2),
                    "idx");
                Value *v = b.load(b.gep(f32, in, idx, "p.v"), "v");
                Value *prod = b.fmul(
                    k[static_cast<std::size_t>(k1 * 3 + k2)], v,
                    "prod");
                acc = acc ? b.fadd(acc, prod, "acc") : prod;
            }
        }
        Value *o_idx = b.add(o_base, lc.iv(), "o.idx");
        b.store(acc, b.gep(f32, out,
                           portIndex(b, streamOut, o_idx),
                           "p.out"));
        lc.close();
        lr.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(97);
        for (unsigned i = 0; i < w * h; ++i) {
            mem.writeF32(base + 4ull * i,
                         static_cast<float>(rng.nextDouble()) -
                             0.5f);
        }
        std::uint64_t wts = base + 4ull * w * h;
        for (unsigned i = 0; i < 9; ++i) {
            mem.writeF32(wts + 4ull * i,
                         static_cast<float>(rng.nextDouble()) -
                             0.5f);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(base + 4ull * w * h),
                RuntimeValue::fromPointer(base + 4ull * w * h +
                                          36)};
    }

    /** Golden conv output for element (r, c). */
    float
    golden(ir::MemoryAccessor &mem, std::uint64_t base, unsigned r,
           unsigned c) const
    {
        std::uint64_t wts = base + 4ull * w * h;
        float acc = 0.0f;
        for (unsigned k1 = 0; k1 < 3; ++k1) {
            for (unsigned k2 = 0; k2 < 3; ++k2) {
                acc += mem.readF32(wts + 4ull * (k1 * 3 + k2)) *
                    mem.readF32(base +
                                4ull * ((r + k1) * w + c + k2));
            }
        }
        return acc;
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        if (streamOut)
            return ""; // outputs left in the stream; checked there
        std::uint64_t out = base + 4ull * w * h + 36;
        for (unsigned r = 0; r < outH(); ++r) {
            for (unsigned c = 0; c < outW(); ++c) {
                float got =
                    mem.readF32(out + 4ull * (r * outW() + c));
                float expected = golden(mem, base, r, c);
                if (std::abs(got - expected) > 1e-5f) {
                    std::ostringstream os;
                    os << "conv2d mismatch at (" << r << "," << c
                       << ")";
                    return os.str();
                }
            }
        }
        return "";
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        return {opt::PassSpec::unroll("c", 6),
                opt::PassSpec::balance(),
                opt::PassSpec::cleanup()};
    }

  private:
    unsigned w, h;
    bool streamOut;
};

class ReluKernel : public Kernel
{
  public:
    ReluKernel(unsigned count, bool stream_in, bool stream_out)
        : count(count), streamIn(stream_in), streamOut(stream_out)
    {}

    std::string name() const override { return "relu"; }

    std::string
    key() const override
    {
        return formatKey({{"c", count}, {"si", streamIn}, {"so", streamOut}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 8ull * count;
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f32 = ctx.floatType();
        Function *fn = b.createFunction("relu", ctx.voidType());
        Argument *in = fn->addArgument(ctx.pointerTo(f32), "in");
        Argument *out = fn->addArgument(ctx.pointerTo(f32), "out");

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);
        InnerLoop li(b, "i", 0, count);
        Value *v = b.load(b.gep(f32, in,
                                portIndex(b, streamIn, li.iv()),
                                "p.in"),
                          "v");
        Value *neg = b.fcmp(Predicate::OLT, v,
                            b.constFloat(0.0f), "neg");
        Value *r = b.select(neg, b.constFloat(0.0f), v, "r");
        b.store(r, b.gep(f32, out,
                         portIndex(b, streamOut, li.iv()),
                         "p.out"));
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(101);
        for (unsigned i = 0; i < count; ++i) {
            mem.writeF32(base + 4ull * i,
                         static_cast<float>(rng.nextDouble()) -
                             0.5f);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(base + 4ull * count)};
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        return {opt::PassSpec::unroll("i", 4),
                opt::PassSpec::cleanup()};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        if (streamIn || streamOut)
            return "";
        for (unsigned i = 0; i < count; ++i) {
            float in = mem.readF32(base + 4ull * i);
            float got = mem.readF32(base + 4ull * (count + i));
            float expected = in < 0.0f ? 0.0f : in;
            if (got != expected) {
                std::ostringstream os;
                os << "relu mismatch at " << i;
                return os.str();
            }
        }
        return "";
    }

  private:
    unsigned count;
    bool streamIn, streamOut;
};

class MaxPoolKernel : public Kernel
{
  public:
    MaxPoolKernel(unsigned w, unsigned h, bool stream_in,
                  bool stream_out)
        : w(w), h(h), streamIn(stream_in), streamOut(stream_out)
    {}

    std::string name() const override { return "maxpool"; }

    std::string
    key() const override
    {
        return formatKey(
            {{"w", w}, {"h", h}, {"si", streamIn}, {"so", streamOut}});
    }

    unsigned outW() const { return w / 2; }

    unsigned outH() const { return h / 2; }

    std::uint64_t
    footprintBytes() const override
    {
        return 4ull * (w * h + 2 * w + outW() * outH());
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f32 = ctx.floatType();
        Function *fn = b.createFunction("maxpool", ctx.voidType());
        Argument *in = fn->addArgument(ctx.pointerTo(f32), "in");
        Argument *rowbuf =
            fn->addArgument(ctx.pointerTo(f32), "rowbuf");
        Argument *out = fn->addArgument(ctx.pointerTo(f32), "out");
        auto ww = static_cast<std::int64_t>(w);

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        OuterLoop lr(b, "rowpair", 0, outH());

        // Stage 1: stage two input rows into the row buffer. When
        // the input is a stream this is the only way to get random
        // access for the 2x2 window.
        Value *in_base = b.mul(lr.iv(), b.constI64(2 * ww),
                               "in.base");
        InnerLoop lf(b, "fill", 0, 2 * static_cast<std::int64_t>(w));
        Value *src_idx = b.add(in_base, lf.iv(), "src.idx");
        Value *v = b.load(b.gep(f32, in,
                                portIndex(b, streamIn, src_idx),
                                "p.src"),
                          "v");
        b.store(v, b.gep(f32, rowbuf, lf.iv(), "p.buf"));
        lf.close();

        // Stage 2: pool 2x2 windows out of the row buffer.
        Value *o_base = b.mul(
            lr.iv(),
            b.constI64(static_cast<std::int64_t>(outW())),
            "o.base");
        InnerLoop lc(b, "pool", 0, outW());
        Value *c2 = b.mul(lc.iv(), b.constI64(2), "c2");
        Value *a = b.load(b.gep(f32, rowbuf, c2, "p.a"), "a");
        Value *bb = b.load(
            b.gep(f32, rowbuf, b.add(c2, b.constI64(1), "c2b"),
                  "p.b"),
            "bv");
        Value *c = b.load(
            b.gep(f32, rowbuf, b.add(c2, b.constI64(ww), "c2c"),
                  "p.c"),
            "cv");
        Value *d = b.load(
            b.gep(f32, rowbuf,
                  b.add(c2, b.constI64(ww + 1), "c2d"), "p.d"),
            "dv");
        Value *m1 = b.select(b.fcmp(Predicate::OGT, a, bb, "c.ab"),
                             a, bb, "m1");
        Value *m2 = b.select(b.fcmp(Predicate::OGT, c, d, "c.cd"),
                             c, d, "m2");
        Value *m = b.select(b.fcmp(Predicate::OGT, m1, m2, "c.m"),
                            m1, m2, "m");
        Value *o_idx = b.add(o_base, lc.iv(), "o.idx");
        b.store(m, b.gep(f32, out,
                         portIndex(b, streamOut, o_idx),
                         "p.out"));
        lc.close();
        lr.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(103);
        for (unsigned i = 0; i < w * h; ++i) {
            mem.writeF32(base + 4ull * i,
                         static_cast<float>(rng.nextDouble()) -
                             0.5f);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t rowbuf = base + 4ull * w * h;
        std::uint64_t out = rowbuf + 4ull * 2 * w;
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(rowbuf),
                RuntimeValue::fromPointer(out)};
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        return {opt::PassSpec::unroll("fill", 4),
                opt::PassSpec::unroll("pool", 3),
                opt::PassSpec::cleanup()};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        if (streamIn || streamOut)
            return "";
        std::uint64_t out = base + 4ull * w * h + 4ull * 2 * w;
        for (unsigned r = 0; r < outH(); ++r) {
            for (unsigned c = 0; c < outW(); ++c) {
                float expected = std::max(
                    {mem.readF32(base +
                                 4ull * (2 * r * w + 2 * c)),
                     mem.readF32(base +
                                 4ull * (2 * r * w + 2 * c + 1)),
                     mem.readF32(
                         base + 4ull * ((2 * r + 1) * w + 2 * c)),
                     mem.readF32(base +
                                 4ull * ((2 * r + 1) * w + 2 * c +
                                         1))});
                float got =
                    mem.readF32(out + 4ull * (r * outW() + c));
                if (got != expected) {
                    std::ostringstream os;
                    os << "maxpool mismatch at (" << r << "," << c
                       << ")";
                    return os.str();
                }
            }
        }
        return "";
    }

  private:
    unsigned w, h;
    bool streamIn, streamOut;
};

} // namespace

std::unique_ptr<Kernel>
makeConv2d(unsigned width, unsigned height, bool stream_out)
{
    return std::make_unique<Conv2dKernel>(width, height,
                                          stream_out);
}

std::unique_ptr<Kernel>
makeRelu(unsigned count, bool stream_in, bool stream_out)
{
    return std::make_unique<ReluKernel>(count, stream_in,
                                        stream_out);
}

std::unique_ptr<Kernel>
makeMaxPool(unsigned width, unsigned height, bool stream_in,
            bool stream_out)
{
    return std::make_unique<MaxPoolKernel>(width, height, stream_in,
                                           stream_out);
}

} // namespace salam::kernels
