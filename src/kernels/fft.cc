/**
 * @file
 * FFT strided: in-place radix-2 over `size` doubles (MachSuite
 * fft/strided), with precomputed twiddle factors.
 *
 * Layout from base:
 *   real[size]       double
 *   img[size]        double
 *   real_twid[size/2] double
 *   img_twid[size/2]  double
 */

#include <cmath>
#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"
#include "sim/logging.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

class FftKernel : public Kernel
{
  public:
    explicit FftKernel(unsigned size) : size(size)
    {
        SALAM_ASSERT(size >= 4 && (size & (size - 1)) == 0);
    }

    std::string name() const override { return "fft-strided"; }

    std::string
    key() const override
    {
        return formatKey({{"s", size}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 8ull * (2 * size + size);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f64 = ctx.doubleType();
        const Type *i64 = ctx.i64();
        Function *fn = b.createFunction("fft", ctx.voidType());
        Argument *real = fn->addArgument(ctx.pointerTo(f64), "real");
        Argument *img = fn->addArgument(ctx.pointerTo(f64), "img");
        Argument *rtw =
            fn->addArgument(ctx.pointerTo(f64), "real_twid");
        Argument *itw =
            fn->addArgument(ctx.pointerTo(f64), "img_twid");
        auto nn = static_cast<std::int64_t>(size);

        BasicBlock *entry = b.createBlock("entry");
        BasicBlock *span_head = b.createBlock("span");
        BasicBlock *odd_head = b.createBlock("odd");
        BasicBlock *twiddle = b.createBlock("twiddle");
        BasicBlock *odd_latch = b.createBlock("odd.latch");
        BasicBlock *span_latch = b.createBlock("span.latch");
        BasicBlock *exit = b.createBlock("exit");

        b.setInsertPoint(entry);
        b.br(span_head);

        // for (span = size >> 1; span; span >>= 1, log++)
        b.setInsertPoint(span_head);
        PhiInst *span = b.phi(i64, "span.iv");
        PhiInst *log = b.phi(i64, "log.iv");
        b.br(odd_head);

        // for (odd = span; odd < size; odd++) { odd |= span; ... }
        b.setInsertPoint(odd_head);
        PhiInst *odd_in = b.phi(i64, "odd.in");
        Value *odd = b.bOr(odd_in, span, "odd");
        Value *even = b.bXor(odd, span, "even");

        Value *p_re = b.gep(f64, real, even, "p.re");
        Value *p_ro = b.gep(f64, real, odd, "p.ro");
        Value *p_ie = b.gep(f64, img, even, "p.ie");
        Value *p_io = b.gep(f64, img, odd, "p.io");
        Value *re = b.load(p_re, "re");
        Value *ro = b.load(p_ro, "ro");
        Value *ie = b.load(p_ie, "ie");
        Value *io = b.load(p_io, "io");

        Value *tr = b.fadd(re, ro, "t.r");
        Value *nro = b.fsub(re, ro, "n.ro");
        b.store(nro, p_ro);
        b.store(tr, p_re);
        Value *ti = b.fadd(ie, io, "t.i");
        Value *nio = b.fsub(ie, io, "n.io");
        b.store(nio, p_io);
        b.store(ti, p_ie);

        // rootindex = (even << log) & (size - 1)
        Value *root = b.bAnd(b.shl(even, log, "ev.shift"),
                             b.constI64(nn - 1), "rootindex");
        Value *has_root = b.icmp(Predicate::NE, root,
                                 b.constI64(0), "has.root");
        b.condBr(has_root, twiddle, odd_latch);

        b.setInsertPoint(twiddle);
        Value *twr = b.load(b.gep(f64, rtw, root, "p.twr"), "twr");
        Value *twi = b.load(b.gep(f64, itw, root, "p.twi"), "twi");
        // Reload the butterfly results (they were just stored).
        Value *cur_ro = b.load(p_ro, "cur.ro");
        Value *cur_io = b.load(p_io, "cur.io");
        Value *new_ro = b.fsub(b.fmul(twr, cur_ro, "a1"),
                               b.fmul(twi, cur_io, "a2"), "new.ro");
        Value *new_io = b.fadd(b.fmul(twr, cur_io, "a3"),
                               b.fmul(twi, cur_ro, "a4"), "new.io");
        b.store(new_io, p_io);
        b.store(new_ro, p_ro);
        b.br(odd_latch);

        b.setInsertPoint(odd_latch);
        Value *odd_next = b.add(odd, b.constI64(1), "odd.next");
        Value *odd_cont = b.icmp(Predicate::SLT, odd_next,
                                 b.constI64(nn), "odd.cont");
        b.condBr(odd_cont, odd_head, span_latch);
        odd_in->addIncoming(span, span_head);
        odd_in->addIncoming(odd_next, odd_latch);

        b.setInsertPoint(span_latch);
        Value *span_next =
            b.lshr(span, b.constI64(1), "span.next");
        Value *log_next = b.add(log, b.constI64(1), "log.next");
        Value *span_cont = b.icmp(Predicate::SGT, span_next,
                                  b.constI64(0), "span.cont");
        b.condBr(span_cont, span_head, exit);
        span->addIncoming(b.constI64(nn >> 1), entry);
        span->addIncoming(span_next, span_latch);
        log->addIncoming(b.constI64(0), entry);
        log->addIncoming(log_next, span_latch);

        b.setInsertPoint(exit);
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(23);
        std::uint64_t real = base;
        std::uint64_t img = base + 8ull * size;
        std::uint64_t rtw = img + 8ull * size;
        std::uint64_t itw = rtw + 8ull * (size / 2);
        for (unsigned i = 0; i < size; ++i) {
            mem.writeF64(real + 8ull * i, rng.nextDouble() - 0.5);
            mem.writeF64(img + 8ull * i, rng.nextDouble() - 0.5);
        }
        for (unsigned i = 0; i < size / 2; ++i) {
            double angle = -2.0 * M_PI * static_cast<double>(i) /
                static_cast<double>(size);
            mem.writeF64(rtw + 8ull * i, std::cos(angle));
            mem.writeF64(itw + 8ull * i, std::sin(angle));
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t real = base;
        std::uint64_t img = base + 8ull * size;
        std::uint64_t rtw = img + 8ull * size;
        std::uint64_t itw = rtw + 8ull * (size / 2);
        return {RuntimeValue::fromPointer(real),
                RuntimeValue::fromPointer(img),
                RuntimeValue::fromPointer(rtw),
                RuntimeValue::fromPointer(itw)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        // Golden: re-run the same strided algorithm on a copy of
        // the ORIGINAL inputs. Since the kernel is in-place, we
        // reconstruct the inputs from the seed (deterministic).
        std::vector<double> re(size), im(size), twr(size / 2),
            twi(size / 2);
        Lcg rng(23);
        for (unsigned i = 0; i < size; ++i) {
            re[i] = rng.nextDouble() - 0.5;
            im[i] = rng.nextDouble() - 0.5;
        }
        for (unsigned i = 0; i < size / 2; ++i) {
            double angle = -2.0 * M_PI * static_cast<double>(i) /
                static_cast<double>(size);
            twr[i] = std::cos(angle);
            twi[i] = std::sin(angle);
        }

        unsigned log = 0;
        for (unsigned span = size >> 1; span; span >>= 1, ++log) {
            for (unsigned odd = span; odd < size; ++odd) {
                odd |= span;
                unsigned even = odd ^ span;
                double temp = re[even] + re[odd];
                re[odd] = re[even] - re[odd];
                re[even] = temp;
                temp = im[even] + im[odd];
                im[odd] = im[even] - im[odd];
                im[even] = temp;
                unsigned root = (even << log) & (size - 1);
                if (root) {
                    temp = twr[root] * re[odd] -
                        twi[root] * im[odd];
                    im[odd] = twr[root] * im[odd] +
                        twi[root] * re[odd];
                    re[odd] = temp;
                }
            }
        }

        for (unsigned i = 0; i < size; ++i) {
            double got_re = mem.readF64(base + 8ull * i);
            double got_im = mem.readF64(base + 8ull * (size + i));
            if (std::abs(got_re - re[i]) > 1e-9 ||
                std::abs(got_im - im[i]) > 1e-9) {
                std::ostringstream os;
                os << "fft mismatch at " << i << ": got ("
                   << got_re << "," << got_im << ") expected ("
                   << re[i] << "," << im[i] << ")";
                return os.str();
            }
        }
        return "";
    }

  private:
    unsigned size;
};

} // namespace

std::unique_ptr<Kernel>
makeFft(unsigned size)
{
    return std::make_unique<FftKernel>(size);
}

} // namespace salam::kernels
