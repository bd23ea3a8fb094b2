/**
 * @file
 * Seeded random memory kernels shared by the engine property test
 * and the schedule pin: a counted loop over an i64 array whose body
 * mixes loads, arithmetic and stores, including read-modify-write
 * patterns that stress memory ordering.
 */

#ifndef SALAM_TESTS_CORE_RANDOM_KERNEL_HH
#define SALAM_TESTS_CORE_RANDOM_KERNEL_HH

#include <cstdint>
#include <vector>

#include "ir/interpreter.hh"
#include "ir/ir_builder.hh"

namespace salam::test
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed * 2 + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL +
            1442695040888963407ULL;
        return state >> 16;
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

constexpr unsigned slots = 64;

/**
 * Random kernel over an i64 array `data[slots]`: a counted loop
 * whose body mixes loads, arithmetic, and stores (including
 * read-modify-write patterns that stress memory ordering).
 */
inline ir::Function *
randomMemoryKernel(ir::IRBuilder &b, Rng &rng)
{
    ir::Context &ctx = b.context();
    ir::Function *fn = b.createFunction("memprop", ctx.voidType());
    ir::Argument *data =
        fn->addArgument(ctx.pointerTo(ctx.i64()), "data");

    ir::BasicBlock *entry = b.createBlock("entry");
    ir::BasicBlock *loop = b.createBlock("loop");
    ir::BasicBlock *exit = b.createBlock("exit");
    std::int64_t trips =
        8 + static_cast<std::int64_t>(rng.below(24));

    b.setInsertPoint(entry);
    b.br(loop);
    b.setInsertPoint(loop);
    ir::PhiInst *i = b.phi(ctx.i64(), "i");

    std::vector<ir::Value *> pool{i, b.constI64(7)};
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    auto slot_of = [&](ir::Value *v) {
        // Clamp an arbitrary value into [0, slots).
        return b.bAnd(v, b.constI64(slots - 1));
    };

    unsigned ops = 6 + static_cast<unsigned>(rng.below(10));
    for (unsigned k = 0; k < ops; ++k) {
        switch (rng.below(5)) {
          case 0: { // load
            ir::Value *addr =
                b.gep(ctx.i64(), data, slot_of(pick()));
            pool.push_back(b.load(addr));
            break;
          }
          case 1: { // store (possibly aliasing earlier accesses)
            ir::Value *addr =
                b.gep(ctx.i64(), data, slot_of(pick()));
            b.store(pick(), addr);
            break;
          }
          case 2:
            pool.push_back(b.add(pick(), pick()));
            break;
          case 3:
            pool.push_back(b.mul(pick(), pick()));
            break;
          default:
            pool.push_back(b.bXor(pick(), pick()));
            break;
        }
    }
    // One guaranteed store so the kernel is observable.
    b.store(pick(), b.gep(ctx.i64(), data, slot_of(pick())));

    ir::Value *inext = b.add(i, b.constI64(1), "i.next");
    ir::Value *cond = b.icmp(ir::Predicate::SLT, inext,
                         b.constI64(trips), "cond");
    b.condBr(cond, loop, exit);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);
    b.setInsertPoint(exit);
    b.ret();
    return fn;
}

inline void
seedData(ir::MemoryAccessor &mem, std::uint64_t base, Rng &rng)
{
    for (unsigned s = 0; s < slots; ++s) {
        mem.writeI64(base + 8ull * s,
                     static_cast<std::int64_t>(rng.next()));
    }
}


} // namespace salam::test

#endif // SALAM_TESTS_CORE_RANDOM_KERNEL_HH
