/**
 * @file
 * Steady-state allocation cost of full simulation: once a kernel has
 * started, the engine, the communications interface and the
 * scratchpad run out of recycled storage, so heap allocations per
 * dynamic instruction stay far below one. A counting global operator
 * new needs an executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "accel_fixture.hh"
#include "kernels/kernel.hh"
#include "mem/backdoor.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    size = size == 0 ? 1 : size;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(size)
        : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

TEST(EngineAllocation, GemmRunsAllocationFree)
{
    using namespace salam;
    auto kernel = kernels::makeKernel("gemm");
    ASSERT_NE(kernel, nullptr);
    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);
    test::AccelSystem sys(*fn);
    mem::ScratchpadBackdoor backdoor(sys.bench.spm);
    kernel->seed(backdoor, test::spmBase);
    const std::vector<ir::RuntimeValue> args =
        kernel->args(test::spmBase);

    const std::size_t before = allocations.load();
    sys.bench.cu.start(args);
    sys.sim.run();
    const std::size_t made = allocations.load() - before;

    ASSERT_TRUE(sys.bench.cu.finished());
    EXPECT_EQ(kernel->check(backdoor, test::spmBase), "");
    const std::uint64_t insts = sys.bench.cu.stats().dynamicInstructions;
    ASSERT_GT(insts, 100000u);
    const double per_inst =
        static_cast<double>(made) / static_cast<double>(insts);
    EXPECT_LT(per_inst, 0.01)
        << made << " heap allocations over " << insts
        << " dynamic instructions";
}
