/**
 * @file
 * Kernel construction cost: makeKernel() allocates the kernel object
 * and nothing else, so building the MachSuite suite stays cheap. A
 * counting global operator new needs an executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "kernels/kernel.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
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

TEST(KernelAllocation, MakeKernelAllocatesOnlyTheKernel)
{
    std::vector<std::string> names;
    for (const auto &kernel : salam::kernels::machsuiteKernels())
        names.push_back(kernel->name());
    ASSERT_EQ(names.size(), 9u);
    for (const std::string &name : names) {
        const std::size_t before = allocations.load();
        auto kernel = salam::kernels::makeKernel(name);
        const std::size_t made = allocations.load() - before;
        ASSERT_NE(kernel, nullptr) << name;
        EXPECT_EQ(made, 1u) << name;
    }
}
