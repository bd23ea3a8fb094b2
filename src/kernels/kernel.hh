/**
 * @file
 * Kernel: the benchmark-kernel abstraction.
 *
 * Each MachSuite (and CNN) kernel knows how to build its IR through
 * the IRBuilder (standing in for clang), lay out and seed its data
 * relative to a base address, produce its argument values, and check
 * outputs against a golden C++ reference. All benches, tests, and
 * examples consume kernels through this interface, so the same
 * kernel definition drives the SALAM engine, the HLS surrogate, the
 * trace-based baseline, and functional validation.
 */

#ifndef SALAM_KERNELS_KERNEL_HH
#define SALAM_KERNELS_KERNEL_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/interpreter.hh"
#include "ir/ir_builder.hh"
#include "opt/pass_manager.hh"

namespace salam::kernels
{

/** Deterministic LCG for dataset generation (no libc rand). */
class Lcg
{
  public:
    explicit Lcg(std::uint64_t seed = 0x5ALL) : state(seed * 2 + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL +
            1442695040888963407ULL;
        return state >> 16;
    }

    /** Uniform integer in [0, bound). */
    std::uint64_t nextBelow(std::uint64_t bound)
    { return next() % bound; }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() & 0xFFFFFFFFFFFFULL) /
            static_cast<double>(1ULL << 48);
    }

  private:
    std::uint64_t state;
};

/** One benchmark kernel. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Short label tables and stores print, e.g. "gemm". */
    virtual std::string name() const = 0;

    /**
     * Identity of this kernel variant: name() plus every parameter
     * that changes the IR or the seeded input, e.g. "gemm/n32u8".
     * Kernels with equal keys build identical IR and seed identical
     * data, so configuration hashes and the trace cache key on it.
     * Formatted per call, so constructing a kernel stays one
     * allocation.
     */
    virtual std::string key() const = 0;

    /** Build the kernel function (clang stand-in). */
    virtual ir::Function *build(ir::IRBuilder &builder) const = 0;

    /** Bytes of memory the kernel touches, from the base address. */
    virtual std::uint64_t footprintBytes() const = 0;

    /** Write the input dataset at @p base. */
    virtual void seed(ir::MemoryAccessor &mem,
                      std::uint64_t base) const = 0;

    /** Argument values for a data layout rooted at @p base. */
    virtual std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const = 0;

    /**
     * Verify outputs against the golden reference.
     * @return empty string when correct; else a diagnostic.
     */
    virtual std::string check(ir::MemoryAccessor &mem,
                              std::uint64_t base) const = 0;

    /**
     * The optimization pipeline the paper's configuration applies
     * (unrolling tuned to match HLS ILP). Default: cleanup only.
     */
    virtual std::vector<opt::PassSpec>
    defaultPasses() const
    {
        return {opt::PassSpec::cleanup()};
    }

    /**
     * Convenience: build into @p module and run defaultPasses().
     */
    ir::Function *
    buildOptimized(ir::IRBuilder &builder) const
    {
        ir::Function *fn = build(builder);
        opt::PassManager::run(*fn, defaultPasses());
        return fn;
    }

  protected:
    /** key() from @p params, (tag, value) pairs in key order. */
    std::string
    formatKey(std::initializer_list<std::pair<const char *, unsigned>>
                  params) const
    {
        std::string key = name() + "/";
        for (const auto &[tag, value] : params)
            key += tag + std::to_string(value);
        return key;
    }
};

/** All MachSuite kernels at their default configurations. */
std::vector<std::unique_ptr<Kernel>> machsuiteKernels();

/** Look up one MachSuite kernel by name; nullptr when unknown. */
std::unique_ptr<Kernel> makeKernel(const std::string &name);

} // namespace salam::kernels

#endif // SALAM_KERNELS_KERNEL_HH
