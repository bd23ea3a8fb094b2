/** @file Test fixture: a single accelerator with a private SPM. */

#ifndef SALAM_TESTS_CORE_ACCEL_FIXTURE_HH
#define SALAM_TESTS_CORE_ACCEL_FIXTURE_HH

#include "drive/testbench.hh"
#include "ir/interpreter.hh"
#include "ir/ir_builder.hh"
#include "sim/simulation.hh"

namespace salam::test
{

/** Address map used across the core tests. */
constexpr std::uint64_t spmBase = 0x10000;
constexpr std::uint64_t spmSize = 256 * 1024;

/** A single accelerator + private SPM system. */
struct AccelSystem
{
    Simulation sim;
    drive::Testbench bench;

    AccelSystem(const ir::Function &fn,
                core::DeviceConfig dev = {},
                mem::ScratchpadConfig spm_cfg = defaultSpm())
        : bench(sim, fn, dev, spm_cfg)
    {}

    static mem::ScratchpadConfig
    defaultSpm()
    {
        mem::ScratchpadConfig cfg;
        cfg.range = mem::AddrRange{spmBase, spmBase + spmSize};
        cfg.latencyCycles = 1;
        cfg.readPorts = 4;
        cfg.writePorts = 4;
        return cfg;
    }

    /** Run the kernel to completion; returns cycle count. */
    std::uint64_t
    run(const std::vector<ir::RuntimeValue> &args)
    {
        bench.cu.start(args);
        sim.run();
        SALAM_ASSERT(bench.cu.finished());
        return bench.cu.cycleCount();
    }
};

} // namespace salam::test

#endif // SALAM_TESTS_CORE_ACCEL_FIXTURE_HH
