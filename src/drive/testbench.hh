/**
 * @file
 * Testbench: the single-accelerator system — scratchpad, interface,
 * optional interconnect, compute unit — wired once for the benches
 * (through runPoint()), the examples and the test fixtures.
 * PointConfig is what configures one run of it; configHash() derives
 * the run's identity from the configuration structs themselves.
 */

#ifndef SALAM_DRIVE_TESTBENCH_HH
#define SALAM_DRIVE_TESTBENCH_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/compute_unit.hh"
#include "core/device_config.hh"
#include "kernels/kernel.hh"
#include "mem/interconnect.hh"
#include "mem/scratchpad.hh"

namespace salam
{
class Simulation;
}

namespace salam::drive
{

/** Base address of the testbench scratchpad. */
constexpr std::uint64_t spmBase = 0x10000;

/** Base address of the testbench's memory-mapped registers. */
constexpr std::uint64_t mmrBase = 0x2000;

/** Memory configuration of the single-accelerator testbench. */
struct MemoryConfig
{
    unsigned spmReadPorts = 2;
    unsigned spmWritePorts = 2;
    unsigned spmLatency = 1;
    unsigned spmBanks = 1;

    /**
     * Insert a modeled interconnect between the accelerator's data
     * port and the SPM. Default false: the direct port bind (zero
     * fabric latency). When true, @ref interconnect selects the
     * fabric kind and its parameters.
     */
    bool useInterconnect = false;
    mem::InterconnectConfig interconnect;
};

/** Everything that configures one testbench run of a kernel. */
struct PointConfig
{
    core::DeviceConfig dev;
    MemoryConfig mem;

    /**
     * A point whose engine and scratchpad both serve @p ports reads
     * and @p ports writes per cycle, with request queues at least
     * that deep (and never below 16).
     */
    static PointConfig
    portMatched(unsigned ports)
    {
        PointConfig point;
        point.dev.readPortsPerCycle = ports;
        point.dev.writePortsPerCycle = ports;
        point.dev.readQueueSize = std::max(ports, 16u);
        point.dev.writeQueueSize = std::max(ports, 16u);
        point.mem.spmReadPorts = ports;
        point.mem.spmWritePorts = ports;
        return point;
    }
};

/**
 * Identity of running @p kernel under @p point: a hash over
 * Kernel::key() and the value of every field of @p point, nested
 * structs included. Structured bindings over each config struct make
 * a field added to one a build error until it is hashed. It is the
 * RunReport configHash a run records and the --resume /
 * findByConfigHash() memoization key; the simulation mode is not
 * part of it, so full and fast runs of a point hash alike.
 */
std::uint64_t configHash(const kernels::Kernel &kernel,
                         const PointConfig &point);

/** The testbench scratchpad sized for @p kernel's footprint. */
mem::ScratchpadConfig scratchpadFor(const kernels::Kernel &kernel,
                                    const MemoryConfig &memcfg);

/**
 * One accelerator wired into @p sim: scratchpad "spm", interface
 * "comm", optionally fabric "fabric", compute unit "acc".
 */
struct Testbench
{
    /**
     * @param fabric When non-null, route the accelerator's data port
     *        through an interconnect built from it (validated before
     *        the compute unit elaborates its CDFG); otherwise bind
     *        the port to the scratchpad directly.
     */
    Testbench(Simulation &sim, const ir::Function &fn,
              const core::DeviceConfig &dev,
              const mem::ScratchpadConfig &spm_cfg,
              const mem::InterconnectConfig *fabric = nullptr);

    mem::Scratchpad &spm;
    core::CommInterface &comm;
    core::ComputeUnit &cu;
};

} // namespace salam::drive

#endif // SALAM_DRIVE_TESTBENCH_HH
