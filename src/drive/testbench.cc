#include "drive/testbench.hh"

#include <array>
#include <bit>

#include "obs/run_report.hh"
#include "sim/simulation.hh"

namespace salam::drive
{

namespace
{

/** The interface, bound to the SPM directly or via the fabric. */
core::CommInterface &
wireComm(Simulation &sim, Tick clock, mem::Scratchpad &spm,
         const mem::AddrRange &range,
         const mem::InterconnectConfig *fabric)
{
    core::CommInterfaceConfig ccfg;
    ccfg.mmrRange = mem::AddrRange{mmrBase, mmrBase + 256};
    ccfg.dataPorts.push_back({"spm", {range}});
    auto &comm = sim.create<core::CommInterface>("comm", clock, ccfg);
    if (fabric != nullptr) {
        mem::Interconnect &ic =
            mem::makeInterconnect(sim, "fabric", clock, *fabric);
        ic.connectDevice(spm.port(0), range);
        mem::bindPorts(comm.dataPort(0), ic.addRequester("acc.data"));
    } else {
        mem::bindPorts(comm.dataPort(0), spm.port(0));
    }
    return comm;
}

/** FNV-1a over the object bytes of each value added, in order. */
struct ValueHash
{
    std::uint64_t value = 0xcbf29ce484222325ull;

    template <typename... Ts>
    void
    add(const Ts &...fields)
    {
        (addBytes(std::bit_cast<std::array<unsigned char, sizeof(Ts)>>(
             fields)),
         ...);
    }

    template <std::size_t N>
    void
    addBytes(const std::array<unsigned char, N> &bytes)
    {
        for (unsigned char byte : bytes)
            value = (value ^ byte) * 0x100000001b3ull;
    }
};

} // namespace

std::uint64_t
configHash(const kernels::Kernel &kernel, const PointConfig &point)
{
    // A field added to any of these structs changes the size of its
    // binding, which then stops compiling until the field is hashed.
    const auto &[dev, memcfg] = point;
    const auto &[clock, fu_limits, profile, rq_size, block_seq,
                 read_queue, write_queue, read_ports, write_ports] = dev;
    const auto &[spm_read_ports, spm_write_ports, spm_latency, spm_banks,
                 use_ic, ic] = memcfg;
    const auto &[kind, forward, response, per_cycle, bus_width,
                 credits] = ic;
    // HardwareProfile keeps its FU table and register model private.
    static_assert(sizeof(hw::HardwareProfile) ==
                      hw::numFuTypes * sizeof(hw::FuParams) +
                          sizeof(hw::RegisterParams),
                  "new HardwareProfile member: hash it here");

    ValueHash h;
    h.add(obs::fnv1aHash(kernel.key()));
    h.add(clock, rq_size, block_seq, read_queue, write_queue, read_ports,
          write_ports);
    for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
        const auto &[latency, ii, leakage, energy, area] =
            profile.fu(static_cast<hw::FuType>(t));
        h.add(fu_limits[t], latency, ii, leakage, energy, area);
    }
    const auto &[reg_leakage, reg_read, reg_write, reg_area] =
        profile.registers();
    h.add(reg_leakage, reg_read, reg_write, reg_area);
    h.add(spm_read_ports, spm_write_ports, spm_latency, spm_banks, use_ic);
    h.add(kind, forward, response, per_cycle, bus_width, credits);
    return h.value;
}

mem::ScratchpadConfig
scratchpadFor(const kernels::Kernel &kernel, const MemoryConfig &memcfg)
{
    std::uint64_t bytes =
        ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{spmBase, spmBase + bytes};
    scfg.latencyCycles = memcfg.spmLatency;
    scfg.readPorts = memcfg.spmReadPorts;
    scfg.writePorts = memcfg.spmWritePorts;
    scfg.banks = memcfg.spmBanks;
    return scfg;
}

Testbench::Testbench(Simulation &sim, const ir::Function &fn,
                     const core::DeviceConfig &dev,
                     const mem::ScratchpadConfig &spm_cfg,
                     const mem::InterconnectConfig *fabric)
    : spm(sim.create<mem::Scratchpad>("spm", dev.clockPeriod, spm_cfg)),
      comm(wireComm(sim, dev.clockPeriod, spm, spm_cfg.range, fabric)),
      cu(sim.create<core::ComputeUnit>("acc", fn, dev, comm))
{}

} // namespace salam::drive
