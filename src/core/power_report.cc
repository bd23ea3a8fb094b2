#include "power_report.hh"

#include "sim/logging.hh"

namespace salam::core
{

AcceleratorReport
buildReport(const ComputeUnit &cu, const mem::Scratchpad *private_spm)
{
    SpmUsage usage;
    if (private_spm != nullptr) {
        usage = SpmUsage::of(private_spm->config(),
                             private_spm->readCount(),
                             private_spm->writeCount());
    }
    return buildReport(cu.cdfg(), cu.deviceConfig(), cu.stats(),
                       private_spm != nullptr ? &usage : nullptr);
}

AcceleratorReport
buildReport(const StaticCdfg &cdfg, const DeviceConfig &cfg,
            const EngineStats &stats, const SpmUsage *spm)
{
    AcceleratorReport report;
    report.cycles = stats.totalCycles;
    report.runtimeNs = static_cast<double>(stats.totalCycles) *
        static_cast<double>(cfg.clockPeriod) / 1000.0;
    if (report.runtimeNs <= 0.0) {
        warn("power report requested before execution finished");
        report.runtimeNs = 1.0;
    }

    // Dynamic power: accumulated energy (pJ) over runtime (ns) is
    // directly milliwatts.
    report.power.dynamicFuMw = stats.fuEnergyPj / report.runtimeNs;
    report.power.dynamicRegisterMw =
        (stats.registerReadEnergyPj + stats.registerWriteEnergyPj) /
        report.runtimeNs;

    // Static power and datapath area from elaboration.
    report.power.staticFuMw = cdfg.staticFuPowerMw();
    report.power.staticRegisterMw = cdfg.staticRegisterPowerMw();
    report.area = cdfg.area();

    if (spm != nullptr) {
        hw::SramConfig sram;
        sram.sizeBytes = spm->sizeBytes;
        sram.wordBytes = spm->wordBytes;
        sram.ports = std::max(spm->readPorts, spm->writePorts);
        sram.banks = spm->banks;
        hw::SramMetrics metrics = hw::CactiLite::evaluate(sram);

        report.power.dynamicSpmReadMw =
            static_cast<double>(spm->reads) * metrics.readEnergyPj /
            report.runtimeNs;
        report.power.dynamicSpmWriteMw =
            static_cast<double>(spm->writes) *
            metrics.writeEnergyPj / report.runtimeNs;
        report.power.staticSpmMw = metrics.leakagePowerMw;
        report.area.spmUm2 = metrics.areaUm2;
    }
    return report;
}

double
accumulatedDynamicEnergyPj(const ComputeUnit &cu,
                           const mem::Scratchpad *private_spm)
{
    const EngineStats &stats = cu.stats();
    double pj = stats.fuEnergyPj + stats.registerReadEnergyPj +
        stats.registerWriteEnergyPj;
    if (private_spm != nullptr) {
        const mem::ScratchpadConfig &scfg = private_spm->config();
        hw::SramConfig sram;
        sram.sizeBytes = scfg.range.size();
        sram.wordBytes = scfg.wordBytes;
        sram.ports = std::max(scfg.readPorts, scfg.writePorts);
        sram.banks = scfg.banks;
        hw::SramMetrics metrics = hw::CactiLite::evaluate(sram);
        pj += static_cast<double>(private_spm->readCount()) *
            metrics.readEnergyPj;
        pj += static_cast<double>(private_spm->writeCount()) *
            metrics.writeEnergyPj;
    }
    return pj;
}

} // namespace salam::core
