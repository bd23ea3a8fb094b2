/**
 * @file
 * Power/area report generation (Sec. III-C metrics estimation).
 *
 * Combines the static CDFG (leakage, area), the runtime engine's
 * per-cycle energy accounting (dynamic FU and register power), and
 * CactiLite scratchpad models driven by SPM usage statistics, into
 * the Fig. 4-style breakdown.
 */

#ifndef SALAM_CORE_POWER_REPORT_HH
#define SALAM_CORE_POWER_REPORT_HH

#include "compute_unit.hh"
#include "hw/cacti_lite.hh"
#include "hw/power_model.hh"
#include "mem/scratchpad.hh"

namespace salam::core
{

/** Full power/area accounting for one accelerator. */
struct AcceleratorReport
{
    hw::PowerBreakdown power;
    hw::AreaBreakdown area;
    std::uint64_t cycles = 0;
    double runtimeNs = 0.0;
};

/**
 * Build the report for @p cu.
 *
 * @param cu The finished compute unit.
 * @param private_spm Optional private scratchpad whose power/area is
 *        attributed to this accelerator (nullptr when using caches
 *        or shared memory only).
 */
AcceleratorReport
buildReport(const ComputeUnit &cu,
            const mem::Scratchpad *private_spm = nullptr);

/**
 * SPM usage summary for the SimObject-free overload below: the same
 * facts buildReport(cu, spm) reads off a live Scratchpad, supplied
 * directly — how a trace replay (which builds no SimObjects) scores
 * its scratchpad.
 */
struct SpmUsage
{
    std::uint64_t sizeBytes = 0;
    unsigned wordBytes = 4;
    unsigned readPorts = 1;
    unsigned writePorts = 1;
    unsigned banks = 1;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** A scratchpad configured by @p cfg that served these accesses. */
    static SpmUsage
    of(const mem::ScratchpadConfig &cfg, std::uint64_t reads,
       std::uint64_t writes)
    {
        return {cfg.range.size(), cfg.wordBytes, cfg.readPorts,
                cfg.writePorts,   cfg.banks,     reads,
                writes};
    }
};

/**
 * Build the report from raw ingredients — identical arithmetic to
 * buildReport(cu, spm), without a ComputeUnit or Scratchpad. Used by
 * the trace-reuse fast path, whose replays produce EngineStats
 * without elaborating a simulation.
 */
AcceleratorReport
buildReport(const StaticCdfg &cdfg, const DeviceConfig &cfg,
            const EngineStats &stats,
            const SpmUsage *spm = nullptr);

/**
 * Accumulated dynamic energy (pJ) of @p cu so far: functional-unit
 * and register activity, plus SPM access energy when a private
 * scratchpad is attached. Monotonically non-decreasing over a run,
 * and readable mid-run — the IntervalStats energy probe
 * differentiates it into per-interval dynamic power.
 */
double
accumulatedDynamicEnergyPj(const ComputeUnit &cu,
                           const mem::Scratchpad *private_spm =
                               nullptr);

} // namespace salam::core

#endif // SALAM_CORE_POWER_REPORT_HH
