/**
 * @file
 * runPoint(): the run pipeline every bench shares. One call runs a
 * kernel on the Testbench — fault injection, watchdog, deadline,
 * fatal hook, interval stats, golden check, profile, trace, stats,
 * telemetry — and appends one RunReport/store record. In fast/auto
 * mode a point is re-scheduled from the kernel's cached trace (see
 * trace_replay.hh) and recorded through the same emitter.
 */

#ifndef SALAM_DRIVE_RUN_POINT_HH
#define SALAM_DRIVE_RUN_POINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/power_report.hh"
#include "core/runtime_engine.hh"
#include "drive/testbench.hh"
#include "inject/fault_injector.hh"
#include "obs/critical_path.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "sim/logging.hh"

namespace salam::drive
{

/**
 * What a run records and which run-time guards it arms. The default
 * set records nothing and arms nothing.
 */
struct Artifacts
{
    /** Chrome trace_event JSON path; the last run's trace wins. */
    std::string traceOut;

    /** RunReport JSONL path; one line appended per run. */
    std::string reportOut;

    /** StatRegistry::dumpJson path; the last run's stats win. */
    std::string statsOut;

    /**
     * Critical-path hotspot report path (JSON); folded stacks go to
     * "<path>.folded". Enables profiling; the last run wins.
     */
    std::string profileOut;

    /** Interval-stats period in engine cycles; 0 disables. */
    std::uint64_t statsInterval = 0;

    /** Fault specs from --inject, in "kind@site[:k=v]*" grammar. */
    std::vector<std::string> injectSpecs;

    /** Campaign seed resolving unspecified nth/bit fields. */
    std::uint64_t injectSeed = 1;

    /** Watchdog no-progress window in ticks; 0 disables. */
    Tick watchdogTicks = 0;

    /** Hang state-dump destination. */
    std::string dumpOut = "state_dump.json";

    /**
     * Host-telemetry output path: a run outside a sweep writes the
     * telemetry JSON of its thread's context here (last run wins).
     */
    std::string hostTelemetryOut;

    /**
     * Result store every run appends a queryable record to, or null.
     * Multi-writer safe, so sweeps may share it across workers.
     */
    obs::ResultStore *store = nullptr;

    /**
     * Simulation mode:
     *  - "full": every point is a complete event-driven simulation;
     *  - "fast": capture the kernel's dynamic trace once, then
     *    re-schedule it per point (trace-reuse fast path), falling
     *    back to full simulation with a warning when a point's
     *    configuration could change control flow;
     *  - "auto": like "fast" but falls back silently.
     */
    std::string simMode = "full";

    /** The producing program's name, stamped on store records. */
    std::string benchName;

    /** The invoking command line (argv joined with spaces). */
    std::string commandLine;

    /** Whether runs append RunReport records anywhere. */
    bool recordsRuns() const { return !reportOut.empty() || store; }

    /**
     * Whether a run writes last-run-wins files: trace, stats,
     * interval stats or profile. Only full simulation produces them.
     */
    bool
    writesRunFiles() const
    {
        return !traceOut.empty() || !statsOut.empty() ||
            !profileOut.empty() || statsInterval > 0;
    }
};

/** Everything an experiment wants to know about one run. */
struct RunResult
{
    std::uint64_t cycles = 0;
    core::EngineStats stats;
    core::AcceleratorReport report;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
    /** Wall-clock seconds: IR construction + optimization. */
    double compileSeconds = 0.0;
    /** Wall-clock seconds: timed simulation. */
    double simulateSeconds = 0.0;
    /** Critical-path analysis; empty unless profiling was on. */
    obs::CriticalPathReport profile;
    /**
     * How this run was produced: "full" (event-driven simulation),
     * "fast" (trace-reuse replay), or "full-fallback" (fast was
     * requested but a blocker forced full simulation).
     */
    std::string simMode = "full";

    double
    runtimeUs(const core::DeviceConfig &dev) const
    {
        return static_cast<double>(cycles) *
            static_cast<double>(dev.clockPeriod) / 1e6;
    }
};

/**
 * Run @p kernel under @p point in @p artifacts.simMode and write the
 * requested artifacts. fatal()s if the golden check fails — an
 * experiment over wrong results is meaningless.
 */
RunResult runPoint(const kernels::Kernel &kernel,
                   const PointConfig &point = {},
                   const Artifacts &artifacts = {});

/**
 * Append @p report, stamped with the command line, to the RunReport
 * file and the result store @p artifacts name. fatal()s when the
 * report file cannot be written, unless @p dying — the run is
 * already going down through fatal().
 */
void recordRun(const Artifacts &artifacts, obs::RunReport report,
               bool dying = false);

/**
 * Build the fault injector @p artifacts describes and attach it to
 * @p sim; nullptr when no faults were requested. The caller owns the
 * injector (it must outlive sim.run()).
 */
std::unique_ptr<inject::FaultInjector>
makeFaultInjector(Simulation &sim, const Artifacts &artifacts);

/** Print every fault that fired, for campaign replay comparison. */
void printInjectionLog(const inject::FaultInjector *injector);

/**
 * Graceful degradation for a run that dies through fatal() (wrong
 * results, watchdog, injected deadlock): flush the trace, the stats
 * and a run report carrying the fatal outcome, so a campaign still
 * gets machine-readable artifacts. The returned handle deregisters
 * the hook; @p sim and @p artifacts must outlive it.
 */
ScopedTerminationHook terminationHook(Simulation &sim,
                                      std::string run_name,
                                      const Artifacts &artifacts);

} // namespace salam::drive

#endif // SALAM_DRIVE_RUN_POINT_HH
