#include "drive/run_point.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "core/static_cdfg.hh"
#include "drive/trace_replay.hh"
#include "inject/progress_sentinel.hh"
#include "mem/backdoor.hh"
#include "obs/debug_flags.hh"
#include "obs/host_telemetry.hh"
#include "obs/interval_stats.hh"
#include "sim/simulation.hh"

namespace salam::drive
{

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * Write the trace and stats files @p art asks for. The user asked
 * for them, so failing to produce one is fatal — unless @p dying,
 * when the run is already going down through fatal().
 */
void
writeTraceAndStats(Simulation &sim, const Artifacts &art, bool dying)
{
    obs::TraceSink *sink = sim.traceSink();
    if (!art.traceOut.empty() && sink != nullptr &&
        !sink->writeChromeTraceFile(art.traceOut) && !dying)
        fatal("could not write trace to '%s'", art.traceOut.c_str());
    if (art.statsOut.empty())
        return;
    std::ofstream os(art.statsOut);
    if (os)
        sim.stats().dumpJson(os);
    else if (!dying)
        fatal("could not write stats to '%s'", art.statsOut.c_str());
}

/**
 * The one RunReport/store emitter for full and fast runs: the
 * identity and headline fields every record shares, then @p report's
 * mode-specific extras. Appends a profile record when @p profile is
 * given.
 */
void
emitRun(const Artifacts &art, const kernels::Kernel &kernel,
        const PointConfig &point, const RunResult &run,
        obs::RunReport report,
        const obs::CriticalPathReport *profile = nullptr)
{
    report.run = kernel.name();
    // Also the store's memoization key: findByConfigHash() and
    // --resume answer "has this exact configuration already run?".
    report.configHash = configHash(kernel, point);
    report.cycles = run.cycles;
    report.simSeconds = run.simulateSeconds;
    report.compileSeconds = run.compileSeconds;
    report.extra.insert(
        report.extra.begin(),
        {
            {"spm_reads", static_cast<double>(run.spmReads)},
            {"spm_writes", static_cast<double>(run.spmWrites)},
            {"stall_cycles", static_cast<double>(run.stats.stallCycles)},
            {"dynamic_insts",
             static_cast<double>(run.stats.dynamicInstructions)},
            // Lets salam-query regress compute ticks/sec from a
            // record alone, whatever clock this point used.
            {"clock_period_ticks",
             static_cast<double>(point.dev.clockPeriod)},
        });
    const std::uint64_t hash = report.configHash;
    recordRun(art, std::move(report));
    if (profile != nullptr && art.store != nullptr) {
        std::ostringstream prof;
        profile->writeJson(prof);
        obs::StoreRecord rec;
        rec.kind = "profile";
        rec.bench = art.benchName;
        rec.kernel = kernel.name();
        rec.configHash = hash;
        rec.json = prof.str();
        art.store->append(std::move(rec));
    }
}

/**
 * Full event-driven simulation of one point on the Testbench. When
 * @p capture is non-null the run records its dynamic trace there.
 */
RunResult
simulate(const kernels::Kernel &kernel, const PointConfig &point,
         const Artifacts &art, core::DynTrace *capture = nullptr)
{
    RunResult out;
    const core::DeviceConfig &dev = point.dev;

    // Host telemetry (if attached to this thread's context) spans
    // the whole run: everything from IR build to the first event is
    // elaboration; sim.run() self-attributes via the event queue.
    obs::HostTelemetry *tel = SimContext::current().hostTelemetry();
    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::Elaboration);

    auto t0 = Clock::now();
    ir::Module mod("bench");
    ir::IRBuilder builder(mod);
    ir::Function *fn = kernel.buildOptimized(builder);
    auto t1 = Clock::now();

    Simulation sim;
    std::unique_ptr<inject::FaultInjector> injector =
        makeFaultInjector(sim, art);
    ScopedTerminationHook flush_on_fatal =
        terminationHook(sim, kernel.name(), art);
    // A sweep may ask one representative point to capture its
    // simulated-time trace for the host-telemetry Chrome dump. An
    // internal trace capture is nobody's representative point.
    if (capture == nullptr) {
        if (!art.traceOut.empty() ||
            (tel != nullptr && tel->wantSimTraceCapture()))
            sim.enableTracing();
        if (!art.profileOut.empty() || obs::flag::Profile.enabled())
            sim.enableProfiling();
    }

    Testbench tb(sim, *fn, dev, scratchpadFor(kernel, point.mem),
                 point.mem.useInterconnect ? &point.mem.interconnect
                                           : nullptr);
    core::ComputeUnit &cu = tb.cu;
    if (capture != nullptr)
        cu.enableTraceCapture(capture);

    mem::ScratchpadBackdoor backdoor(tb.spm);
    kernel.seed(backdoor, spmBase);

    std::unique_ptr<obs::IntervalStats> intervals;
    if (art.statsInterval > 0) {
        obs::IntervalStats::Config icfg;
        icfg.intervalTicks =
            art.statsInterval * static_cast<Tick>(dev.clockPeriod);
        icfg.path = art.statsOut.empty()
            ? std::string("stats.intervals.jsonl")
            : art.statsOut + ".intervals.jsonl";
        icfg.active = [&cu] { return !cu.finished(); };
        intervals = std::make_unique<obs::IntervalStats>(
            sim.eventQueue(), sim.stats(), icfg);
        intervals->setEnergyProbe([&cu, &tb] {
            return core::accumulatedDynamicEnergyPj(cu, &tb.spm);
        });
        intervals->start();
    }

    if (art.watchdogTicks > 0) {
        inject::ProgressSentinel::Config cfg;
        cfg.windowTicks = art.watchdogTicks;
        cfg.dumpPath = art.dumpOut;
        cfg.done = [&cu] { return cu.finished(); };
        sim.create<inject::ProgressSentinel>("watchdog", std::move(cfg))
            .start();
    }

    // Per-point deadline (no-op unless the SweepRunner armed one on
    // this context via --point-timeout). Point-suffixed dump path so
    // parallel workers never clobber each other's hang dumps.
    std::string deadline_dump = art.dumpOut;
    if (long pt = SimContext::current().sweepPointIndex(); pt >= 0)
        deadline_dump += ".point" + std::to_string(pt) + ".json";
    inject::armPointDeadline(sim, [&cu] { return cu.finished(); },
                             deadline_dump);

    if (tel != nullptr)
        tel->endPhase(); // Elaboration

    auto t2 = Clock::now();
    cu.start(kernel.args(spmBase));
    sim.run();
    auto t3 = Clock::now();

    if (!cu.finished()) {
        inject::reportHang(sim,
                           "event queue drained with kernel '" +
                               kernel.name() + "' unfinished",
                           art.dumpOut);
    }
    std::string failure = kernel.check(backdoor, spmBase);
    if (!failure.empty())
        fatal("bench: %s wrong result: %s", kernel.name().c_str(),
              failure.c_str());

    out.cycles = cu.cycleCount();
    out.stats = cu.stats();
    if (tel != nullptr) {
        tel->noteArena(out.stats.arenaHits, out.stats.arenaMisses);
        const core::SchedulerWork &work = cu.schedulerWork();
        tel->noteScheduler(work.visits, work.wakeups,
                           work.summaryUpdates);
        tel->samplePeakRss();
    }
    out.report = core::buildReport(cu, &tb.spm);
    out.spmReads = tb.spm.readCount();
    out.spmWrites = tb.spm.writeCount();
    if (capture != nullptr)
        capture->capturedBlockSequential = dev.blockSequentialImport;
    out.compileSeconds = seconds(t0, t1);
    out.simulateSeconds = seconds(t2, t3);

    if (tel != nullptr)
        tel->beginPhase(obs::HostPhase::StatsEmit);
    sim.finalizeAll();
    if (intervals)
        intervals->finalize();
    const bool profiled =
        sim.profilingEnabled() && !sim.profilers().empty();
    if (profiled) {
        out.profile =
            obs::analyzeCriticalPath(*sim.profilers().front().second);
    }
    // The user explicitly asked for these files; failing to produce
    // one is an error, not a warning hidden behind the Warn flag.
    if (!art.profileOut.empty()) {
        if (!out.profile.writeJsonFile(art.profileOut))
            fatal("could not write profile to '%s'",
                  art.profileOut.c_str());
        std::string folded = art.profileOut + ".folded";
        if (!out.profile.writeFoldedFile(folded))
            fatal("could not write folded stacks to '%s'",
                  folded.c_str());
    }
    writeTraceAndStats(sim, art, false);
    if (tel != nullptr && tel->wantSimTraceCapture() &&
        sim.traceSink() != nullptr)
        tel->captureSimTrace(sim.traceSink()->events());
    if (tel != nullptr)
        tel->endPhase(); // StatsEmit

    if (art.recordsRuns()) {
        obs::RunReport report;
        if (injector) {
            report.extra.push_back(
                {"injections_fired",
                 static_cast<double>(injector->log().size())});
        }
        report.statsJson = sim.stats().dumpJsonString();
        // Host-side wall-time attribution for this context
        // (cumulative over the runs it has executed).
        if (tel != nullptr)
            report.hostJson = tel->dumpJsonString();
        emitRun(art, kernel, point, out, std::move(report),
                profiled ? &out.profile : nullptr);
    }
    printInjectionLog(injector.get());
    // Single-run telemetry dump (last run wins). Sweep points run
    // under per-point telemetry and never write this file — the
    // sweep writes its own summary.
    if (!art.hostTelemetryOut.empty() && tel != nullptr &&
        SimContext::current().sweepPointIndex() < 0) {
        std::ofstream os(art.hostTelemetryOut);
        if (!os)
            fatal("could not write host telemetry to '%s'",
                  art.hostTelemetryOut.c_str());
        tel->writeJsonWithLocks(os);
        os << "\n";
    }
    return out;
}

/**
 * Process-wide trace cache for fast/auto runs: one capture per
 * Kernel::key(), shared by every sweep worker.
 */
TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

/**
 * Capture @p kernel's dynamic trace plus the IR the replays will
 * re-schedule. The capture run uses the cheapest sound
 * configuration — dedicated FUs and wide memory minimize its cycle
 * count — while matching @p dev's block-sequential import regime,
 * the one knob that must agree between capture and replay. It
 * records nothing but keeps the caller's watchdog.
 */
TraceCache::Entry
captureTrace(const kernels::Kernel &kernel, const core::DeviceConfig &dev,
             const Artifacts &art)
{
    auto t0 = Clock::now();
    TraceCache::Entry entry;

    PointConfig cap = PointConfig::portMatched(64);
    cap.dev.blockSequentialImport = dev.blockSequentialImport;
    Artifacts guards;
    guards.watchdogTicks = art.watchdogTicks;
    guards.dumpOut = art.dumpOut;
    simulate(kernel, cap, guards, &entry.trace);

    // The replays' static CDFG is rebuilt per point from this IR
    // (FU binding and latency tables depend on the point's
    // DeviceConfig); kernel IR construction is deterministic, so
    // its static ids match the capture run's.
    auto mod = std::make_shared<ir::Module>("replay");
    ir::IRBuilder builder(*mod);
    entry.fn = kernel.buildOptimized(builder);
    entry.holder = mod;

    // The trace's scheduling skeleton (producer/conflict edges) is
    // config-independent, so compute it once here and share it with
    // every replay; any elaboration of this IR works for that.
    core::StaticCdfg prep_cdfg(*entry.fn, cap.dev);
    entry.prep = std::make_shared<const ReplayPrep>(
        buildReplayPrep(prep_cdfg, entry.trace));

    entry.captureSeconds = seconds(t0, Clock::now());
    return entry;
}

/**
 * Trace-reuse fast path for one point: re-schedule the cached trace
 * under @p point without re-executing the kernel. Empty, with a
 * warning, if the replay reports a trace/static mismatch.
 */
std::optional<RunResult>
replay(const kernels::Kernel &kernel, const TraceCache::Entry &entry,
       const PointConfig &point, const Artifacts &art)
{
    auto t0 = Clock::now();
    core::StaticCdfg cdfg(*entry.fn, point.dev);
    auto t1 = Clock::now();

    const mem::ScratchpadConfig scfg =
        scratchpadFor(kernel, point.mem);
    ReplaySpmConfig spm;
    spm.rangeStart = spmBase;
    spm.latencyCycles = scfg.latencyCycles;
    spm.readPorts = scfg.readPorts;
    spm.writePorts = scfg.writePorts;
    spm.banks = scfg.banks;
    spm.wordBytes = scfg.wordBytes;

    TraceReplayer replayer(cdfg, point.dev, entry.trace, spm,
                           entry.prep.get());
    ReplayResult res = replayer.run();
    auto t2 = Clock::now();
    if (!res.ok) {
        warn("trace replay failed (%s); falling back to full "
             "simulation",
             res.error.c_str());
        return std::nullopt;
    }

    RunResult out;
    out.simMode = "fast";
    out.cycles = res.stats.totalCycles;
    out.stats = res.stats;
    out.spmReads = res.spmReads;
    out.spmWrites = res.spmWrites;
    const core::SpmUsage usage =
        core::SpmUsage::of(scfg, res.spmReads, res.spmWrites);
    out.report = core::buildReport(cdfg, point.dev, res.stats, &usage);
    out.compileSeconds = seconds(t0, t1);
    out.simulateSeconds = seconds(t1, t2);

    if (art.recordsRuns()) {
        obs::RunReport report;
        // Fast-path-only keys: unshared keys are never compared by
        // `salam-query diff`, and *_seconds fields are noisy by
        // convention, so these don't perturb the fast-vs-full
        // equivalence gate.
        report.extra = {
            {"fast_path", 1.0},
            {"capture_seconds", entry.captureSeconds},
        };
        emitRun(art, kernel, point, out, std::move(report));
    }
    return out;
}

} // namespace

RunResult
runPoint(const kernels::Kernel &kernel, const PointConfig &point,
         const Artifacts &artifacts)
{
    if (artifacts.simMode == "full")
        return simulate(kernel, point, artifacts);

    // Fall back to full simulation when the point's configuration
    // could change data-dependent control flow, when fault
    // injection makes outcomes schedule-dependent, or when the run
    // must write files a replay cannot produce. "fast" warns, "auto"
    // is silent.
    std::string blocker;
    TraceCache::EntryPtr entry;
    if (!artifacts.injectSpecs.empty()) {
        blocker = "fault injection makes outcomes "
                  "schedule-dependent";
    } else if (artifacts.writesRunFiles()) {
        blocker = "trace replay writes no trace, stats, interval "
                  "or profile files";
    } else {
        entry = traceCache().getOrBuild(kernel.key(), [&] {
            return captureTrace(kernel, point.dev, artifacts);
        });
        blocker = fastPathBlocker(entry->trace, point.dev, false,
                                  point.mem.useInterconnect);
    }
    if (blocker.empty()) {
        if (std::optional<RunResult> fast =
                replay(kernel, *entry, point, artifacts))
            return std::move(*fast);
    } else if (artifacts.simMode == "fast") {
        warn("--sim-mode fast: falling back to full simulation: %s",
             blocker.c_str());
    }
    RunResult full = simulate(kernel, point, artifacts);
    full.simMode = "full-fallback";
    return full;
}

void
recordRun(const Artifacts &artifacts, obs::RunReport report, bool dying)
{
    report.commandLine = artifacts.commandLine;
    if (!artifacts.reportOut.empty() &&
        !report.appendToFile(artifacts.reportOut) && !dying)
        fatal("could not append run report to '%s'",
              artifacts.reportOut.c_str());
    if (artifacts.store != nullptr)
        artifacts.store->appendRunReport(report, artifacts.benchName);
}

std::unique_ptr<inject::FaultInjector>
makeFaultInjector(Simulation &sim, const Artifacts &artifacts)
{
    if (artifacts.injectSpecs.empty())
        return nullptr;
    inject::FaultPlan plan;
    plan.seed = artifacts.injectSeed;
    for (const std::string &spec : artifacts.injectSpecs) {
        std::string error = plan.parse(spec);
        if (!error.empty())
            fatal("--inject %s: %s", spec.c_str(), error.c_str());
    }
    auto injector =
        std::make_unique<inject::FaultInjector>(std::move(plan));
    injector->attach(sim);
    return injector;
}

void
printInjectionLog(const inject::FaultInjector *injector)
{
    if (injector == nullptr)
        return;
    std::printf("injections fired: %zu\n", injector->log().size());
    for (const inject::InjectionRecord &rec : injector->log()) {
        std::printf("  tick=%llu kind=%s site=%s %s\n",
                    static_cast<unsigned long long>(rec.tick),
                    inject::faultKindName(rec.kind), rec.site.c_str(),
                    rec.detail.c_str());
    }
}

ScopedTerminationHook
terminationHook(Simulation &sim, std::string run_name,
                const Artifacts &artifacts)
{
    return ScopedTerminationHook(
        [&sim, &art = artifacts, run_name = std::move(run_name)](
            const char *outcome, const std::string &message) {
            writeTraceAndStats(sim, art, true);
            if (!art.recordsRuns())
                return;
            obs::RunReport report;
            report.run = run_name;
            report.outcome = outcome;
            report.extra = {
                {"fatal_message_hash",
                 static_cast<double>(obs::fnv1aHash(message) &
                                     0xFFFFFFFFull)},
            };
            report.statsJson = sim.stats().dumpJsonString();
            recordRun(art, std::move(report), true);
            // The process may be about to exit(1); make the fatal
            // record durable now.
            if (art.store != nullptr)
                art.store->flush();
        });
}

} // namespace salam::drive
