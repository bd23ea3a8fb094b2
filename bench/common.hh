/**
 * @file
 * Shared command-line surface of the paper-reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper,
 * running its points through drive::runPoint() (see
 * drive/run_point.hh). What is shared here is the option table and
 * parser, the --interconnect choice, and the glue that applies the
 * bench flags to a drive::SweepRunner.
 */

#ifndef SALAM_BENCH_COMMON_HH
#define SALAM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "drive/options.hh"
#include "drive/run_point.hh"
#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"
#include "kernels/machsuite.hh"
#include "mem/interconnect.hh"
#include "obs/debug_flags.hh"
#include "obs/host_telemetry.hh"
#include "obs/result_store.hh"
#include "sim/sim_context.hh"

namespace salam::bench
{

/**
 * Observability options shared by every bench binary. Parsed once in
 * main() by parseObsArgs(). The per-run part is a drive::Artifacts
 * set, handed to drive::runPoint() as-is; the rest configures
 * sweeps.
 */
struct ObsOptions : drive::Artifacts
{
    /**
     * Worker threads for design-space sweeps (0 = hardware
     * concurrency). Forced to 1 by effectiveSweepThreads() when
     * per-run artifact options are active.
     */
    unsigned sweepThreads = 1;

    /**
     * Host-performance telemetry: attribute the simulator's own
     * wall time to phases, count lock contention, and (in sweeps)
     * record per-worker timelines. Sweep-safe: per-point telemetry
     * is owned by the point's SimContext, so this does NOT force
     * --sweep-threads 1. Sweeps write the scaling summary to
     * hostTelemetryOut and a Chrome trace to "<path>.trace.json".
     */
    bool hostTelemetry = false;

    /**
     * Result-store directory (--store-out). Every run appends a
     * queryable record here (and sweeps add per-point records); the
     * store is multi-writer safe, so this does NOT force
     * --sweep-threads 1.
     */
    std::string storeOut;

    /**
     * Per-point wall-clock budget for sweeps (--point-timeout,
     * seconds; 0 disables). A point that exceeds it is terminated
     * with outcome "timeout" plus a hang dump and the pool moves on.
     */
    double pointTimeoutSeconds = 0.0;

    /** Extra attempts per failed sweep point (--point-retries). */
    unsigned pointRetries = 0;

    /**
     * Resume store path (--resume): sweep points that already have
     * an ok record there are skipped with outcome "cached".
     */
    std::string resumePath;
};

inline ObsOptions &
obsOptions()
{
    static ObsOptions options;
    return options;
}

/**
 * The option table every bench shares (drive/options.hh engine:
 * "--opt value"/"--opt=value", --help, unknown-argument listing,
 * parent-directory creation for output paths).
 */
inline drive::OptionList
sharedBenchOptions()
{
    auto o = []() -> ObsOptions & { return obsOptions(); };
    return {
        {"--trace-out", "<file>",
         "write a Chrome trace_event JSON trace (last run wins)",
         [o](const std::string &v) { o().traceOut = v; }, true},
        {"--report-out", "<file>",
         "append one RunReport JSON line per run",
         [o](const std::string &v) { o().reportOut = v; }, true},
        {"--stats-out", "<file>",
         "write the statistics dump as JSON (last run wins)",
         [o](const std::string &v) { o().statsOut = v; }, true},
        {"--profile-out", "<file>",
         "write the critical-path hotspot report (JSON; folded "
         "stacks to <file>.folded) and enable profiling",
         [o](const std::string &v) { o().profileOut = v; }, true},
        {"--store-out", "<dir>",
         "append queryable run records to a result store "
         "(inspect with salam-query; sweep-safe)",
         [o](const std::string &v) { o().storeOut = v; }, false},
        {"--stats-interval", "<N>",
         "dump+reset statistics every N engine cycles (JSONL "
         "series next to --stats-out, or stats.intervals.jsonl)",
         [o](const std::string &v) {
             std::uint64_t cycles =
                 drive::parseUint("--stats-interval", v);
             if (cycles == 0)
                 fatal("--stats-interval needs a positive cycle "
                       "count");
             o().statsInterval = cycles;
         }},
        {"--debug-flags", "<spec>",
         "enable debug flags, e.g. \"Cache,DMA\" or \"All,-Event\"",
         [](const std::string &v) {
             std::string error = obs::DebugFlagRegistry::instance()
                                     .applySpecStrict(v);
             if (!error.empty())
                 fatal("%s", error.c_str());
         }},
        {"--verbose", "", "enable inform()/warn() output",
         [](const std::string &) { LogControl::setVerbose(true); }},
        {"--inject", "<spec>",
         "inject a fault, \"kind@site[:key=value]*\" (repeatable)",
         [o](const std::string &v) { o().injectSpecs.push_back(v); }},
        {"--inject-seed", "<N>",
         "campaign seed for unspecified nth/bit",
         [o](const std::string &v) {
             o().injectSeed = drive::parseUint("--inject-seed", v, 0);
         }},
        {"--watchdog", "<ticks>",
         "forward-progress watchdog window",
         [o](const std::string &v) {
             std::uint64_t ticks = drive::parseUint("--watchdog", v, 0);
             if (ticks == 0)
                 fatal("--watchdog needs a positive tick count");
             o().watchdogTicks = ticks;
         }},
        {"--dump-out", "<file>",
         "hang state-dump path (default state_dump.json)",
         [o](const std::string &v) { o().dumpOut = v; }, true},
        {"--sweep-threads", "<N>",
         "worker threads for design-space sweeps (0 = all hardware "
         "threads; default 1)",
         [o](const std::string &v) {
             std::uint64_t threads =
                 drive::parseUint("--sweep-threads", v);
             if (threads > 1024)
                 fatal("--sweep-threads needs a thread count "
                       "(0 = hardware concurrency), got '%s'",
                       v.c_str());
             o().sweepThreads = static_cast<unsigned>(threads);
         }},
        {"--point-timeout", "<seconds>",
         "per-point wall-clock budget in sweeps; a hung point is "
         "classified outcome=timeout and the pool moves on "
         "(0 disables)",
         [o](const std::string &v) {
             char *end = nullptr;
             double seconds = std::strtod(v.c_str(), &end);
             if (end == v.c_str() || *end != '\0' || seconds < 0.0)
                 fatal("--point-timeout needs a non-negative "
                       "seconds value, got '%s'",
                       v.c_str());
             o().pointTimeoutSeconds = seconds;
         }},
        {"--point-retries", "<N>",
         "extra attempts for a failed sweep point, with exponential "
         "backoff (default 0)",
         [o](const std::string &v) {
             o().pointRetries = static_cast<unsigned>(
                 drive::parseUint("--point-retries", v));
         }},
        {"--resume", "<store>",
         "skip sweep points that already have an ok record in this "
         "result store (outcome=cached); pair with --store-out to "
         "checkpoint into the same store",
         [o](const std::string &v) { o().resumePath = v; }},
        {"--sim-mode", "<mode>",
         "simulation mode: full (default), fast "
         "(trace-reuse re-scheduling; warns on fallback), or auto "
         "(fast with silent fallback)",
         [o](const std::string &v) {
             if (v != "full" && v != "fast" && v != "auto")
                 fatal("--sim-mode needs full, fast, or auto, got "
                       "'%s'",
                       v.c_str());
             o().simMode = v;
         }},
        {"--host-telemetry", "",
         "attribute the simulator's own wall time to host phases "
         "and count lock contention",
         [o](const std::string &) { o().hostTelemetry = true; }},
        {"--host-telemetry-out", "<file>",
         "implies --host-telemetry; single runs write the telemetry "
         "JSON here, sweeps the scaling summary plus "
         "<file>.trace.json",
         [o](const std::string &v) {
             o().hostTelemetryOut = v;
             o().hostTelemetry = true;
         }, true},
    };
}

/**
 * Parse the shared observability arguments (see
 * sharedBenchOptions() for the list) plus this bench's @p extra
 * options. Recognizes "--opt value" and "--opt=value"; --help prints
 * the combined table and exits; anything unrecognized is fatal with
 * the full option listing. Output-path option values get their
 * missing parent directories created here, at parse time, so a typo
 * fails before a long simulation instead of after it.
 */
inline void
parseObsArgs(int argc, char **argv,
             const drive::OptionList &extra = {})
{
    ObsOptions &options = obsOptions();
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            options.commandLine += ' ';
        options.commandLine += argv[i];
    }
    if (argc > 0) {
        options.benchName = argv[0];
        if (auto slash = options.benchName.find_last_of('/');
            slash != std::string::npos)
            options.benchName.erase(0, slash + 1);
    }

    drive::OptionList table = sharedBenchOptions();
    table.insert(table.end(), extra.begin(), extra.end());

    drive::ParsePolicy policy;
    policy.program = options.benchName;
    drive::parseOptions(argc, argv, table, policy);

    // The main thread's telemetry; sweep workers get their own
    // per-point instances from SweepRunner instead.
    static obs::HostTelemetry main_telemetry;
    if (options.hostTelemetry)
        SimContext::current().setHostTelemetry(&main_telemetry);
    if (!options.storeOut.empty()) {
        // The static owner's destructor flushes queued records at
        // process exit (fatal() in Exit mode runs static destructors
        // too, so graceful-fatal runs still land).
        static std::unique_ptr<obs::ResultStore> store;
        std::string error;
        store = obs::ResultStore::open(options.storeOut, &error);
        if (store == nullptr)
            fatal("--store-out: %s", error.c_str());
        options.store = store.get();
    }
}

/**
 * The sweep thread count a bench should actually use: --sweep-threads
 * unless a per-run artifact or fault option is active. Those options
 * target "the run" (last-writer-wins trace/stats files, injection
 * logs on stdout), which only makes sense serially — quietly running
 * them on a pool would interleave or drop artifacts.
 */
inline unsigned
effectiveSweepThreads()
{
    const ObsOptions &options = obsOptions();
    if ((options.writesRunFiles() || !options.injectSpecs.empty()) &&
        options.sweepThreads != 1) {
        warn("per-run artifact/inject options force "
             "--sweep-threads 1");
        return 1;
    }
    return options.sweepThreads;
}

/**
 * SweepRunner options honouring the bench flags for a sweep over
 * @p spec: the effective thread count, @p spec's axes on every point
 * record, host telemetry when --host-telemetry is on, and the
 * --store-out store (sweeps add per-point and summary records).
 */
inline drive::SweepRunner::Options
sweepRunnerOptions(const drive::SweepSpec &spec)
{
    drive::SweepRunner::Options options;
    options.threads = effectiveSweepThreads();
    options.pointAxes = [&spec](std::size_t idx) {
        return spec.axesJson(idx);
    };
    options.hostTelemetry = obsOptions().hostTelemetry;
    options.store = obsOptions().store;
    options.storeName = obsOptions().benchName;
    options.pointTimeoutSeconds = obsOptions().pointTimeoutSeconds;
    options.pointRetries = obsOptions().pointRetries;
    options.resumePath = obsOptions().resumePath;
    // Durable per-point checkpoints whenever records are kept: a
    // killed sweep then loses at most its in-flight points.
    options.durable = options.store != nullptr;
    return options;
}

/**
 * The process exit code after a sweep: interruptedExitCode (75,
 * EX_TEMPFAIL) when the run was drained by SIGINT/SIGTERM — distinct
 * from both success and failure so wrappers know to --resume — else 0.
 */
inline int
sweepExitCode(const drive::SweepRunner &runner)
{
    if (!runner.interrupted())
        return 0;
    const std::string &store = obsOptions().storeOut;
    warn("sweep interrupted; finish the remaining points with "
         "--resume %s",
         store.empty() ? "<store>" : store.c_str());
    return drive::SweepRunner::interruptedExitCode;
}

/**
 * After a sweep: write the scaling summary + per-worker Chrome
 * trace when --host-telemetry-out was given. fatal()s on I/O
 * failure — the user asked for the file.
 */
inline void
writeSweepHostTelemetry(const drive::SweepRunner &runner,
                        const std::string &name)
{
    const ObsOptions &options = obsOptions();
    if (options.hostTelemetryOut.empty())
        return;
    if (!runner.writeHostTelemetryFiles(options.hostTelemetryOut,
                                        name))
        fatal("could not write host telemetry to '%s'",
              options.hostTelemetryOut.c_str());
}

/**
 * Shared --interconnect/--bus-width/--ic-credits handling: a bench
 * keeps one of these alive across parseObsArgs (append options() to
 * its extra list) and calls apply() on each MemoryConfig it builds.
 */
struct InterconnectChoice
{
    /** "direct" (historical port bind), "xbar", or "axi". */
    std::string kind = "direct";
    unsigned busWidthBytes = 64;
    unsigned credits = mem::unlimitedCredits;

    bool direct() const { return kind == "direct"; }

    mem::InterconnectConfig
    config() const
    {
        mem::InterconnectConfig ic;
        ic.kind = kind == "axi" ? mem::InterconnectKind::AxiBus
                                : mem::InterconnectKind::Crossbar;
        ic.busWidthBytes = busWidthBytes;
        ic.maxOutstandingPerRequester = credits;
        return ic;
    }

    void
    apply(drive::MemoryConfig &memcfg) const
    {
        memcfg.useInterconnect = !direct();
        if (memcfg.useInterconnect)
            memcfg.interconnect = config();
    }

    drive::OptionList
    options()
    {
        return {
            {"--interconnect", "<kind>",
             "fabric between accelerator and memory: direct "
             "(default), xbar, or axi",
             [this](const std::string &v) {
                 if (v != "direct" && v != "xbar" && v != "axi")
                     fatal("--interconnect needs direct, xbar, or "
                           "axi, got '%s'",
                           v.c_str());
                 kind = v;
             }},
            {"--bus-width", "<bytes>",
             "AXI-like bus data-channel beat width in bytes "
             "(default 64)",
             [this](const std::string &v) {
                 busWidthBytes = static_cast<unsigned>(
                     drive::parseUint("--bus-width", v));
             }},
            {"--ic-credits", "<N>",
             "outstanding-transaction credits per requester "
             "(default unlimited; 0 is rejected at elaboration)",
             [this](const std::string &v) {
                 credits = static_cast<unsigned>(
                     drive::parseUint("--ic-credits", v));
             }},
        };
    }
};

/** Percent error of @p measured against @p reference. */
inline double
pctError(double measured, double reference)
{
    if (reference == 0.0)
        return 0.0;
    return 100.0 * (measured - reference) / reference;
}

/** Print a section header. */
inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace salam::bench

#endif // SALAM_BENCH_COMMON_HH
