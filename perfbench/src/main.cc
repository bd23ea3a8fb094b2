/**
 * @file
 * Benchmark program: runs one workload for a fixed host time, checks
 * every simulated point, and prints the metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--reference <file>] [--scratch <dir>]
 *             [--git <sha>] [--source-digest <hex>]
 *   perfbench --record-reference <file>
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 the per-layer ones,
 * measured in a separate, traced half of the run. The exit code is 0
 * only when every point was correct.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "drive/sweep_runner.hh"
#include "obs/host_telemetry.hh"
#include "obs/json.hh"
#include "obs/result_store.hh"
#include "sim/sim_context.hh"

using namespace salam;

namespace
{

using namespace perfbench;

/**
 * Set-up rounds: at least this many, and more while within the
 * budget; setup_s is the median round.
 */
constexpr std::size_t minSetupRounds = 3;
constexpr std::size_t maxSetupRounds = 500;
constexpr double setupBudgetSeconds = 0.2;

/** Host seconds after which a point is failed as timed out. */
constexpr double pointTimeoutSeconds = 60.0;

/** Failure lines printed before the rest are only counted. */
constexpr std::uint64_t maxPrintedFailures = 20;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference = "perfbench/reference.json";
    std::string recordReference;
    std::string scratch = ".bench_build/perfbench-run";
    std::string git = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--reference <file>] "
                 "[--scratch <dir>] [--git <sha>] "
                 "[--source-digest <hex>]\n"
                 "       perfbench --record-reference <file>\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed needs a whole number");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0)
                usage("--seconds needs a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace needs 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--reference") {
            o.reference = value;
        } else if (flag == "--record-reference") {
            o.recordReference = value;
        } else if (flag == "--scratch") {
            o.scratch = value;
        } else if (flag == "--git") {
            o.git = value;
        } else if (flag == "--source-digest") {
            o.sourceDigest = value;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (o.recordReference.empty()) {
        const auto &names = workloadNames();
        if (std::find(names.begin(), names.end(), o.workload) ==
            names.end())
            usage("--workload needs machsuite-full, fabric-cluster or "
                  "pareto-fast");
    }
    return o;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        model.erase(0, model.find_first_not_of(' '));
        model.erase(model.find_last_not_of(' ') + 1);
        return model;
    }
#endif
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printProvenance(const Options &o, unsigned workers)
{
    std::printf(
        "provenance {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": "
        "\"%s\", \"build_type\": \"%s\", \"git\": \"%s\", "
        "\"source_digest\": \"%s\", \"workload\": \"%s\", \"seed\": "
        "%llu, \"seconds\": %g, \"trace\": %d, \"workers\": %u}\n",
        obs::jsonEscape(cpuModel()).c_str(),
        std::thread::hardware_concurrency(),
        obs::jsonEscape(compilerName()).c_str(), PERFBENCH_BUILD_TYPE,
        obs::jsonEscape(o.git).c_str(),
        obs::jsonEscape(o.sourceDigest).c_str(),
        obs::jsonEscape(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed), o.seconds,
        o.trace ? 1 : 0, workers);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * This process image's peak RSS (VmHWM). Unlike getrusage's
 * ru_maxrss, it excludes the launcher's RSS from before exec.
 */
double
peakRssMb()
{
    return static_cast<double>(obs::sampleRssPeakKb()) / 1024.0;
}

/**
 * Pins the calling thread to each CPU of its original affinity mask in
 * turn. On a shared host the CPUs run at different speeds, so rotating
 * makes every run sample each CPU equally instead of inheriting the
 * speed of the one the scheduler picked. Threads inherit the mask, so
 * restore() before starting a worker pool.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original);
        if (sched_getaffinity(0, sizeof(original), &original) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original))
                cpus.push_back(cpu);
        }
    }

    ~CpuRotation() { restore(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** CPUs one rotation visits (at least 1). */
    std::size_t size() const { return std::max<std::size_t>(1, cpus.size()); }

    /** Move to the next CPU. */
    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    void
    restore()
    {
        if (pinned)
            sched_setaffinity(0, sizeof(original), &original);
        pinned = false;
    }

  private:
    cpu_set_t original;
    std::vector<int> cpus;
    std::size_t turn = 0;
    bool pinned = false;
};

/** Everything measured in one timed phase. */
struct Phase
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t passes = 0;
    double wall = 0.0;
    std::vector<double> pointSeconds;
    Counters counters;
    /** Pool passes only: wall, mean busy fraction, dispatch gaps. */
    std::vector<double> passWalls;
    double busyFracSum = 0.0;
    std::vector<double> gapsMs;
    /** Simulated Minst per host second of each pass. */
    std::vector<double> passRates;
    /** Host seconds of each point, by point key. */
    std::map<std::string, std::vector<double>> secondsByKey;
    /** Crossbar-point cycles, for the HLS surrogate comparison. */
    std::map<std::string, std::uint64_t> cyclesByKey;

    /** Median pass rate: robust to bursts of host contention. */
    double minstPerS() const { return median(passRates); }
};

class Runner
{
  public:
    Runner(const Workload &w, Tracer &tracer, const Reference &ref,
           obs::ResultStore *store, CpuRotation &rotation)
        : w(w), tracer(tracer), ref(ref), store(store), rotation(rotation)
    {}

    /**
     * Closed loop: whole passes over the point set, each in a fresh
     * seeded order, until @p seconds of host time have passed.
     */
    Phase
    runFor(double seconds, std::mt19937_64 &rng, bool telemetry,
           unsigned threads)
    {
        Phase phase;
        std::vector<std::size_t> order(w.points.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        const Clock::time_point t0 = Clock::now();
        do {
            std::shuffle(order.begin(), order.end(), rng);
            const Clock::time_point p0 = Clock::now();
            const std::uint64_t insts0 = phase.counters.dynInsts;
            if (w.threads > 1) {
                poolPass(order, telemetry, threads, phase);
            } else {
                rotation.next();
                serialPass(order, telemetry, phase);
            }
            phase.passRates.push_back(
                static_cast<double>(phase.counters.dynInsts - insts0) /
                1e6 / secondsSince(p0));
            ++phase.passes;
        } while (secondsSince(t0) < seconds);
        phase.wall = secondsSince(t0);
        rotation.restore();
        return phase;
    }

    std::uint64_t storeAppends = 0;
    bool storeOk = true;

  private:
    void
    record(const Point &point, PointResult &r, Phase &phase)
    {
        if (r.failure.empty() && r.seconds > pointTimeoutSeconds)
            r.failure = point.key() + ": timeout after " +
                std::to_string(r.seconds) + " s";
        ++phase.attempted;
        if (!r.failure.empty()) {
            ++phase.failed;
            if (printedFailures++ < maxPrintedFailures)
                std::printf("FAIL %s\n", r.failure.c_str());
        }
        phase.pointSeconds.push_back(r.seconds);
        phase.secondsByKey[point.key()].push_back(r.seconds);
        phase.counters.add(r.counters);
        if (!r.fields.entries().empty() &&
            r.fields.entries().front().first == "cycles")
            phase.cyclesByKey[point.key()] = std::stoull(
                r.fields.entries().front().second);
    }

    void
    serialPass(const std::vector<std::size_t> &order, bool telemetry,
               Phase &phase)
    {
        for (std::size_t idx : order) {
            const Point &point = *w.points[idx];
            const long id = nextId++;
            obs::HostTelemetry tel;
            SimContext ctx;
            ctx.setFatalMode(SimContext::FatalMode::Throw);
            ctx.setPointDeadlineNs(
                obs::hostNowNs() +
                static_cast<std::uint64_t>(pointTimeoutSeconds * 1e9));
            if (telemetry)
                ctx.setHostTelemetry(&tel);
            ScopedSimContext bind(ctx);
            PointResult r;
            const Clock::time_point t0 = Clock::now();
            try {
                auto span = tracer.span("point", id);
                r = point.run(tracer, id, &ref);
            } catch (const FatalError &e) {
                r.failure = point.key() + ": " + e.outcome() + ": " +
                    e.what();
                r.seconds = secondsSince(t0);
            } catch (const std::exception &e) {
                r.failure = point.key() + ": error: " + e.what();
                r.seconds = secondsSince(t0);
            }
            record(point, r, phase);
        }
    }

    void
    poolPass(const std::vector<std::size_t> &order, bool telemetry,
             unsigned threads, Phase &phase)
    {
        drive::SweepRunner::Options opts;
        opts.threads = threads;
        opts.hostTelemetry = telemetry;
        opts.captureSimTracePoint = -1;
        opts.pointTimeoutSeconds = pointTimeoutSeconds;
        drive::SweepRunner runner(opts);
        std::vector<PointResult> slots(order.size());
        const long base = nextId;
        nextId += static_cast<long>(order.size());
        auto results = runner.run(order.size(), [&](std::size_t i) {
            const long id = base + static_cast<long>(i);
            auto span = tracer.span("point", id);
            slots[i] = w.points[order[i]]->run(tracer, id, &ref);
            return std::string();
        });
        for (std::size_t i = 0; i < order.size(); ++i) {
            const Point &point = *w.points[order[i]];
            if (!results[i].ok)
                slots[i].failure = point.key() + ": " +
                    results[i].outcome + ": " + results[i].error;
            if (slots[i].seconds == 0.0)
                slots[i].seconds = results[i].wallSeconds;
            record(point, slots[i], phase);
        }
        storeAppends += order.size();
        {
            auto span = tracer.span("obs.store_flush", -1);
            if (!store->flush()) {
                storeOk = false;
                std::printf("FAIL result store flush failed\n");
            }
        }

        const drive::SweepHostSummary &s = runner.hostSummary();
        phase.passWalls.push_back(runner.lastWallSeconds());
        double busy = 0.0;
        for (double f : s.workerBusyFraction)
            busy += f;
        phase.busyFracSum += ratio(busy, s.workerBusyFraction.size());
        // Gap between a worker finishing one point and picking up the
        // next (the first gap runs from the sweep's start).
        std::vector<std::vector<const drive::SweepPointTimeline *>>
            byWorker(std::max(1u, runner.lastThreads()));
        for (const drive::SweepPointTimeline &tl : s.timelines)
            byWorker[tl.worker].push_back(&tl);
        for (auto &list : byWorker) {
            std::sort(list.begin(), list.end(),
                      [](auto *a, auto *b) {
                          return a->pickedNs < b->pickedNs;
                      });
            std::uint64_t free_at = 0;
            for (const drive::SweepPointTimeline *tl : list) {
                phase.gapsMs.push_back(
                    static_cast<double>(tl->pickedNs - free_at) / 1e6);
                free_at = tl->endNs;
            }
        }
    }

    const Workload &w;
    Tracer &tracer;
    const Reference &ref;
    obs::ResultStore *store;
    CpuRotation &rotation;
    long nextId = 0;
    std::uint64_t printedFailures = 0;
};

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %.9g %s\n", m.name, m.value, m.unit);
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += std::string(i ? ", " : "") + "\"" + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Simulate every reference point once and write the reference. */
int
recordReference(const std::string &path)
{
    Tracer quiet;
    std::vector<std::pair<std::string, Fields>> records;
    int failures = 0;
    for (const auto &point : referencePoints()) {
        SimContext ctx;
        ctx.setFatalMode(SimContext::FatalMode::Throw);
        ScopedSimContext bind(ctx);
        PointResult r;
        try {
            r = point->run(quiet, 0, nullptr);
        } catch (const std::exception &e) {
            r.failure = point->key() + ": " + e.what();
        }
        if (!r.failure.empty()) {
            std::printf("FAIL %s\n", r.failure.c_str());
            ++failures;
        }
        records.emplace_back(point->key(), std::move(r.fields));
    }
    if (failures != 0)
        return 1;
    if (!Reference::write(path, records)) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     path.c_str());
        return 1;
    }
    std::printf("recorded %zu points to %s\n", records.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (!opts.recordReference.empty())
        return recordReference(opts.recordReference);

    Reference ref;
    std::string error;
    if (!ref.load(opts.reference, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 2;
    }

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts.scratch, ec);
    const fs::path store_dir =
        fs::path(opts.scratch) /
        ("store-" + opts.workload + "-" + std::to_string(getpid()));
    std::unique_ptr<obs::ResultStore> store;
    if (opts.workload == "pareto-fast") {
        fs::remove_all(store_dir);
        store = obs::ResultStore::open(store_dir.string(), &error);
        if (store == nullptr) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            return 2;
        }
    }

    // One-time set-up, repeated in rounds of one repetition per CPU;
    // setup_s is the median round mean.
    Tracer tracer;
    tracer.enable(opts.trace);
    CpuRotation rotation;
    std::vector<double> setup_seconds;
    Workload workload;
    const Clock::time_point setup_t0 = Clock::now();
    while (setup_seconds.size() < minSetupRounds ||
           (secondsSince(setup_t0) < setupBudgetSeconds &&
            setup_seconds.size() < maxSetupRounds)) {
        double round = 0.0;
        for (std::size_t i = 0; i < rotation.size(); ++i) {
            rotation.next();
            const Clock::time_point t0 = Clock::now();
            Workload built = makeWorkload(opts.workload, tracer,
                                          store.get());
            round += secondsSince(t0);
            workload = std::move(built);
        }
        setup_seconds.push_back(round / rotation.size());
    }
    rotation.restore();
    tracer.enable(false);
    printProvenance(opts, workload.threads);

    std::mt19937_64 rng(opts.seed);
    Runner runner(workload, tracer, ref, store.get(), rotation);
    std::vector<Metric> metrics;
    Phase timed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    if (!opts.trace) {
        timed = runner.runFor(opts.seconds, rng, false, workload.threads);
        attempted = timed.attempted;
        failed = timed.failed;
        metrics = {
            {"setup_s", median(setup_seconds), "s"},
            {"sim_minst_per_s", timed.minstPerS(), "Minst/s"},
            {"point_s_p50", percentile(timed.pointSeconds, 0.5), "s"},
            {"point_s_p90", percentile(timed.pointSeconds, 0.9), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // Untraced and traced halves: the per-layer numbers come from
        // the traced half, the tracing overhead from the pair.
        Phase plain = runner.runFor(opts.seconds / 2, rng, false,
                                    workload.threads);
        tracer.enable(true);
        timed = runner.runFor(opts.seconds / 2, rng, true,
                              workload.threads);
        tracer.enable(false);
        attempted = plain.attempted + timed.attempted;
        failed = plain.failed + timed.failed;

        double scaling = 0.0;
        double store_load_s = 0.0;
        if (workload.threads > 1) {
            Phase serial = runner.runFor(1e-9, rng, false, 1);
            attempted += serial.attempted;
            failed += serial.failed;
            scaling = ratio(serial.wall, median(plain.passWalls));

            Clock::time_point t0 = Clock::now();
            obs::StoreReader reader;
            tracer.enable(true);
            {
                auto span = tracer.span("obs.store_load", -1);
                reader = obs::StoreReader::load(store_dir.string());
            }
            tracer.enable(false);
            store_load_s = secondsSince(t0);
            obs::RecordFilter runs;
            runs.kind = "run";
            const std::size_t loaded = reader.select(runs).size();
            if (!reader.ok() || loaded != runner.storeAppends) {
                std::printf("FAIL result store holds %zu run records, "
                            "%llu appended\n",
                            loaded,
                            static_cast<unsigned long long>(
                                runner.storeAppends));
                correct = false;
            }
        }

        const std::string spans_path =
            (fs::path(opts.scratch) /
             ("spans-" + opts.workload + "-seed" +
              std::to_string(opts.seed) + ".jsonl"))
                .string();
        if (!tracer.writeJsonl(spans_path)) {
            std::printf("FAIL cannot write spans to %s\n",
                        spans_path.c_str());
            correct = false;
        } else {
            std::printf("spans written to %s\n", spans_path.c_str());
        }

        const auto totals = tracer.totals();
        auto total = [&](const char *name) -> Tracer::Totals {
            auto it = totals.find(name);
            return it == totals.end() ? Tracer::Totals{} : it->second;
        };
        auto meanMs = [&](const char *name) {
            Tracer::Totals t = total(name);
            return ratio(static_cast<double>(t.totalNs) / 1e6,
                         static_cast<double>(t.count));
        };
        auto selfMeanMs = [&](const char *name) {
            Tracer::Totals t = total(name);
            return ratio(static_cast<double>(t.selfNs) / 1e6,
                         static_cast<double>(t.count));
        };
        const Counters &c = timed.counters;
        const double passes = static_cast<double>(timed.passes);
        const double full = static_cast<double>(c.fullSimPoints);
        const double full_insts = static_cast<double>(c.fullSimInsts);
        const double plain_rate = plain.minstPerS();
        metrics = {
            {"core.engine_s", ratio(c.engineNs / 1e9, full), "s"},
            {"core.ns_per_inst", ratio(c.engineNs, full_insts), "ns"},
            {"core.arena_miss_frac",
             ratio(c.arenaMisses, c.arenaHits + c.arenaMisses), "frac"},
            {"core.sim_ms", meanMs("core.sim"), "ms"},
            {"core.elab_ms", selfMeanMs("core.elab"), "ms"},
            {"opt.build_ms", meanMs("opt.build"), "ms"},
            {"kernels.check_ms", selfMeanMs("kernels.check"), "ms"},
            {"core.rq_depth_mean", ratio(c.rqDepthSum, c.rqSamples),
             "entries"},
            {"core.ipc", ratio(c.dynInsts, c.cycles), "inst/cycle"},
            {"core.dyn_insts", ratio(c.dynInsts, passes), "count"},
            {"core.cycles", ratio(c.cycles, passes), "count"},
            {"sim.loop_s", ratio(c.eventLoopNs / 1e9, full), "s"},
            {"sim.events_per_inst", ratio(c.events, full_insts),
             "events/inst"},
            {"sim.heap_depth_max", static_cast<double>(c.heapDepthMax),
             "count"},
            {"mem.model_s", ratio(c.memoryNs / 1e9, full), "s"},
            {"mem.ns_per_access",
             ratio(c.memoryNs, c.fullSimPoints ? c.spmAccesses : 0),
             "ns"},
            {"mem.spm_accesses_per_inst", ratio(c.spmAccesses, c.dynInsts),
             "access/inst"},
            {"mem.fabric_stall_frac",
             ratio(c.fabricStalls, c.fabricForwarded), "frac"},
            {"mem.dma_bytes", ratio(c.dmaBytes, passes), "bytes"},
            {"sys.run_ms", meanMs("sys.run"), "ms"},
            {"drive.capture_s", meanMs("drive.capture") / 1e3, "s"},
            {"drive.prep_s", meanMs("drive.prep") / 1e3, "s"},
            {"drive.replay_ms", meanMs("drive.replay"), "ms"},
            {"drive.replay_elab_ms", meanMs("drive.replay_elab"), "ms"},
            {"drive.replay_ns_per_inst",
             ratio(total("drive.replay").totalNs, c.replayInsts), "ns"},
            {"drive.pool_busy_frac",
             ratio(timed.busyFracSum, timed.passWalls.size()), "frac"},
            {"drive.dispatch_gap_ms",
             ratio(std::accumulate(timed.gapsMs.begin(),
                                   timed.gapsMs.end(), 0.0),
                   timed.gapsMs.size()),
             "ms"},
            {"drive.scaling_4v1", scaling, "x"},
            {"obs.record_ms", meanMs("obs.record"), "ms"},
            {"obs.store_append_ms", meanMs("obs.store_append"), "ms"},
            {"obs.store_flush_ms", meanMs("obs.store_flush"), "ms"},
            {"obs.store_load_s", store_load_s, "s"},
            {"trace.overhead_frac",
             ratio(plain_rate - timed.minstPerS(), plain_rate), "frac"},
        };
    }

    for (const auto &[key, seconds] : timed.secondsByKey)
        std::printf("point %s median_s %.6f n %zu\n", key.c_str(),
                    median(seconds), seconds.size());
    std::printf("samples %zu points over %llu passes in %.3f s "
                "(%u worker%s)\n",
                timed.pointSeconds.size(),
                static_cast<unsigned long long>(timed.passes), timed.wall,
                workload.threads, workload.threads == 1 ? "" : "s");
    std::printf("failed_frac %.6g (%llu of %llu points)\n",
                ratio(failed, attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    if (opts.workload == "fabric-cluster") {
        // Outside the timed region: the HLS surrogate is re-run here.
        double err_sum = 0.0;
        unsigned n = 0;
        for (const auto &[key, hls_cycles] : hlsSurrogateCycles()) {
            auto it = timed.cyclesByKey.find(key);
            if (it == timed.cyclesByKey.end() || hls_cycles == 0)
                continue;
            err_sum += std::abs(static_cast<double>(it->second) -
                                static_cast<double>(hls_cycles)) /
                static_cast<double>(hls_cycles);
            ++n;
        }
        std::printf("model.hls_err_pct %.4f (mean |cycle error| of the "
                    "%u ILP-matched crossbar points against the "
                    "in-repo HLS surrogate; surrogate error, no "
                    "hardware reference exists in the repository)\n",
                    100.0 * ratio(err_sum, n), n);
    }

    if (store)
        store.reset();
    fs::remove_all(store_dir, ec);

    correct = correct && runner.storeOk && failed == 0 && attempted > 0;
    printResult(correct, attempted, failed, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
