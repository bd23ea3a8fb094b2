/**
 * @file
 * Shared declarations of the repository benchmark.
 *
 * The benchmark reaches the simulator only through the public headers
 * under src/: it wires each modelled system itself, the way a user of
 * the library would, and never includes the bench harness header.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime_engine.hh"
#include "hw/power_model.hh"
#include "obs/result_store.hh"
#include "sim/statistics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The simulated statistics of one point as exact text, in the order
 * they were added. Integers print in decimal and doubles with 17
 * significant digits, so equal text means bit-equal values.
 */
class Fields
{
  public:
    void add(const std::string &name, std::uint64_t value);
    void addReal(const std::string &name, double value);

    /** Every EngineStats counter and energy, under @p prefix. */
    void addEngine(const std::string &prefix,
                   const salam::core::EngineStats &stats);

    /** The seven power-breakdown components. */
    void addPower(const salam::hw::PowerBreakdown &power);

    const std::vector<std::pair<std::string, std::string>> &
    entries() const
    {
        return list;
    }

    /** FNV-1a over "name=value;" of every entry. */
    std::uint64_t digest() const;

  private:
    std::vector<std::pair<std::string, std::string>> list;
};

/**
 * Counters one point contributes to the run totals. The simulated
 * ones repeat exactly for a point; the host ones (nanoseconds) are
 * filled only when host telemetry is attached to the point.
 */
struct Counters
{
    std::uint64_t fullSimPoints = 0;

    std::uint64_t dynInsts = 0;
    std::uint64_t fullSimInsts = 0;
    std::uint64_t replayInsts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t arenaHits = 0;
    std::uint64_t arenaMisses = 0;
    double rqDepthSum = 0.0;
    std::uint64_t rqSamples = 0;

    std::uint64_t events = 0;
    std::uint64_t heapDepthMax = 0;

    std::uint64_t spmAccesses = 0;
    std::uint64_t fabricStalls = 0;
    std::uint64_t fabricForwarded = 0;
    std::uint64_t dmaBytes = 0;

    std::uint64_t engineNs = 0;
    std::uint64_t memoryNs = 0;
    std::uint64_t eventLoopNs = 0;

    void add(const Counters &o);
};

/** Result of one point: its statistics, counters and verdict. */
struct PointResult
{
    Fields fields;
    Counters counters;
    /** Golden-check or reference mismatch; empty when correct. */
    std::string failure;
    /** Host seconds from IR build/replay elaboration to checked. */
    double seconds = 0.0;
};

/**
 * The recorded statistics of every point of every workload. Replay
 * points are compared with the full-simulation record of the same
 * configuration, so every benchmark run checks full == fast.
 */
class Reference
{
  public:
    /** Load @p path; returns false and sets @p error on failure. */
    bool load(const std::string &path, std::string *error);

    /**
     * Compare @p fields with the record of @p key. A full-simulation
     * point must match the record exactly; a replay point
     * (@p subset) must match every field it produces. Returns a
     * diagnostic naming the point and field, or "" on a match.
     */
    std::string compare(const std::string &key, const Fields &fields,
                        bool subset) const;

    /** Write @p records as a reference file. */
    static bool write(
        const std::string &path,
        const std::vector<std::pair<std::string, Fields>> &records);

  private:
    struct Record
    {
        std::uint64_t digest = 0;
        std::map<std::string, std::string> fields;
    };
    std::map<std::string, Record> records;
};

/**
 * Spans recorded around the benchmark's calls into each layer. Kept
 * in memory and written once at the end. Off unless enabled; while
 * off, opening a span costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t endNs;
        long parent;
        long point;
        unsigned thread;
    };

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, long index)
            : tracer(tracer), index(index)
        {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer;
        long index;
    };

    /** Totals per span name. */
    struct Totals
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t selfNs = 0;
    };

    void enable(bool on) { active = on; }
    bool enabled() const { return active; }

    /** Open a span; nested spans on one thread become children. */
    Scope span(const char *name, long point);

    /** Per-name totals with self time (duration minus children). */
    std::map<std::string, Totals> totals() const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool active = false;
    mutable std::mutex lock;
    std::vector<Span> spans;
};

/** One simulated point of a workload. */
class Point
{
  public:
    explicit Point(std::string key) : pointKey(std::move(key)) {}
    virtual ~Point() = default;

    /** "<workload>/<kernel or scenario>/<config>". */
    const std::string &key() const { return pointKey; }

    /**
     * Elaborate a fresh system, simulate it, run the golden check and
     * compare with @p ref (skipped when null). Runs under the calling
     * thread's SimContext, whose host telemetry (if any) it reads.
     */
    virtual PointResult run(Tracer &tracer, long id,
                            const Reference *ref) const = 0;

  private:
    std::string pointKey;
};

/** A workload: its finite point set and its load model. */
struct Workload
{
    std::string name;
    /** Worker threads: 1 = serial closed loop, else a SweepRunner. */
    unsigned threads = 1;
    std::vector<std::unique_ptr<Point>> points;
};

/** Names of the benchmark's workloads. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name: its point set and all one-time set-up (on
 * pareto-fast, the trace capture and replay preparation). Replay
 * points append a RunReport to @p store. fatal()s on a set-up
 * failure.
 */
Workload makeWorkload(const std::string &name, Tracer &tracer,
                      salam::obs::ResultStore *store);

/**
 * Every point whose statistics the reference records, each as a full
 * simulation: the pareto-fast grid is simulated in full here, so
 * replays are checked against full simulation.
 */
std::vector<std::unique_ptr<Point>> referencePoints();

/**
 * The HLS surrogate's cycle estimate for each ILP-matched crossbar
 * point of fabric-cluster, keyed by point key. A surrogate, not a
 * hardware measurement: the repository holds no hardware reference.
 */
std::vector<std::pair<std::string, std::uint64_t>> hlsSurrogateCycles();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
