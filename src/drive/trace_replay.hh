/**
 * @file
 * Trace-reuse fast path: replay a captured dynamic trace under new
 * datapath/memory parameters without re-executing the kernel.
 *
 * A sweep evaluates the same (kernel, input) pair under dozens of
 * DeviceConfigs. The dynamic CDFG's *values* — branch outcomes and
 * effective addresses — do not depend on the timing knobs being
 * swept (FU limits, ports, queue depths, latencies, clock), because
 * the engine's memory disambiguation enforces value determinism
 * regardless of schedule. So the expensive part of a sweep point,
 * executing the kernel, can be done once: capture a DynTrace (see
 * core/dyn_trace.hh), then re-schedule it here per point.
 *
 * TraceReplayer mirrors RuntimeEngine::cycle() decision-for-decision
 * — block import, operand/WAW/WAR edges, FU pools and initiation
 * intervals, memory disambiguation, port/queue budgets — plus a
 * cycle-domain model of the private scratchpad's service/latency
 * pipeline, and produces bit-identical EngineStats (cycles, stall
 * attribution, issue mix, FU occupancy, dynamic energy).
 *
 * Both schedulers are event-driven, but they are written
 * independently, so the replay stays a check on the engine. Where
 * the engine discovers dependencies as it imports blocks, the replay
 * reads them from the trace's scheduling skeleton — producer edges,
 * same-instruction chains, memory conflicts — which is
 * config-independent, so it is prepared once per capture (ReplayPrep)
 * and each replay runs on top of it: commits decrement dependency and
 * conflict counters, instructions enter an issue-candidate bitmap
 * exactly when every engine gate that is not re-evaluated per cycle
 * has cleared, and the per-cycle work is proportional to the
 * instructions that actually issue, not to the window size.
 * Provably-idle stall spans are fast-forwarded in closed form.
 *
 * When a swept parameter *could* change data-dependent control flow
 * or the capture regime, fastPathBlocker() reports why and the
 * caller falls back to full simulation.
 */

#ifndef SALAM_DRIVE_TRACE_REPLAY_HH
#define SALAM_DRIVE_TRACE_REPLAY_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/device_config.hh"
#include "core/dyn_trace.hh"
#include "core/runtime_engine.hh"
#include "core/static_cdfg.hh"

namespace salam::drive
{

/**
 * The scratchpad parameters the replay's cycle-domain SPM model
 * needs: mem::ScratchpadConfig minus the SimObject plumbing.
 */
struct ReplaySpmConfig
{
    std::uint64_t rangeStart = 0;
    unsigned latencyCycles = 1;
    unsigned readPorts = 2;
    unsigned writePorts = 2;
    unsigned banks = 1;
    unsigned wordBytes = 4;
};

/** Outcome of one trace replay. */
struct ReplayResult
{
    /** False when the trace could not be replayed (see error). */
    bool ok = false;

    /** Diagnostic when !ok (trace/static mismatch, overflow, ...). */
    std::string error;

    /** Bit-identical to the full simulation's engine statistics. */
    core::EngineStats stats;

    /** SPM accesses serviced (the CactiLite usage inputs). */
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

/**
 * Config-independent scheduling skeleton of a trace, shared by every
 * replay of it. Everything here depends only on the instruction
 * stream and its addresses — which instances exist, which produce
 * operands for which, which touch overlapping memory — never on the
 * FU/port/latency knobs a sweep varies.
 */
struct ReplayPrep
{
    static constexpr std::uint32_t npos = ~0u;

    /** Non-empty when the trace does not match the static CDFG. */
    std::string error;

    /** Previous/next dynamic instance of the same static id. */
    std::vector<std::uint32_t> prevSame;
    std::vector<std::uint32_t> nextSame;

    /** Memory program order (loads/stores only; 0 otherwise). */
    std::vector<std::uint32_t> memSeq;

    /**
     * Producer slots, CSR by seq: slot s of seq holds the dynamic
     * seq that produces its value, or npos when the operand is a
     * constant/control/argument. Phi instances hold exactly the one
     * slot their traced incoming edge selects.
     */
    std::vector<std::uint32_t> slotOffsets;
    std::vector<std::uint32_t> slotTargets;

    /**
     * Reverse producer edges, CSR by producer seq, ascending by
     * reader: packed (absolute slot index << 32 | reader seq).
     */
    std::vector<std::uint32_t> readerOffsets;
    std::vector<std::uint64_t> readerEdges;

    /**
     * Memory-conflict edges: for seq i, the earlier memory ops whose
     * byte ranges overlap i's with a conflicting kind (store-load,
     * load-store, store-store), reduced to the set the engine's
     * disambiguation can actually block on (per-word latest store,
     * loads since it). notify* is the reverse direction, ascending.
     */
    std::vector<std::uint32_t> conflictOffsets;
    std::vector<std::uint32_t> conflictEdges;
    std::vector<std::uint32_t> notifyOffsets;
    std::vector<std::uint32_t> notifyEdges;
};

/**
 * Build the scheduling skeleton for @p trace. @p cdfg may be
 * elaborated under any DeviceConfig of the same kernel — only its
 * config-independent structure (opcodes, operand plans, block
 * layout) is consulted.
 */
ReplayPrep buildReplayPrep(const core::StaticCdfg &cdfg,
                           const core::DynTrace &trace);

/**
 * Reason @p dev cannot reuse @p trace, or "" when the fast path is
 * sound. The rule is conservative: any delta that changes the
 * capture regime (block-sequential import) or makes outcomes
 * schedule-dependent (fault injection) forces full simulation.
 * @p interconnect_in_path declares that the accelerator's memory
 * traffic crosses a modeled interconnect; replay models a private
 * SPM only, so that also forces full simulation.
 */
std::string fastPathBlocker(const core::DynTrace &trace,
                            const core::DeviceConfig &dev,
                            bool fault_injection_active,
                            bool interconnect_in_path = false);

/** One-shot re-scheduler: construct, run() once, read the result. */
class TraceReplayer
{
  public:
    /**
     * @param cdfg Elaborated under @p dev (the *replay* config, not
     *        the capture config); must outlive the replayer.
     * @param trace Captured trace for the same kernel and input.
     * @param spm The private scratchpad serving all memory traffic.
     * @param prep Skeleton from buildReplayPrep for @p trace; pass
     *        nullptr to have the replayer build a private one.
     */
    TraceReplayer(const core::StaticCdfg &cdfg,
                  const core::DeviceConfig &dev,
                  const core::DynTrace &trace,
                  const ReplaySpmConfig &spm,
                  const ReplayPrep *prep = nullptr);

    ReplayResult run();

  private:
    static constexpr std::uint32_t noNode = ~0u;
    static constexpr std::uint32_t noBlock = ~0u;
    static constexpr std::uint64_t never = ~0ull;
    static constexpr std::uint32_t noMemSeq = ~0u;

    /** Replay twin of DynInst: scheduling state, no values. */
    struct RNode
    {
        /** First cycle this instance may issue (import fence). */
        std::uint64_t fence = 0;
        std::uint64_t issueCycle = 0;
        std::uint64_t commitCycle = 0;
        /** prevSame when it was still in-window at import. */
        std::uint32_t prevLink = noNode;
        std::uint32_t unissuedReaders = 0;
        /** Uncommitted producer slots (issue gate). */
        std::uint16_t pendingOperands = 0;
        /** Uncommitted earlier conflicting memory ops. */
        std::uint16_t pendingConflicts = 0;
        bool issued = false;
        bool committed = false;
        bool addrKnown = false;
    };

    /** Precomputed per-static-instruction facts (hot-path tables). */
    struct StaticFacts
    {
        /** Σ operand register bits × read energy (issue cost). */
        double readEnergyPj = 0.0;
        /** Result bits × write energy; 0 for void results. */
        double writeEnergyPj = 0.0;
        double fuEnergyPj = 0.0;
        std::uint32_t parentBlock = 0;
        hw::FuType fu = hw::FuType::None;
        unsigned latency = 0;
        unsigned initiationInterval = 1;
        std::uint8_t opKind = 0;        // OpKind below
        std::uint8_t issueLane = 0;     // Lane below
        /** Dense index among FU types with a pool limit (0xff: none). */
        std::uint8_t limitedIdx = 0xff;
        bool isVoid = true;
    };

    enum OpKind : std::uint8_t
    {
        opCompute = 0,
        opBr,
        opRet,
        opLoad,
        opStore
    };

    enum Lane : std::uint8_t
    {
        laneFp = 0,
        laneInt,
        laneOther
    };

    bool fail(std::string why);

    const StaticFacts &factOf(std::uint32_t seq) const
    {
        return facts[trace.insts[seq].staticId];
    }

    /** Import @p block_id's instructions; may defer (pendingImport). */
    void importBlock(std::uint32_t block_id, std::uint32_t from_id);

    /** Null live producer slots, releasing reader counts (issue). */
    void captureOperands(std::uint32_t seq);

    /** Enter the candidate bitmap if every counter gate cleared. */
    void maybeCandidate(std::uint32_t seq);

    /** Mark the address resolved (engine: resolveAddress in-scan). */
    void applyResolve(std::uint32_t seq);

    bool fuAvailable(std::uint32_t seq, const StaticFacts &f,
                     std::uint64_t cyc);

    void occupyFu(const StaticFacts &f, std::uint64_t cyc);

    void commitNode(std::uint32_t seq, std::uint64_t cyc);

    void pruneWindow();

    /** Deliver SPM responses ready at @p cyc; commits at @p eff. */
    void deliverResponses(std::uint64_t cyc, std::uint64_t eff);

    /** One SPM service pass at @p cyc (pre- or post-engine). */
    void servicePass(std::uint64_t cyc, bool post_engine);

    void scheduleService(std::uint64_t cyc);

    /** One engine cycle; returns true when the kernel finished. */
    bool engineCycle(std::uint64_t cyc);

    /** Process one candidate seq during the issue sweep. */
    void handleCandidate(std::uint32_t seq, std::uint64_t cyc);

    /** Count @p count stall cycles into the current stall lane. */
    void accrueStall(std::uint64_t count);

    const core::StaticCdfg &cdfg;
    const core::DeviceConfig cfg;
    const core::DynTrace &trace;
    const ReplaySpmConfig spmCfg;
    std::unique_ptr<const ReplayPrep> ownPrep;
    const ReplayPrep *prep = nullptr;

    std::vector<StaticFacts> facts;

    std::vector<RNode> nodes;
    /** Live producer bindings (npos = value already available). */
    std::vector<std::uint32_t> slots;

    /** Window is the contiguous seq range [pruneFront, imported). */
    std::uint32_t imported = 0;
    std::uint32_t pruneFront = 0;
    /** Instructions imported but not yet issued (capacity/drain). */
    std::uint32_t unissuedCount = 0;
    /** Lower bound for the candidate sweep (min unissued seq). */
    std::uint32_t firstUnissued = 0;

    /** Issue-candidate bitmap, bit per seq. */
    std::vector<std::uint64_t> candBits;
    /**
     * Class shadows of candBits (loads/stores only): once a cycle's
     * port or queue budget for a class is exhausted — witnessed by
     * the first blocked ready op, which also sets the stall flag the
     * engine would set — every later candidate of that class parks
     * identically, so the sweep masks the whole class out instead
     * of visiting each parked op.
     */
    std::vector<std::uint64_t> candLoadBits;
    std::vector<std::uint64_t> candStoreBits;
    /**
     * Same idea for compute candidates bound to a *limited* FU pool,
     * one shadow bitmap per limited type: pool state only tightens
     * within a scan (releases are purely time-based), so the first
     * candidate to find its pool exhausted closes that type for the
     * rest of the cycle and the sweep masks its whole class out.
     * The closing visit already fed the pool's release time into
     * earliestWake, and no skipped instance can issue before it.
     */
    std::vector<std::vector<std::uint64_t>> candFuBits;
    /** Bit per limited FU type: pool exhausted this cycle. */
    std::uint32_t fuClosedMask = 0;
    std::array<std::uint8_t, hw::numFuTypes> limitedIdxOf{};
    std::uint32_t numLimitedFus = 0;

    std::uint64_t curCycle = 0;

    std::vector<std::uint32_t> computeQueue;
    std::array<std::vector<std::uint64_t>, hw::numFuTypes> poolFreeAt;

    /**
     * Unresolved-address tracking, mirroring the engine's memory
     * summary: seqs of in-window memory ops whose address is not yet
     * resolved, in import (= memSeq) order. The per-cycle snapshot
     * is the front's memSeq — resolutions apply mid-scan and so
     * become visible to the ordering gates one cycle later, exactly
     * like the engine's summary, whose in-sweep updates apply after
     * the sweep.
     */
    std::deque<std::uint32_t> unresolvedStores;
    std::deque<std::uint32_t> unresolvedLoads;
    std::uint32_t snapUnknownStore = noMemSeq;
    std::uint32_t snapUnknownLoad = noMemSeq;
    /**
     * The snapshot can only change after a resolution (front may
     * pop) or an unresolved import (front may appear); skip the
     * deque walks on every other cycle.
     */
    bool snapDirty = false;

    /**
     * Scheduled address resolutions: (cycle, seq). Every due cycle
     * is at most curCycle + 1 — import fences are curCycle + 1 and
     * commit-time dues are max(commit cycle, fence) — so entries
     * live for at most one cycle and a flat unsorted vector beats a
     * heap.
     */
    using ResolveEvent = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<ResolveEvent> futureResolves;

    /** True while the issue sweep runs (mid-scan commit handling). */
    bool inScan = false;

    std::uint32_t pendingImport = noBlock;
    std::uint32_t pendingImportFrom = noBlock;

    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    bool memStallLoadBlocked = false;
    bool memStallStoreBlocked = false;
    bool retSeen = false;

    /**
     * Window high-water mark minus the live window: the engine's
     * reusable slab records (exact arenaHits/Misses parity).
     */
    std::uint64_t freeCount = 0;

    // Cycle-domain SPM model (see scratchpad.cc for the original).
    struct SpmRequest
    {
        std::uint32_t seq;
    };

    struct SpmResponse
    {
        std::uint32_t seq;
        std::uint64_t readyCycle;
    };

    std::deque<SpmRequest> spmRequestQueue;
    std::deque<SpmResponse> spmResponseQueue;
    /** Loads/stores currently in spmRequestQueue (early exit). */
    unsigned queuedLoads = 0;
    unsigned queuedStores = 0;
    bool servicePending = false;
    std::uint64_t serviceCycle = 0;
    bool havePass = false;
    std::uint64_t lastPassCycle = 0;
    std::vector<unsigned char> busyBank;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;

    // Per-cycle issue bookkeeping (shared with handleCandidate).
    bool issuedAny = false;
    bool readyLoadBlocked = false;
    bool readyStoreBlocked = false;
    /**
     * Memory candidates are swept in ascending memory-program
     * order, so the first one parked by the unresolved-address
     * snapshot proves every later one of its class parks too —
     * the sweep then drops that class for the rest of the cycle.
     */
    bool snapClosedLoads = false;
    bool snapClosedStores = false;
    unsigned loadsIssuedNow = 0;
    unsigned storesIssuedNow = 0;
    unsigned fpIssuedNow = 0;

    /**
     * Fast-forward bookkeeping, reset each engine cycle: the
     * earliest future cycle at which any candidate's time-gated
     * constraint (import fence, initiation interval, FU pool
     * release) clears. Everything else a parked instruction waits on
     * is a commit, delivery, or address resolution — all timed.
     */
    std::uint64_t earliestWake = never;

    /** Earliest scheduled compute commit (fast-forward bound). */
    std::uint64_t minComputeCommit = never;
    /**
     * Incremental replacements for the engine's per-cycle
     * reservation/compute-queue walks: the earliest pending compute
     * commit (exact — recomputed whenever the commit walk runs, and
     * pushes only lower it), and per-FU-type in-flight counts that
     * stand in for walking computeQueue to accrue fuBusyCycleSum.
     */
    std::uint64_t nextCommitDue = never;
    std::array<std::uint32_t, hw::numFuTypes> fuInflight{};

    /** Whether the last engine cycle issued anything. */
    bool lastIssuedAny = true;
    // Whether the last cycle applied an address resolution: the
    // ordering snapshot changes the following cycle, so idle spans
    // must not be fast-forwarded across it.
    bool lastScanResolvedAddr = false;

    core::EngineStats stats;
    bool failed = false;
    std::string failReason;
};

/**
 * Capture-once cache shared by sweep workers: the first caller of a
 * key runs @p build (a full capture simulation); concurrent callers
 * for the same key block on its completion and share the entry.
 */
class TraceCache
{
  public:
    struct Entry
    {
        core::DynTrace trace;
        /** Keeps the kernel module (and thus fn) alive. */
        std::shared_ptr<void> holder;
        const ir::Function *fn = nullptr;
        /** Shared scheduling skeleton (see buildReplayPrep). */
        std::shared_ptr<const ReplayPrep> prep;
        /** Wall seconds the capture run took (telemetry). */
        double captureSeconds = 0.0;
    };

    using EntryPtr = std::shared_ptr<const Entry>;

    /**
     * Return the entry for @p key, running @p build to create it if
     * this is the first request. Exceptions from @p build propagate
     * to every waiter of that key.
     */
    EntryPtr getOrBuild(const std::string &key,
                        const std::function<Entry()> &build);

  private:
    std::mutex mutex;
    std::unordered_map<std::string, std::shared_future<EntryPtr>>
        entries;
};

} // namespace salam::drive

#endif // SALAM_DRIVE_TRACE_REPLAY_HH
