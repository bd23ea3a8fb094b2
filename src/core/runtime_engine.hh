/**
 * @file
 * RuntimeEngine: gem5-SALAM's dynamic LLVM runtime execution engine.
 *
 * This is the paper's "execute-in-execute" model (Sec. III-B). The
 * engine maintains:
 *
 *  - a reservation queue of dynamic instructions, imported at basic-
 *    block granularity from the static CDFG;
 *  - a compute queue of in-flight operations occupying functional
 *    units until their latency elapses;
 *  - asynchronous read/write memory queues that forward requests to
 *    the communications interface and commit on response.
 *
 * Dynamic dependencies are generated as instructions enter the
 * reservation queue: RAW edges to the most recent uncommitted
 * producer of each operand, plus WAW/WAR constraints against the
 * previous dynamic instance of the same static instruction and its
 * readers. Basic-block terminators import the successor block
 * immediately after evaluation, which is what enables loop pipelining
 * and correct data-dependent control — the behaviours trace-based
 * models cannot capture.
 *
 * Issue is event-driven. Each instance counts its uncommitted
 * operand producers; a commit counts down its readers and wakes the
 * ones that reach zero. An instance whose operands are ready and
 * whose import fence has passed is an issue candidate, kept in a
 * window-relative bitmap, and each cycle sweeps only the candidates,
 * in program order — the order the paper's in-order reservation-queue
 * scan visits them. An instance held by the FU hand-off gate (its
 * previous instance has not issued, or still has readers) leaves the
 * candidate set and is re-armed when that instance issues or its last
 * reader captures. Memory disambiguation reads a summary kept up to
 * date as addresses resolve and memory ops commit; updates made
 * during a cycle's sweep become visible at the next cycle.
 *
 * The engine is a plain clock-stepped class (no SimObject coupling)
 * so it can be unit-tested against a scripted memory interface; the
 * ComputeUnit SimObject drives it inside a full system.
 */

#ifndef SALAM_CORE_RUNTIME_ENGINE_HH
#define SALAM_CORE_RUNTIME_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dyn_trace.hh"
#include "ir/eval.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/trace_sink.hh"
#include "sim/statistics.hh"
#include "sim/types.hh"
#include "static_cdfg.hh"

namespace salam::core
{

/** One dynamic instruction in flight. */
struct DynInst
{
    const ir::Instruction *inst = nullptr;
    const StaticInstInfo *staticInfo = nullptr;
    std::uint64_t seq = 0;

    /** First cycle this instance may issue (block-import fence). */
    std::uint64_t minIssueCycle = 0;

    bool issued = false;
    bool committed = false;

    /** Dynamic consumers that have not issued yet (WAR tracking). */
    unsigned unissuedReaders = 0;

    /** Operand producers that have not committed (issue gate). */
    unsigned pendingOperands = 0;

    /** End of a reader-edge list. */
    static constexpr std::uint32_t noReader = ~0u;

    /**
     * Head of the list of instances bound to this one as an operand
     * producer, one edge per operand slot, in the engine's recycled
     * edge pool; woken and released at commit.
     */
    std::uint32_t firstReader = noReader;

    /** Previous dynamic instance of the same static instruction. */
    DynInst *prevInstance = nullptr;

    /** Next dynamic instance (for safe window retirement). */
    DynInst *nextInstance = nullptr;

    /** Producer instance for each operand (null when committed). */
    std::vector<DynInst *> producers;

    /** Captured operand values (filled at issue). */
    std::vector<ir::RuntimeValue> operandValues;

    ir::RuntimeValue result;

    /** Cycle the result commits (valid once issued, compute ops). */
    std::uint64_t commitCycle = 0;
    std::uint64_t issueCycle = 0;

    /** Tick at issue (recorded only while event tracing is on). */
    Tick issueTick = 0;

    // Memory-op state.
    bool isLoad = false;
    bool isStore = false;
    bool addrKnown = false;
    bool memInFlight = false;
    std::uint64_t memAddr = 0;
    unsigned memSize = 0;
    /** Position in program memory order (disambiguation). */
    std::uint64_t memSeq = 0;

    // Profiling state, maintained only while a profiler is attached.
    /** Commit cycle of the latest dynamic operand producer. */
    std::uint64_t prodReadyCycle = 0;
    /** That producer's seq; obs::noProfSeq without one. */
    std::uint64_t prodParentSeq = obs::noProfSeq;
    /** Seq of the terminator that imported this instance. */
    std::uint64_t ctrlParentSeq = obs::noProfSeq;
    /**
     * Cause for the control link segment. Control for a prompt
     * import; a memory cause when the import was deferred mostly
     * behind in-flight memory operations.
     */
    obs::ProfCause ctrlLinkCause = obs::ProfCause::Control;
    /** Last reason this instance was seen blocked while ready. */
    obs::ProfCause waitCause = obs::ProfCause::DataDep;
    /** mem::Packet service annotations copied from the response. */
    unsigned memServiceFlags = 0;

    bool isMemory() const { return isLoad || isStore; }

    /**
     * Return to freshly-constructed state, keeping the capacity of
     * the producer/operand vectors (freelist-arena recycling).
     */
    void
    reset()
    {
        inst = nullptr;
        staticInfo = nullptr;
        seq = 0;
        minIssueCycle = 0;
        issued = false;
        committed = false;
        unissuedReaders = 0;
        pendingOperands = 0;
        prevInstance = nullptr;
        nextInstance = nullptr;
        producers.clear();
        firstReader = noReader;
        operandValues.clear();
        result = ir::RuntimeValue{};
        commitCycle = 0;
        issueCycle = 0;
        issueTick = 0;
        isLoad = false;
        isStore = false;
        addrKnown = false;
        memInFlight = false;
        memAddr = 0;
        memSize = 0;
        memSeq = 0;
        prodReadyCycle = 0;
        prodParentSeq = obs::noProfSeq;
        ctrlParentSeq = obs::noProfSeq;
        ctrlLinkCause = obs::ProfCause::Control;
        waitCause = obs::ProfCause::DataDep;
        memServiceFlags = 0;
    }
};

/** Per-run statistics, the raw material for Figs. 13-15. */
struct EngineStats
{
    std::uint64_t totalCycles = 0;
    /** Cycles with at least one new instruction issued. */
    std::uint64_t newExecCycles = 0;
    /** Active cycles where nothing new could be scheduled. */
    std::uint64_t stallCycles = 0;

    // Stall-cycle breakdown by what was in flight while stalled.
    std::uint64_t stallLoadOnly = 0;
    std::uint64_t stallStoreOnly = 0;
    std::uint64_t stallComputeOnly = 0;
    std::uint64_t stallLoadCompute = 0;
    std::uint64_t stallStoreCompute = 0;
    std::uint64_t stallLoadStore = 0;
    std::uint64_t stallLoadStoreCompute = 0;
    std::uint64_t stallEmpty = 0;

    // Issue counts.
    std::uint64_t loadsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t fpOpsIssued = 0;
    std::uint64_t intOpsIssued = 0;
    std::uint64_t otherOpsIssued = 0;
    std::uint64_t dynamicInstructions = 0;
    /** Dynamic instructions retired (forward-progress signal). */
    std::uint64_t committedInstructions = 0;

    // Allocation pressure (host telemetry): DynInst requests served
    // from the freelist vs ones that grew the arena with a heap
    // allocation.
    std::uint64_t arenaHits = 0;
    std::uint64_t arenaMisses = 0;

    // Cycle-granularity scheduling overlap (Fig. 15).
    std::uint64_t cyclesWithLoadIssue = 0;
    std::uint64_t cyclesWithStoreIssue = 0;
    std::uint64_t cyclesWithFpIssue = 0;
    std::uint64_t cyclesWithLoadAndStoreIssue = 0;
    std::uint64_t cyclesWithLoadAndFpIssue = 0;

    /** Σ over cycles of busy units, per FU type (occupancy). */
    std::array<std::uint64_t, hw::numFuTypes> fuBusyCycleSum{};

    // Dynamic energy (pJ) accumulated over the run.
    double fuEnergyPj = 0.0;
    double registerReadEnergyPj = 0.0;
    double registerWriteEnergyPj = 0.0;

    /** Stalled cycles where a load (and possibly compute) blocked. */
    std::uint64_t
    stallsInvolvingMemory() const
    {
        return stallLoadOnly + stallStoreOnly + stallLoadStore +
               stallLoadCompute + stallStoreCompute +
               stallLoadStoreCompute;
    }
};

/**
 * Host-side work of the issue scheduler over one run: how much the
 * scheduler did, not what was simulated, so it is kept apart from
 * EngineStats (which the trace replay reproduces field by field).
 */
struct SchedulerWork
{
    /** Issue candidates the per-cycle sweep visited. */
    std::uint64_t visits = 0;
    /** Instances that entered the issue-candidate set. */
    std::uint64_t wakeups = 0;
    /** Inserts into and removals from the disambiguation summary. */
    std::uint64_t summaryUpdates = 0;
};

/**
 * Observability attachments for one engine. All fields are optional;
 * a default-constructed observer keeps the engine silent. The owner
 * (ComputeUnit) wires the registry-owned stats and the simulation's
 * trace sink here; the plain clock-stepped engine stays decoupled
 * from SimObject and can still be unit-tested bare.
 */
struct EngineObserver
{
    /** Object name used in trace lines and event records. */
    std::string name = "engine";

    /** Tick stamp source; when null, the cycle count is the stamp. */
    std::function<Tick()> now;

    /** Ticks per engine cycle (for event durations). */
    Tick cyclePeriod = 1;

    /** Event-trace sink (counters + per-op slices); may be null. */
    obs::TraceSink *sink = nullptr;

    /** Sampled each cycle with loads+stores in flight. */
    Histogram *memQueueOccupancy = nullptr;

    /** Sampled each cycle with the reservation-queue depth. */
    Histogram *reservationOccupancy = nullptr;

    /** Stall-cause lanes, in RuntimeEngine::stallLaneNames() order. */
    VectorStat *stallCauses = nullptr;

    /** Issue-class lanes, in RuntimeEngine::issueLaneNames() order. */
    VectorStat *issueClasses = nullptr;

    /** Dynamic-CDFG recorder; one node per commit. May be null. */
    obs::Profiler *profiler = nullptr;
};

/**
 * The owner-side interface the engine calls into (ComputeUnit in a
 * full system, a scripted stub in unit tests). A narrow virtual
 * interface instead of per-call std::function hooks: these are the
 * engine's hottest upcalls (every memory issue, every cycle).
 */
class EngineClient
{
  public:
    virtual ~EngineClient() = default;

    /**
     * Issue a memory operation to the communications interface.
     * For stores, op->operandValues[0] holds the data. Returns
     * false when the interface cannot accept it this cycle.
     */
    virtual bool engineIssueMemory(DynInst *op) = 0;

    /** Called when the engine has future work to do. */
    virtual void engineRequestTick() = 0;

    /** Called once when execution completes. */
    virtual void engineDone() {}
};

/** The dynamic engine. */
class RuntimeEngine
{
  public:
    RuntimeEngine(const StaticCdfg &cdfg, const DeviceConfig &config,
                  EngineClient &client);

    /** Begin execution with the given argument values. */
    void start(const std::vector<ir::RuntimeValue> &args);

    /** Advance one accelerator clock cycle. */
    void cycle();

    /**
     * Deliver a memory response for @p op. Loads carry @p data of
     * @p size bytes. May arrive between engine cycles.
     */
    void memoryResponse(DynInst *op, const std::uint8_t *data,
                        unsigned size);

    bool running() const { return active; }

    bool finished() const { return completed; }

    std::uint64_t currentCycle() const { return cycleCount; }

    const EngineStats &stats() const { return engineStats; }

    const SchedulerWork &schedulerWork() const { return work; }

    const DeviceConfig &config() const { return cfg; }

    const StaticCdfg &cdfg() const { return staticCdfg; }

    /** In-flight loads (read queue occupancy). */
    unsigned readsInFlight() const { return loadsInFlight; }

    unsigned writesInFlight() const { return storesInFlight; }

    /** Attach (or replace) the observability wiring. */
    void setObserver(EngineObserver obs) { observer = std::move(obs); }

    /**
     * Capture this run's dynamic trace into @p trace (see
     * dyn_trace.hh): one record per dynamic instance, with branch
     * outcomes and resolved addresses filled in as the run decides
     * them. Attach before start(); pass nullptr to detach. The
     * engine only appends — capturedBlockSequential is the caller's.
     */
    void setTraceCapture(DynTrace *trace) { capture = trace; }

    /** Lane names for EngineObserver::stallCauses, in lane order. */
    static const std::vector<std::string> &stallLaneNames();

    /** Lane names for EngineObserver::issueClasses, in lane order. */
    static const std::vector<std::string> &issueLaneNames();

    /**
     * Append the scheduler's live state — reservation, compute, and
     * memory queues, in-flight counts, pending block import — to a
     * watchdog state dump.
     */
    void dumpState(obs::JsonBuilder &json) const;

  private:
    /** Stall-cause lane indices (stallLaneNames() order). */
    enum StallLane : std::size_t
    {
        laneLoadOnly = 0,
        laneStoreOnly,
        laneComputeOnly,
        laneLoadCompute,
        laneStoreCompute,
        laneLoadStore,
        laneLoadStoreCompute,
        laneEmpty,
        numStallLanes
    };

    /** Issue-class lane indices (issueLaneNames() order). */
    enum IssueLane : std::size_t
    {
        laneLoad = 0,
        laneStore,
        laneFp,
        laneInt,
        laneOther,
        numIssueLanes
    };

    /** Trace timestamp: wall tick when wired, cycle count bare. */
    Tick
    obsNow() const
    {
        return observer.now ? observer.now() : Tick{cycleCount};
    }
    /** Import @p block's instructions into the reservation queue. */
    void importBlock(const ir::BasicBlock *block,
                     const ir::BasicBlock *from);

    /** Create the dynamic instance of @p info's instruction. */
    DynInst *createDynInst(const StaticInstInfo &info);

    /** Pop a recycled DynInst from the arena (or grow it). */
    DynInst *acquireDynInst();

    /** Return a retired DynInst to the arena freelist. */
    void releaseDynInst(DynInst *di) { freeList.push_back(di); }

    /** Link @p reader into @p producer's reader-edge list. */
    void addReader(DynInst *producer, DynInst *reader);

    /** Double the window ring (and its candidate bitmap). */
    void growWindow();

    DynInst *
    windowAt(std::uint64_t seq) const
    {
        return windowRing[seq & (windowRing.size() - 1)];
    }

    std::uint64_t &
    candidateWord(std::uint64_t seq)
    {
        return candBits[(seq >> 6) & (candBits.size() - 1)];
    }

    /** Enter @p di into the issue-candidate set. */
    void setCandidate(DynInst *di);

    void
    clearCandidate(const DynInst *di)
    {
        candidateWord(di->seq) &= ~(1ull << (di->seq & 63));
    }

    /**
     * Make @p di a candidate if its operands are ready and its
     * fence has passed (a later fence is handled at the fence).
     */
    void wake(DynInst *di);

    /** Mark @p di issued this cycle and re-arm its successor. */
    void markIssued(DynInst *di);

    /** Capture operand values (producers committed by now). */
    void captureOperands(DynInst *di);

    /**
     * FU hand-off gate: the previous instance of @p di's
     * instruction has issued and every reader of its result has
     * captured it. It opens only when that instance issues or its
     * last reader captures, and both re-arm the waiting instance.
     */
    bool handOffOpen(const DynInst &di) const;

    /** Initiation interval and pool checks for @p di's FU. */
    bool fuAvailable(const DynInst &di) const;

    void occupyFu(DynInst *di);

    /** Try to resolve a memory op's effective address. */
    void resolveAddress(DynInst *di);

    /**
     * @p di's pointer producer committed: resolve the address at
     * the first sweep that reaches @p di in program order.
     */
    void noteAddressReady(DynInst *di);

    /** Freeze the unresolved-address bounds for this cycle's sweep. */
    void snapshotUnknowns();

    /** Summary update for @p op (resolved, or committed). */
    void updateSummary(const DynInst *op, bool committed);

    /** Memory ordering: may @p di access memory now? */
    bool memoryOrderingAllows(const DynInst &di) const;

    /** Per-cycle issue results, shared by the sweep's visits. */
    struct IssueTally
    {
        unsigned loads = 0;
        unsigned stores = 0;
        unsigned fp = 0;
        bool any = false;
        bool loadBlocked = false;
        bool storeBlocked = false;
    };

    /** Try to issue candidate @p di this cycle. */
    void visit(DynInst *di, IssueTally &tally);

    void issueCompute(DynInst *di);

    void commit(DynInst *di);

    /** Emit @p di's dynamic-CDFG node (profiler is attached). */
    void recordProfile(DynInst *di);

    /** Drop fully retired instructions from the window front. */
    void pruneWindow();

    void recordCycleStats(const IssueTally &tally);

    void finish();

    const StaticCdfg &staticCdfg;
    DeviceConfig cfg;
    EngineClient &client;

    bool active = false;
    bool completed = false;
    bool retSeen = false;
    std::uint64_t cycleCount = 0;
    std::uint64_t nextSeq = 0;

    /**
     * The instruction window (reservation + in-flight + retired but
     * still referenced): the contiguous seq range [windowFront,
     * nextSeq), held in a power-of-two ring indexed by seq. Entries
     * are arena-pooled: retirement returns them to the freelist
     * instead of deallocating.
     */
    std::vector<DynInst *> windowRing;
    std::uint64_t windowFront = 0;

    /** Every seq below this one has issued (sweep lower bound). */
    std::uint64_t firstUnissued = 0;

    /**
     * Issue candidates, one bit per window seq (same ring indexing
     * as windowRing): unissued, fence passed, operands ready, and
     * not held by the FU hand-off gate.
     */
    std::vector<std::uint64_t> candBits;

    /** Backing storage for every DynInst ever created (arena). */
    std::vector<std::unique_ptr<DynInst>> arena;

    /** Retired instances ready for reuse. */
    std::vector<DynInst *> freeList;

    /**
     * Reader edges (DynInst::firstReader lists), recycled through
     * freeReaderEdge, so the pool is sized by the live RAW edges of
     * the window, not by the run.
     */
    struct ReaderEdge
    {
        DynInst *reader;
        std::uint32_t next;
    };
    std::vector<ReaderEdge> readerEdges;
    std::uint32_t freeReaderEdge = DynInst::noReader;

    /** Unissued instructions in the window (reservation queue). */
    std::size_t unissuedCount = 0;

    /**
     * Instances imported this cycle; their fence passes next cycle,
     * when fencedNow holds them for the sweep's fence step.
     */
    std::vector<DynInst *> fenced;
    std::vector<DynInst *> fencedNow;

    /** Address resolutions due at a cycle's sweep: (cycle, op). */
    std::vector<std::pair<std::uint64_t, DynInst *>> resolveDue;

    /** True during the issue sweep; scanCursor is the visited seq. */
    bool inScan = false;
    std::uint64_t scanCursor = 0;

    /** Issued compute ops waiting to commit, ordered by cycle. */
    std::vector<DynInst *> computeQueue;

    /** Earliest commitCycle in computeQueue (~0 when empty). */
    std::uint64_t nextCommitDue = ~0ull;

    /** computeQueue entries per FU type (occupancy statistics). */
    std::array<std::uint64_t, hw::numFuTypes> fuInflight{};

    /** Memory ops in window, in program order (for ordering). */
    std::deque<DynInst *> memoryOrder;

    /** One uncommitted memory reference in the summary. */
    struct MemRef
    {
        std::uint64_t seq;
        std::uint64_t addr;
        unsigned size;
    };

    /**
     * Disambiguation summary: uncommitted memory ops with a resolved
     * address, ascending by memSeq. Resolutions and commits during
     * a sweep queue in summaryPending and apply after it, so the
     * ordering check sees the state as of the sweep's start.
     */
    std::vector<MemRef> knownStores;
    std::vector<MemRef> knownLoads;
    std::vector<std::pair<const DynInst *, bool>> summaryPending;

    /**
     * Oldest unresolved store/load (memSeq, ~0 when none) as of the
     * sweep's start, and the monotone cursors that find them.
     */
    std::uint64_t snapUnknownStore = ~0ull;
    std::uint64_t snapUnknownLoad = ~0ull;
    std::uint64_t unknownStoreCursor = 0;
    std::uint64_t unknownLoadCursor = 0;
    std::uint64_t nextMemSeq = 0;

    /**
     * Latest in-window dynamic instance per static instruction,
     * indexed by StaticInstInfo::id (null = none in window).
     */
    std::vector<DynInst *> latestInstance;

    /**
     * Last committed value per static value, indexed by the dense
     * value id (arguments first, then instruction results);
     * committedKnown marks slots that have ever committed.
     */
    std::vector<ir::RuntimeValue> committedValues;
    std::vector<unsigned char> committedKnown;

    /** Pool FU release times: per type, per unit, free-at cycle. */
    std::array<std::vector<std::uint64_t>, hw::numFuTypes> poolFreeAt;

    /** Pending block import deferred by a full reservation queue. */
    const ir::BasicBlock *pendingImport = nullptr;
    const ir::BasicBlock *pendingImportFrom = nullptr;

    /** Terminator seq behind the import in progress (profiling). */
    std::uint64_t importCtrlSeq = obs::noProfSeq;
    std::uint64_t pendingImportCtrlSeq = obs::noProfSeq;

    /** Link cause handed to instances of the import in progress. */
    obs::ProfCause importCtrlCause = obs::ProfCause::Control;

    /**
     * Cycles the pending import has been deferred with (memory ops
     * in flight) vs. (no memory in flight). The majority decides
     * whether the eventual control link is charged to the memory
     * system or to control flow.
     */
    std::uint64_t importMemWaitCycles = 0;
    std::uint64_t importOtherWaitCycles = 0;

    unsigned loadsInFlight = 0;
    unsigned storesInFlight = 0;
    /** Ready-but-port-blocked memory ops seen this cycle. */
    bool memStallLoadBlocked = false;
    bool memStallStoreBlocked = false;

    SchedulerWork work;
    EngineStats engineStats;
    EngineObserver observer;

    /** Dynamic-trace capture sink; null = capture off (hot path). */
    DynTrace *capture = nullptr;
};

} // namespace salam::core

#endif // SALAM_CORE_RUNTIME_ENGINE_HH
