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
 * Instances are 64-byte records in a seq-indexed slab of fixed-size
 * chunks; their operands live in a ring of slots allocated in seq
 * order. Once the window has reached its deepest point, the
 * per-instruction path allocates nothing.
 *
 * The engine is a plain clock-stepped class (no SimObject coupling)
 * so it can be unit-tested against a scripted memory interface; the
 * ComputeUnit SimObject drives it inside a full system.
 */

#ifndef SALAM_CORE_RUNTIME_ENGINE_HH
#define SALAM_CORE_RUNTIME_ENGINE_HH

#include <array>
#include <cstdint>
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

/**
 * One dynamic instruction in flight: the hot record, exactly one
 * cache line, holding what the issue sweep, wake-up, commit and
 * window retirement read. Records live in the engine's seq-indexed
 * slab; operand producers and values live in the engine's operand
 * ring, a memory op's address in its memory-order ring, and
 * profiling state in a cold record beside the hot one.
 */
struct alignas(64) DynInst
{
    /** Bits of `flags`. */
    enum Flag : std::uint8_t
    {
        Issued = 1u << 0,
        Committed = 1u << 1,
        /** Past the block-import fence (may issue). */
        FenceOpen = 1u << 2,
        /** Memory ops: the effective address has resolved. */
        AddrKnown = 1u << 3,
        /** Memory ops: issued to the client, no response yet. */
        MemInFlight = 1u << 4,
    };

    /** End of a reader-edge list. */
    static constexpr std::uint32_t noReader = ~0u;

    std::uint64_t seq = 0;

    ir::RuntimeValue result;

    /** Cycle this instance issued (valid once issued). */
    std::uint64_t issueCycle = 0;

    /** Previous dynamic instance of the same static instruction. */
    DynInst *prevInstance = nullptr;

    /** Next dynamic instance (for safe window retirement). */
    DynInst *nextInstance = nullptr;

    /**
     * Head of the list of instances bound to this one as an operand
     * producer, one edge per operand slot, in the engine's recycled
     * edge pool; woken and released at commit.
     */
    std::uint32_t firstReader = noReader;

    /** Low 32 bits of the position of operand slot 0 in the ring. */
    std::uint32_t operandBase = 0;

    /** Dynamic consumers that have not issued yet (WAR tracking). */
    std::uint32_t unissuedReaders = 0;

    /** StaticInstInfo::id of the instruction. */
    std::uint32_t staticId = 0;

    /** Memory ops: low 32 bits of the memory-order position. */
    std::uint32_t memSlot = 0;

    /** Operand producers that have not committed (issue gate). */
    std::uint16_t pendingOperands = 0;

    OpKind kind = OpKind::Compute;

    /** Flag bits, all clear at import. */
    std::uint8_t flags = 0;

    bool has(Flag f) const { return (flags & f) != 0; }

    void set(Flag f) { flags |= f; }

    void clear(Flag f) { flags &= static_cast<std::uint8_t>(~f); }

    bool issued() const { return has(Issued); }

    bool committed() const { return has(Committed); }

    bool isLoad() const { return kind == OpKind::Load; }

    bool isStore() const { return kind == OpKind::Store; }

    bool isMemory() const { return isLoad() || isStore(); }
};

static_assert(sizeof(DynInst) == 64, "DynInst is one cache line");

/**
 * A memory access the engine hands its client (EngineClient::
 * engineIssueMemory) to perform.
 */
struct MemAccess
{
    /** The issuing instance, handed back with the response. */
    DynInst *op = nullptr;
    std::uint64_t addr = 0;
    unsigned size = 0;
    bool isLoad = false;
    /** Stores: the value operand's bits (little-endian). */
    std::uint64_t storeBits = 0;

    /** The bytes a store writes. */
    const void *storeData() const { return &storeBits; }
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

    // Allocation pressure (host telemetry): an instance created while
    // the live window (nextSeq - windowFront) is at its high-water
    // mark is a miss (it grows the slab's record count), any other a
    // hit (it reuses a retired record). Only window retirement frees
    // a record, so these are exactly a freelist arena's counts.
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
     * Issue a memory access to the communications interface.
     * Returns false when the interface cannot accept it this cycle.
     */
    virtual bool engineIssueMemory(const MemAccess &access) = 0;

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
     * @p size bytes; @p service_flags are the response's
     * mem::ServiceFlags. May arrive between engine cycles.
     */
    void memoryResponse(DynInst *op, const std::uint8_t *data,
                        unsigned size, unsigned service_flags);

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

    /**
     * Attach (or replace) the observability wiring. A profiler
     * attached after the first cycle records the instances already
     * in the window with an approximate ready cycle.
     */
    void setObserver(EngineObserver obs);

    /**
     * Instances the slab's first chunk table covers under @p config;
     * a deeper window doubles the table.
     */
    static std::size_t initialWindowCapacity(const DeviceConfig &config);

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

    /** A memory op in the window, in program memory order. */
    struct MemOp
    {
        DynInst *op;
        /** Effective address (valid once resolved). */
        std::uint64_t addr;
        /** mem::ServiceFlags copied from the response. */
        unsigned serviceFlags;
    };

    /** No block (pending import slot empty). */
    static constexpr std::uint32_t noBlock = ~0u;

    /**
     * Cold per-instance state, kept beside the hot record and
     * written only while a profiler (or, for issueTick, a trace
     * sink) is attached.
     */
    struct DynProfile
    {
        /** First cycle the instance could issue (import fence). */
        std::uint64_t minIssueCycle;
        std::uint64_t commitCycle;
        /** Tick at issue (event tracing). */
        Tick issueTick;
        /** Commit cycle of the latest dynamic operand producer. */
        std::uint64_t prodReadyCycle;
        /** That producer's seq; obs::noProfSeq without one. */
        std::uint64_t prodParentSeq;
        /** Seq of the terminator that imported this instance. */
        std::uint64_t ctrlParentSeq;
        /**
         * Cause for the control link segment. Control for a prompt
         * import; a memory cause when the import was deferred mostly
         * behind in-flight memory operations.
         */
        obs::ProfCause ctrlLinkCause;
        /** Last reason this instance was seen blocked while ready. */
        obs::ProfCause waitCause;
    };

    /**
     * The window's records: seq s lives at slot s % chunkSize of
     * the chunk for s / chunkSize. Chunks are fixed-size and never
     * move, so a DynInst pointer stays valid while its seq is in the
     * window; a chunk wholly behind the window front is recycled for
     * the next chunk the window enters. The chunk table is a
     * power-of-two ring of chunk pointers that doubles when the
     * window spans more chunks than it holds.
     */
    class Slab
    {
      public:
        static constexpr unsigned chunkBits = 8;
        static constexpr std::uint64_t chunkSize = 1ull << chunkBits;

        explicit Slab(std::size_t capacity);

        DynInst &
        at(std::uint64_t seq) const
        {
            return chunkOf(seq).insts[seq & (chunkSize - 1)];
        }

        DynProfile &
        profileAt(std::uint64_t seq) const
        {
            return chunkOf(seq).profile[seq & (chunkSize - 1)];
        }

        /**
         * The record for @p seq, the window's next seq, given the
         * window front @p front; enters a new chunk when @p seq
         * starts one.
         */
        DynInst &claim(std::uint64_t seq, std::uint64_t front);

        /** The front moved from @p old_front to @p new_front. */
        void retire(std::uint64_t old_front, std::uint64_t new_front);

      private:
        struct Chunk
        {
            std::array<DynInst, chunkSize> insts;
            std::array<DynProfile, chunkSize> profile;
        };

        Chunk &
        chunkOf(std::uint64_t seq) const
        {
            return *table[(seq >> chunkBits) & (table.size() - 1)];
        }

        /** Chunk table, indexed by chunk number modulo its size. */
        std::vector<Chunk *> table;
        /** Every chunk ever allocated (ownership). */
        std::vector<std::unique_ptr<Chunk>> chunks;
        /** Chunks behind the window front, ready for reuse. */
        std::vector<Chunk *> spare;
    };

    /** A profiling record for an instance imported now. */
    static DynProfile freshProfile(std::uint64_t min_issue_cycle,
                                   std::uint64_t ctrl_parent,
                                   obs::ProfCause ctrl_cause);

    /** Trace timestamp: wall tick when wired, cycle count bare. */
    Tick
    obsNow() const
    {
        return observer.now ? observer.now() : Tick{cycleCount};
    }

    const StaticInstInfo &
    info(const DynInst &di) const
    {
        return infos[di.staticId];
    }

    DynInst *
    windowAt(std::uint64_t seq) const
    {
        return &slab.at(seq);
    }

    /** Ring index of operand slot @p i of @p di. */
    std::size_t
    slotIndex(const DynInst &di, unsigned i) const
    {
        return (std::size_t{di.operandBase} + i) & (slotValues.size() - 1);
    }

    /** Memory-order ring entry of memory op @p di. */
    MemOp &
    memOpOf(const DynInst &di)
    {
        return memRing[di.memSlot & (memRing.size() - 1)];
    }

    const MemOp &
    memOpOf(const DynInst &di) const
    {
        return memRing[di.memSlot & (memRing.size() - 1)];
    }

    /** Import block @p block_id's instructions (entered from @p from). */
    void importBlock(std::uint32_t block_id, std::uint32_t from);

    /** Create the dynamic instance of @p info's instruction. */
    DynInst *createDynInst(const StaticInstInfo &info);

    /** Reserve @p n contiguous operand slots; returns the first. */
    std::uint64_t allocSlots(unsigned n);

    /** Double the operand ring, keeping live slots in place. */
    void growSlots();

    /** Double the memory-order ring. */
    void growMemRing();

    /** Link @p reader into @p producer's reader-edge list. */
    void addReader(DynInst *producer, DynInst *reader);

    /** Double the candidate bitmap (and its summary). */
    void growCandidates();

    std::uint64_t &
    candidateWord(std::uint64_t seq)
    {
        return candBits[(seq >> 6) & (candBits.size() - 1)];
    }

    /** Enter @p di into the issue-candidate set. */
    void setCandidate(DynInst *di);

    /** Take @p di out of the issue-candidate set. */
    void clearCandidate(const DynInst *di);

    /**
     * First seq in [@p seq, @p end) that starts a nonzero candidate
     * word (@p seq is word-aligned), or @p end if there is none.
     */
    std::uint64_t nextCandidateWord(std::uint64_t seq,
                                    std::uint64_t end) const;

    /**
     * Make @p di a candidate if its operands are ready and its
     * fence has passed (a later fence is handled at the fence).
     */
    void wake(DynInst *di);

    /** Mark @p di issued this cycle and re-arm its successor. */
    void markIssued(DynInst *di);

    /** Capture operand values (producers committed by now). */
    void captureOperands(DynInst *di, const StaticInstInfo &si);

    /** Captured value of operand slot @p i of @p di. */
    ir::RuntimeValue
    operandValue(const DynInst &di, unsigned i) const
    {
        return slotValues[slotIndex(di, i)];
    }

    /**
     * FU hand-off gate: the previous instance of @p di's
     * instruction has issued and every reader of its result has
     * captured it. It opens only when that instance issues or its
     * last reader captures, and both re-arm the waiting instance.
     */
    bool handOffOpen(const DynInst &di) const;

    /** Initiation interval and pool checks for @p di's FU. */
    bool fuAvailable(const DynInst &di, const StaticInstInfo &si) const;

    void occupyFu(const StaticInstInfo &si);

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
    bool memoryOrderingAllows(const DynInst &di,
                              const StaticInstInfo &si) const;

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

    /** Record @p di's issue class in the stats and lanes. */
    void countIssue(IssueClass cls, IssueTally &tally);

    void issueCompute(DynInst *di, const StaticInstInfo &si);

    void commit(DynInst *di);

    /** Note why ready @p di did not issue (profiling only). */
    void
    noteWait(const DynInst *di, obs::ProfCause cause)
    {
        if (observer.profiler != nullptr)
            slab.profileAt(di->seq).waitCause = cause;
    }

    /** Emit @p di's dynamic-CDFG node (profiler is attached). */
    void recordProfile(const DynInst *di);

    /** Drop fully retired instructions from the window front. */
    void pruneWindow();

    void recordCycleStats(const IssueTally &tally);

    void finish();

    const StaticCdfg &staticCdfg;
    DeviceConfig cfg;
    EngineClient &client;
    /** staticCdfg's instruction infos, indexed by static id. */
    const StaticInstInfo *infos;

    bool active = false;
    bool completed = false;
    bool retSeen = false;
    std::uint64_t cycleCount = 0;
    std::uint64_t nextSeq = 0;

    /**
     * The instruction window (reservation + in-flight + retired but
     * still referenced): the contiguous seq range [windowFront,
     * nextSeq), its records in the slab.
     */
    Slab slab;
    std::uint64_t windowFront = 0;

    /** Largest window so far (arena hit/miss accounting). */
    std::uint64_t windowHighWater = 0;

    /** Every seq below this one has issued (sweep lower bound). */
    std::uint64_t firstUnissued = 0;

    /**
     * Issue candidates, one bit per window seq in a power-of-two
     * ring: unissued, fence passed, operands ready, and not held by
     * the FU hand-off gate.
     */
    std::vector<std::uint64_t> candBits;

    /**
     * One bit per candBits word, set while the word is nonzero, so
     * the sweep skips empty stretches of the window 4096 seqs at a
     * time. candBits has a multiple of 64 words.
     */
    std::vector<std::uint64_t> candSummary;

    /**
     * Operand slots, allocated in seq order at import and released
     * as the window front passes: the producer bound to each slot
     * (null once captured, or when the value was available at
     * import) and the slot's value. An instance's slots are
     * contiguous (an allocation that would wrap skips to the ring
     * start), so its values form one ir::OperandSpan. Positions
     * [slotFront, slotHead) are live.
     */
    std::vector<DynInst *> slotProducers;
    std::vector<ir::RuntimeValue> slotValues;
    std::uint64_t slotHead = 0;
    std::uint64_t slotFront = 0;

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

    /** An issued compute op and the cycle its result commits. */
    struct ComputeEntry
    {
        std::uint64_t commitCycle;
        DynInst *op;
    };

    /** Issued compute ops waiting to commit. */
    std::vector<ComputeEntry> computeQueue;

    /** Earliest commitCycle in computeQueue (~0 when empty). */
    std::uint64_t nextCommitDue = ~0ull;

    /** computeQueue entries per FU type (occupancy statistics). */
    std::array<std::uint64_t, hw::numFuTypes> fuInflight{};

    /**
     * Memory ops in the window, in program order: a power-of-two
     * ring indexed by memory-order position, live over [memFront,
     * nextMemSeq).
     */
    std::vector<MemOp> memRing;
    std::uint64_t memFront = 0;
    std::uint64_t nextMemSeq = 0;

    /** One uncommitted memory reference in the summary. */
    struct MemRef
    {
        /** Instance seq (memory order is seq order). */
        std::uint64_t seq;
        std::uint64_t addr;
        unsigned size;
    };

    /**
     * Disambiguation summary: uncommitted memory ops with a resolved
     * address, ascending by seq. Resolutions and commits during a
     * sweep queue in summaryPending and apply after it, so the
     * ordering check sees the state as of the sweep's start.
     */
    std::vector<MemRef> knownStores;
    std::vector<MemRef> knownLoads;
    std::vector<std::pair<const DynInst *, bool>> summaryPending;

    /**
     * Seq of the oldest unresolved store/load (~0 when none) as of
     * the sweep's start, and the monotone memory-order cursors that
     * find them.
     */
    std::uint64_t snapUnknownStore = ~0ull;
    std::uint64_t snapUnknownLoad = ~0ull;
    std::uint64_t unknownStoreCursor = 0;
    std::uint64_t unknownLoadCursor = 0;

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
    std::uint32_t pendingImport = noBlock;
    std::uint32_t pendingImportFrom = noBlock;

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
