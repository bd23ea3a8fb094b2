/**
 * @file
 * DynTrace: a reusable dynamic-execution trace of one (kernel,
 * input) pair.
 *
 * The trace-reuse fast path (Sec. "incremental simulation") runs the
 * full execute-in-execute engine once with capture enabled, recording
 * per dynamic instance everything that depends on *data*: the static
 * instruction executed, the control edge each terminator took, and
 * every resolved memory address. A TraceReplayer can then re-schedule
 * the identical instruction stream under different FU counts, port
 * limits, queue sizes, and memory latencies without re-executing a
 * single operand — those knobs change *when* instances issue, never
 * *which* instances exist or *where* they touch memory.
 *
 * The record is deliberately minimal: one 24-byte POD per dynamic
 * instance, indexed by the engine's dynamic seq. Operand values are
 * NOT stored — replays never evaluate, so they only need the
 * dependence shape (already in the StaticCdfg) plus the data-driven
 * outcomes captured here.
 */

#ifndef SALAM_CORE_DYN_TRACE_HH
#define SALAM_CORE_DYN_TRACE_HH

#include <cstdint>
#include <vector>

namespace salam::core
{

/** Per-dynamic-instance capture record (index == engine seq). */
struct DynTraceInst
{
    /** StaticInstInfo::id of the instruction executed. */
    std::uint32_t staticId = 0;

    /**
     * For terminators: StaticBlockInfo::id of the successor block
     * the branch imported (noBranchTarget for everything else,
     * including ret).
     */
    std::uint32_t branchTarget = ~0u;

    /** Resolved effective address (memory ops). */
    std::uint64_t memAddr = 0;

    /** Access size in bytes (memory ops; 0 otherwise). */
    std::uint32_t memSize = 0;
};

/** One captured execution of one (kernel, input) pair. */
struct DynTrace
{
    static constexpr std::uint32_t noBranchTarget = ~0u;

    /**
     * DeviceConfig::blockSequentialImport at capture time. The one
     * scheduling knob that changes which dynamic instances exist
     * (FSM-style drain points alter import timing but, more to the
     * point, a replay under the other mode has no captured drain
     * semantics to honour) — a mismatch forces full simulation.
     */
    bool capturedBlockSequential = false;

    /** The dynamic instruction stream, in seq order. */
    std::vector<DynTraceInst> insts;

    bool empty() const { return insts.empty(); }
};

} // namespace salam::core

#endif // SALAM_CORE_DYN_TRACE_HH
