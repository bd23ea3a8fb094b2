/**
 * @file
 * StaticCdfg: the statically elaborated control/data-flow graph.
 *
 * gem5-SALAM's "LLVM Interface" parses the kernel IR once, links
 * every instruction to a virtual functional unit and register, and
 * produces the static skeleton of the datapath arranged at basic-
 * block granularity. The runtime engine instantiates its dynamic
 * CDFG from this structure, and the static power/area estimates come
 * straight from it — independent of any input data (the property
 * trace-based simulators lack).
 */

#ifndef SALAM_CORE_STATIC_CDFG_HH
#define SALAM_CORE_STATIC_CDFG_HH

#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "device_config.hh"
#include "hw/power_model.hh"
#include "ir/eval.hh"
#include "ir/function.hh"

namespace salam::core
{

/**
 * Precomputed binding recipe for one operand slot, resolved once at
 * elaboration so the runtime engine's block import runs on dense
 * integer indices instead of pointer-keyed map lookups.
 */
struct OperandPlan
{
    enum class Kind : unsigned char
    {
        /** Pre-evaluated constant; `constant` holds the value. */
        Constant,
        /** Block/function reference: carries no data. */
        Control,
        /**
         * Produced by another instruction: check the live instance
         * table at `producerId` first, then the committed-value
         * slot at `valueId`.
         */
        Producer,
        /** Function argument: read committed-value slot `valueId`. */
        Committed,
    };

    Kind kind = Kind::Control;
    /** Static id of the producing instruction (Producer only). */
    unsigned producerId = 0;
    /** Dense committed-value slot (Producer and Committed). */
    unsigned valueId = 0;
    /** The evaluated constant (Constant only). */
    ir::RuntimeValue constant{};
};

/** How the runtime engine schedules an instruction's instances. */
enum class OpKind : std::uint8_t
{
    /** Evaluated by ir::evalCompute at issue. */
    Compute,
    /** Forwards the operand of the edge taken. */
    Phi,
    Load,
    Store,
    /** Imports the successor block when it issues. */
    Branch,
    Ret,
};

/** Issue class, in RuntimeEngine::issueLaneNames() order. */
enum class IssueClass : std::uint8_t
{
    Load,
    Store,
    Fp,
    Int,
    Other,
};

/**
 * Static information about one instruction in the datapath. The
 * runtime engine's per-instance path reads only these decoded
 * fields, never the IR; the ones it reads for every instance share
 * the first cache line.
 */
struct alignas(64) StaticInstInfo
{
    const ir::Instruction *inst = nullptr;
    /** Operand register bits read at issue (register energy). */
    double readBits = 0.0;
    hw::FuType fu = hw::FuType::None;
    unsigned latency = 0;
    unsigned initiationInterval = 1;
    /** Operand slots of a dynamic instance: 1 for phis. */
    unsigned numSlots = 0;
    /** Result register width in bits (0 for void results). */
    unsigned resultBits = 0;
    /** Dense committed-value slot this result commits into. */
    unsigned resultValueId = 0;
    /** Bytes a load reads or a store writes. */
    unsigned accessSize = 0;
    /** Unique id across the function (reservation order). */
    unsigned id = 0;
    /** Dense id of the block holding the instruction. */
    unsigned blockId = 0;
    OpKind kind = OpKind::Compute;
    IssueClass issueClass = IssueClass::Other;
    /** The instruction produces a value (non-void result). */
    bool hasResult = false;
    bool isPhi = false;
    /** Branch only: two successors (else ifTrue is the target). */
    bool conditional = false;
    /** Branch only: successor block ids (ifFalse when conditional). */
    unsigned succTrue = 0;
    unsigned succFalse = 0;
    /** Dedicated unit index within its type pool (1-to-1 map). */
    unsigned fuUnit = 0;
    /** Load only: RuntimeValue::mask of the result type, as bits. */
    std::uint64_t loadMask = ~0ull;

    /** Per-operand binding plans (empty for phis). */
    std::vector<OperandPlan> operands;

    /** Phi only: (predecessor block id, plan) per incoming edge. */
    std::vector<std::pair<unsigned, OperandPlan>> phiIncoming;
};

/** Static information about one basic block. */
struct StaticBlockInfo
{
    const ir::BasicBlock *block = nullptr;
    /** Dense block id, in function block order. */
    unsigned id = 0;
    /** Instruction ids are contiguous: [firstInstId, +numInsts). */
    unsigned firstInstId = 0;
    unsigned numInsts = 0;
};

/** The elaborated datapath skeleton. */
class StaticCdfg
{
  public:
    /**
     * Elaborate @p fn under @p config: map instructions to units,
     * size the register file, and compute static power and area.
     */
    StaticCdfg(const ir::Function &fn, const DeviceConfig &config);

    const ir::Function &function() const { return *fn; }

    const StaticInstInfo &info(const ir::Instruction *inst) const;

    /** Look up by dense instruction id (the hot-path accessor). */
    const StaticInstInfo &infoById(unsigned id) const
    { return infoVec[id]; }

    const StaticBlockInfo &blockInfo(const ir::BasicBlock *b) const;

    const StaticBlockInfo &blockInfoById(unsigned id) const
    { return blockInfos[id]; }

    std::size_t numBlocks() const { return blockInfos.size(); }

    /**
     * Size of the dense committed-value space: arguments take slots
     * [0, numArguments), instruction results take
     * numArguments + StaticInstInfo::id.
     */
    std::size_t numValueIds() const
    { return fn->numArguments() + infoVec.size(); }

    /** Instantiated units of @p type (after applying limits). */
    unsigned fuCount(hw::FuType type) const
    { return fuCounts[static_cast<std::size_t>(type)]; }

    /** Static instructions mapped to @p type (before limits). */
    unsigned fuDemand(hw::FuType type) const
    { return fuDemands[static_cast<std::size_t>(type)]; }

    /** Total internal register bits in the datapath. */
    std::uint64_t registerBits() const { return regBits; }

    std::size_t numInstructions() const { return infoVec.size(); }

    /** Leakage power of functional units + registers (mW). */
    double staticFuPowerMw() const { return staticFuMw; }

    double staticRegisterPowerMw() const { return staticRegMw; }

    /** Datapath area (FUs + registers), excluding memories. */
    hw::AreaBreakdown area() const { return areas; }

  private:
    /** Build the per-operand binding plans (after ids exist). */
    void buildPlans();

    /** Decode scheduling kind, successors and sizes (after ids). */
    void decode(StaticInstInfo &info) const;

    OperandPlan planFor(const ir::Value *operand,
                        const ir::Instruction *user) const;

    const ir::Function *fn;
    /** All instruction infos, indexed by dense id. */
    std::vector<StaticInstInfo> infoVec;
    std::unordered_map<const ir::Instruction *, unsigned> idOf;
    std::vector<StaticBlockInfo> blockInfos;
    std::unordered_map<const ir::BasicBlock *, unsigned> blockIdOf;
    std::array<unsigned, hw::numFuTypes> fuCounts{};
    std::array<unsigned, hw::numFuTypes> fuDemands{};
    std::uint64_t regBits = 0;
    double staticFuMw = 0.0;
    double staticRegMw = 0.0;
    hw::AreaBreakdown areas;
};

} // namespace salam::core

#endif // SALAM_CORE_STATIC_CDFG_HH
