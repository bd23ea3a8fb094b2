#include "static_cdfg.hh"

#include "sim/logging.hh"

namespace salam::core
{

using namespace salam::ir;
using namespace salam::hw;

StaticCdfg::StaticCdfg(const Function &fn, const DeviceConfig &config)
    : fn(&fn)
{
    const HardwareProfile &profile = config.profile;

    unsigned id = 0;
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        const BasicBlock *block = fn.block(b);
        StaticBlockInfo binfo;
        binfo.block = block;
        binfo.id = static_cast<unsigned>(b);
        binfo.firstInstId = id;
        binfo.numInsts = static_cast<unsigned>(block->size());
        blockIdOf.emplace(block, binfo.id);
        blockInfos.push_back(binfo);
        for (const auto &inst : *block) {
            StaticInstInfo info;
            info.inst = inst.get();
            info.id = id++;
            info.blockId = binfo.id;
            info.resultValueId =
                static_cast<unsigned>(fn.numArguments()) + info.id;
            info.isPhi = inst->opcode() == Opcode::Phi;
            info.fu = fuTypeFor(*inst);
            info.latency = profile.latencyFor(*inst);
            info.initiationInterval =
                info.fu == FuType::None
                    ? 1
                    : profile.fu(info.fu).initiationInterval;
            if (!inst->type()->isVoid())
                info.resultBits = inst->type()->bitWidth();

            std::size_t fu_index = static_cast<std::size_t>(info.fu);
            if (info.fu != FuType::None) {
                info.fuUnit = fuDemands[fu_index];
                ++fuDemands[fu_index];
            }
            regBits += info.resultBits;

            idOf.emplace(inst.get(), info.id);
            infoVec.push_back(std::move(info));
        }
    }

    for (StaticInstInfo &info : infoVec)
        decode(info);
    buildPlans();

    // Apply resource constraints: the instantiated count is the
    // demand (1-to-1 default) or the user's cap, whichever is lower.
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        unsigned demand = fuDemands[t];
        unsigned limit = config.fuLimits[t];
        fuCounts[t] = (limit == 0) ? demand
                                   : std::min(demand, limit);
        // Re-bind units for capped types (round-robin over the pool).
        if (limit != 0 && fuCounts[t] < demand) {
            unsigned next = 0;
            for (StaticInstInfo &info : infoVec) {
                if (static_cast<std::size_t>(info.fu) == t) {
                    info.fuUnit = next;
                    next = (next + 1) % fuCounts[t];
                }
            }
        }
    }

    // Static (leakage) power and area from the instantiated units.
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        const FuParams &params =
            profile.fu(static_cast<FuType>(t));
        staticFuMw += fuCounts[t] * params.leakagePowerMw;
        areas.fuUm2 += fuCounts[t] * params.areaUm2;
    }
    const RegisterParams &regs = profile.registers();
    staticRegMw = static_cast<double>(regBits) *
        regs.leakagePowerMwPerBit;
    areas.registerUm2 = static_cast<double>(regBits) *
        regs.areaUm2PerBit;
}

void
StaticCdfg::decode(StaticInstInfo &info) const
{
    const Instruction &inst = *info.inst;
    const Opcode op = inst.opcode();
    info.hasResult = !inst.type()->isVoid();
    // The engine counts pending operands in 16 bits.
    if (inst.numOperands() > 0xffff)
        fatal("engine: %%%s has %zu operands (at most 65535)",
              inst.name().c_str(), inst.numOperands());
    info.numSlots = static_cast<unsigned>(inst.numOperands());
    for (std::size_t o = 0; o < inst.numOperands(); ++o)
        info.readBits += inst.operand(o)->type()->bitWidth();

    switch (op) {
      case Opcode::Phi:
        info.kind = OpKind::Phi;
        // One live operand slot: the incoming value of the edge taken.
        info.numSlots = 1;
        break;
      case Opcode::Load:
        info.kind = OpKind::Load;
        info.issueClass = IssueClass::Load;
        info.accessSize =
            static_cast<unsigned>(inst.type()->storeSize());
        info.loadMask = RuntimeValue::mask(inst.type(), ~0ull);
        break;
      case Opcode::Store:
        info.kind = OpKind::Store;
        info.issueClass = IssueClass::Store;
        info.accessSize = static_cast<unsigned>(
            static_cast<const StoreInst &>(inst)
                .value()->type()->storeSize());
        break;
      case Opcode::Br: {
        const auto &br = static_cast<const BranchInst &>(inst);
        info.kind = OpKind::Branch;
        info.conditional = br.isConditional();
        info.succTrue = blockInfo(br.ifTrue()).id;
        if (info.conditional)
            info.succFalse = blockInfo(br.ifFalse()).id;
        break;
      }
      case Opcode::Ret:
        info.kind = OpKind::Ret;
        break;
      default:
        info.kind = OpKind::Compute;
        if (isFloatingPointOp(op) || info.fu == FuType::FpSpecial)
            info.issueClass = IssueClass::Fp;
        else if (info.fu != FuType::None)
            info.issueClass = IssueClass::Int;
        break;
    }
}

OperandPlan
StaticCdfg::planFor(const Value *operand,
                    const Instruction *user) const
{
    OperandPlan plan;
    if (operand->isConstant()) {
        plan.kind = OperandPlan::Kind::Constant;
        plan.constant = evalConstant(operand);
        return plan;
    }
    switch (operand->valueKind()) {
      case Value::ValueKind::BasicBlock:
      case Value::ValueKind::Function:
        plan.kind = OperandPlan::Kind::Control;
        return plan;
      case Value::ValueKind::Instruction: {
        auto it = idOf.find(
            static_cast<const Instruction *>(operand));
        if (it == idOf.end()) {
            panic("engine: operand %%%s of %%%s is outside the "
                  "elaborated function",
                  operand->name().c_str(), user->name().c_str());
        }
        plan.kind = OperandPlan::Kind::Producer;
        plan.producerId = it->second;
        plan.valueId =
            static_cast<unsigned>(fn->numArguments()) + it->second;
        return plan;
      }
      case Value::ValueKind::Argument:
        plan.kind = OperandPlan::Kind::Committed;
        plan.valueId =
            static_cast<const Argument *>(operand)->index();
        return plan;
      default:
        panic("engine: operand %%%s of %%%s has no value",
              operand->name().c_str(), user->name().c_str());
    }
}

void
StaticCdfg::buildPlans()
{
    // A second pass so Producer plans can reference forward ids
    // (loop-carried phis name instructions from later blocks).
    for (StaticInstInfo &info : infoVec) {
        const Instruction *inst = info.inst;
        if (info.isPhi) {
            const auto *phi = static_cast<const PhiInst *>(inst);
            for (std::size_t i = 0; i < phi->numIncoming(); ++i) {
                auto bit = blockIdOf.find(phi->incomingBlock(i));
                if (bit == blockIdOf.end()) {
                    panic("phi %%%s names a block outside the "
                          "function", phi->name().c_str());
                }
                info.phiIncoming.emplace_back(
                    bit->second,
                    planFor(phi->incomingValue(i), inst));
            }
            continue;
        }
        info.operands.reserve(inst->numOperands());
        for (std::size_t o = 0; o < inst->numOperands(); ++o)
            info.operands.push_back(planFor(inst->operand(o), inst));
    }
}

const StaticInstInfo &
StaticCdfg::info(const ir::Instruction *inst) const
{
    auto it = idOf.find(inst);
    if (it == idOf.end())
        panic("instruction not in static CDFG");
    return infoVec[it->second];
}

const StaticBlockInfo &
StaticCdfg::blockInfo(const ir::BasicBlock *b) const
{
    auto it = blockIdOf.find(b);
    if (it == blockIdOf.end())
        panic("block not in static CDFG");
    return blockInfos[it->second];
}

} // namespace salam::core
