#include "loop_analysis.hh"

#include <algorithm>
#include <map>
#include <set>

#include "ir/eval.hh"
#include "sim/logging.hh"

namespace salam::opt
{

using namespace salam::ir;

std::optional<SimpleLoop>
LoopAnalysis::analyze(Function &fn, BasicBlock *block)
{
    auto *br = dynamic_cast<BranchInst *>(block->terminator());
    if (br == nullptr || !br->isConditional())
        return std::nullopt;

    BasicBlock *exit = nullptr;
    if (br->ifTrue() == block && br->ifFalse() != block)
        exit = br->ifFalse();
    else if (br->ifFalse() == block && br->ifTrue() != block)
        exit = br->ifTrue();
    else
        return std::nullopt;

    // Exactly one predecessor besides the block itself.
    BasicBlock *preheader = nullptr;
    for (auto *pred : fn.predecessors(block)) {
        if (pred == block)
            continue;
        if (preheader != nullptr)
            return std::nullopt;
        preheader = pred;
    }
    if (preheader == nullptr)
        return std::nullopt;

    SimpleLoop loop;
    loop.block = block;
    loop.preheader = preheader;
    loop.exit = exit;
    for (PhiInst *phi : block->phis()) {
        if (phi->numIncoming() != 2)
            return std::nullopt;
        if (phi->valueFor(preheader) == nullptr ||
            phi->valueFor(block) == nullptr) {
            return std::nullopt;
        }
        loop.phis.push_back(phi);
    }

    auto trip = computeTripCount(loop);
    if (!trip || *trip == 0)
        return std::nullopt;
    loop.tripCount = *trip;
    return loop;
}

std::optional<std::uint64_t>
LoopAnalysis::computeTripCount(const SimpleLoop &loop)
{
    BasicBlock *block = loop.block;
    auto *br = static_cast<BranchInst *>(block->terminator());
    auto *cond = dynamic_cast<Instruction *>(br->condition());
    if (cond == nullptr || cond->parent() != block)
        return std::nullopt;

    // Backward slice from the condition, restricted to this block.
    // Every leaf must be a constant (possibly through a phi whose
    // preheader-incoming value is constant).
    std::set<const Instruction *> slice;
    std::vector<const Instruction *> worklist{cond};
    while (!worklist.empty()) {
        const Instruction *inst = worklist.back();
        worklist.pop_back();
        if (!slice.insert(inst).second)
            continue;
        if (inst->isMemoryOp() || inst->opcode() == Opcode::Call)
            return std::nullopt;

        if (const auto *phi = dynamic_cast<const PhiInst *>(inst)) {
            Value *init = phi->valueFor(loop.preheader);
            Value *update = phi->valueFor(block);
            if (!init->isConstant())
                return std::nullopt;
            if (auto *ui = dynamic_cast<Instruction *>(update)) {
                if (ui->parent() != block)
                    return std::nullopt;
                worklist.push_back(ui);
            } else if (!update->isConstant()) {
                return std::nullopt;
            }
            continue;
        }
        for (std::size_t o = 0; o < inst->numOperands(); ++o) {
            const Value *op = inst->operand(o);
            if (op->isConstant())
                continue;
            const auto *dep = dynamic_cast<const Instruction *>(op);
            if (dep == nullptr || dep->parent() != block)
                return std::nullopt;
            worklist.push_back(dep);
        }
    }

    // Order the slice by block position for in-order evaluation.
    std::vector<const Instruction *> ordered;
    for (std::size_t i = 0; i < block->size(); ++i) {
        const Instruction *inst = block->instruction(i);
        if (slice.count(inst))
            ordered.push_back(inst);
    }

    // Symbolically execute the slice until the branch exits.
    constexpr std::uint64_t iterationCap = 1ULL << 26;
    std::map<const Value *, RuntimeValue> env;
    auto value_of = [&](const Value *v) {
        if (v->isConstant())
            return evalConstant(v);
        auto it = env.find(v);
        SALAM_ASSERT(it != env.end());
        return it->second;
    };

    for (const Instruction *inst : ordered) {
        if (const auto *phi = dynamic_cast<const PhiInst *>(inst))
            env[phi] = evalConstant(phi->valueFor(loop.preheader));
    }

    bool exit_on_true = (br->ifFalse() == block);
    std::uint64_t trips = 0;
    std::vector<RuntimeValue> ops;
    while (true) {
        // Evaluate non-phi slice instructions in order.
        for (const Instruction *inst : ordered) {
            if (inst->opcode() == Opcode::Phi)
                continue;
            ops.clear();
            for (std::size_t o = 0; o < inst->numOperands(); ++o)
                ops.push_back(value_of(inst->operand(o)));
            env[inst] = evalCompute(*inst, ops);
        }
        ++trips;
        if (trips > iterationCap)
            return std::nullopt;

        bool cond_val = value_of(cond).asBool();
        if (cond_val == exit_on_true)
            return trips;

        // Advance phis simultaneously for the next iteration.
        std::map<const Value *, RuntimeValue> next;
        for (const Instruction *inst : ordered) {
            if (const auto *phi = dynamic_cast<const PhiInst *>(inst))
                next[phi] = value_of(phi->valueFor(block));
        }
        for (auto &[k, v] : next)
            env[k] = v;
    }
}

std::vector<SimpleLoop>
LoopAnalysis::findLoops(Function &fn)
{
    std::vector<SimpleLoop> loops;
    for (std::size_t b = 0; b < fn.numBlocks(); ++b) {
        auto loop = analyze(fn, fn.block(b));
        if (loop)
            loops.push_back(*loop);
    }
    return loops;
}

} // namespace salam::opt
