#include "interpreter.hh"

#include <cstring>

#include "sim/logging.hh"

namespace salam::ir
{

RuntimeValue
MemoryAccessor::loadValue(const Type *type, std::uint64_t addr)
{
    std::uint64_t raw = 0;
    std::size_t size = type->storeSize();
    SALAM_ASSERT(size > 0 && size <= 8);
    readBytes(addr, size, &raw);
    RuntimeValue rv;
    rv.bits = RuntimeValue::mask(type, raw);
    return rv;
}

void
MemoryAccessor::storeValue(const Type *type, std::uint64_t addr,
                           RuntimeValue value)
{
    std::size_t size = type->storeSize();
    SALAM_ASSERT(size > 0 && size <= 8);
    writeBytes(addr, size, &value.bits);
}

std::uint8_t *
FlatMemory::pageFor(std::uint64_t addr)
{
    std::uint64_t base = addr & ~(pageSize - 1);
    auto it = pages.find(base);
    if (it == pages.end()) {
        it = pages.emplace(base, std::vector<std::uint8_t>(pageSize))
                 .first;
    }
    return it->second.data();
}

void
FlatMemory::readBytes(std::uint64_t addr, std::size_t size, void *out)
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        std::uint64_t offset = addr & (pageSize - 1);
        std::size_t chunk = std::min<std::size_t>(
            size, static_cast<std::size_t>(pageSize - offset));
        std::memcpy(dst, pageFor(addr) + offset, chunk);
        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
FlatMemory::writeBytes(std::uint64_t addr, std::size_t size,
                       const void *in)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        std::uint64_t offset = addr & (pageSize - 1);
        std::size_t chunk = std::min<std::size_t>(
            size, static_cast<std::size_t>(pageSize - offset));
        std::memcpy(pageFor(addr) + offset, src, chunk);
        src += chunk;
        addr += chunk;
        size -= chunk;
    }
}

RuntimeValue
Interpreter::valueOf(const Value *v) const
{
    if (v->isConstant())
        return evalConstant(v);
    auto it = bindings.find(v);
    if (it == bindings.end())
        panic("interpreter: unbound value %%%s", v->name().c_str());
    return it->second;
}

RuntimeValue
Interpreter::run(const Function &fn,
                 const std::vector<RuntimeValue> &args)
{
    if (args.size() != fn.numArguments())
        fatal("interpreter: @%s expects %zu args, got %zu",
              fn.name().c_str(), fn.numArguments(), args.size());

    bindings.clear();
    steps = 0;
    for (std::size_t i = 0; i < args.size(); ++i)
        bindings[fn.argument(i)] = args[i];

    const BasicBlock *block = fn.entry();
    const BasicBlock *prev = nullptr;
    SALAM_ASSERT(block != nullptr);

    // Operand values of the instruction being evaluated, reused.
    std::vector<RuntimeValue> ops;
    while (true) {
        // Phi nodes read their incoming values simultaneously on
        // block entry, before any are rebound.
        auto phis = block->phis();
        std::vector<RuntimeValue> phi_values;
        phi_values.reserve(phis.size());
        for (const PhiInst *phi : phis) {
            Value *incoming = phi->valueFor(prev);
            if (incoming == nullptr)
                panic("phi %%%s has no incoming for %%%s",
                      phi->name().c_str(),
                      prev ? prev->name().c_str() : "<entry>");
            phi_values.push_back(valueOf(incoming));
        }
        for (std::size_t i = 0; i < phis.size(); ++i) {
            bindings[phis[i]] = phi_values[i];
            if (onExec) {
                ExecRecord rec;
                rec.inst = phis[i];
                rec.block = block;
                rec.result = phi_values[i];
                rec.seq = steps;
                onExec(rec);
            }
            ++steps;
        }

        // Remaining instructions in order.
        for (std::size_t i = phis.size(); i < block->size(); ++i) {
            const Instruction *inst = block->instruction(i);
            if (++steps > stepLimit)
                fatal("interpreter: step limit exceeded in @%s",
                      fn.name().c_str());

            ExecRecord rec;
            rec.inst = inst;
            rec.block = block;
            rec.seq = steps;

            switch (inst->opcode()) {
              case Opcode::Load: {
                const auto *load =
                    static_cast<const LoadInst *>(inst);
                std::uint64_t addr =
                    valueOf(load->pointer()).bits;
                RuntimeValue v = mem.loadValue(load->type(), addr);
                bindings[inst] = v;
                rec.result = v;
                rec.memAddr = addr;
                rec.memSize = static_cast<std::uint32_t>(
                    load->type()->storeSize());
                break;
              }
              case Opcode::Store: {
                const auto *store =
                    static_cast<const StoreInst *>(inst);
                std::uint64_t addr =
                    valueOf(store->pointer()).bits;
                RuntimeValue v = valueOf(store->value());
                mem.storeValue(store->value()->type(), addr, v);
                rec.result = v;
                rec.memAddr = addr;
                rec.memSize = static_cast<std::uint32_t>(
                    store->value()->type()->storeSize());
                break;
              }
              case Opcode::Br: {
                const auto *br =
                    static_cast<const BranchInst *>(inst);
                const BasicBlock *next;
                if (br->isConditional()) {
                    bool taken = valueOf(br->condition()).asBool();
                    next = taken ? br->ifTrue() : br->ifFalse();
                    rec.result.bits = taken ? 1 : 0;
                } else {
                    next = br->ifTrue();
                }
                if (onExec)
                    onExec(rec);
                prev = block;
                block = next;
                goto next_block;
              }
              case Opcode::Ret: {
                const auto *ret =
                    static_cast<const ReturnInst *>(inst);
                RuntimeValue result;
                if (ret->hasValue())
                    result = valueOf(ret->value());
                rec.result = result;
                if (onExec)
                    onExec(rec);
                return result;
              }
              default: {
                ops.clear();
                for (std::size_t o = 0; o < inst->numOperands(); ++o)
                    ops.push_back(valueOf(inst->operand(o)));
                RuntimeValue v = evalCompute(*inst, ops);
                bindings[inst] = v;
                rec.result = v;
                break;
              }
            }
            if (onExec)
                onExec(rec);
        }
        panic("block %%%s fell through without terminator",
              block->name().c_str());
      next_block:;
    }
}

} // namespace salam::ir
