#include "runtime_engine.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "mem/packet.hh"
#include "sim/logging.hh"

namespace salam::core
{

using namespace salam::ir;
using namespace salam::hw;

namespace
{

/** Smallest window ring capacity (a power of two, >= 128). */
constexpr std::size_t minWindowCapacity = 1024;

/** Operand slot of a memory op's pointer. */
std::size_t
pointerSlot(const DynInst &di)
{
    return di.isLoad ? 0 : 1;
}

} // namespace

const std::vector<std::string> &
RuntimeEngine::stallLaneNames()
{
    static const std::vector<std::string> names = {
        "load_only",    "store_only",      "compute_only",
        "load_compute", "store_compute",   "load_store",
        "load_store_compute", "empty",
    };
    return names;
}

const std::vector<std::string> &
RuntimeEngine::issueLaneNames()
{
    static const std::vector<std::string> names = {
        "load", "store", "fp", "int", "other",
    };
    return names;
}

RuntimeEngine::RuntimeEngine(const StaticCdfg &cdfg,
                             const DeviceConfig &config,
                             EngineClient &client)
    : staticCdfg(cdfg), cfg(config), client(client)
{
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        unsigned limit = cfg.fuLimits[t];
        if (limit > 0)
            poolFreeAt[t].assign(limit, 0);
    }
    // Sized from the reservation queue up front, so the window ring,
    // the reader-edge pool and the fence lists rarely reallocate
    // mid-run.
    const std::size_t window_cap = std::max<std::size_t>(
        minWindowCapacity,
        std::bit_ceil(2 * std::size_t{cfg.reservationQueueSize} + 64));
    windowRing.assign(window_cap, nullptr);
    candBits.assign(window_cap / 64, 0);
    readerEdges.reserve(2 * std::size_t{cfg.reservationQueueSize});
    fenced.reserve(cfg.reservationQueueSize);
    fencedNow.reserve(cfg.reservationQueueSize);
    latestInstance.assign(staticCdfg.numInstructions(), nullptr);
    committedValues.assign(staticCdfg.numValueIds(), RuntimeValue{});
    committedKnown.assign(staticCdfg.numValueIds(), 0);
}

void
RuntimeEngine::start(const std::vector<RuntimeValue> &args)
{
    const Function &fn = staticCdfg.function();
    if (args.size() != fn.numArguments())
        fatal("engine: @%s expects %zu args, got %zu",
              fn.name().c_str(), fn.numArguments(), args.size());
    SALAM_ASSERT(!active);

    for (std::size_t i = 0; i < args.size(); ++i) {
        committedValues[i] = args[i];
        committedKnown[i] = 1;
    }

    active = true;
    completed = false;
    retSeen = false;
    cycleCount = 0;
    importBlock(fn.entry(), nullptr);
    // The entry block may issue in cycle 0.
    for (std::uint64_t s = windowFront; s < nextSeq; ++s)
        windowAt(s)->minIssueCycle = 0;
    client.engineRequestTick();
}

DynInst *
RuntimeEngine::acquireDynInst()
{
    if (freeList.empty()) {
        ++engineStats.arenaMisses;
        arena.push_back(std::make_unique<DynInst>());
        return arena.back().get();
    }
    ++engineStats.arenaHits;
    DynInst *di = freeList.back();
    freeList.pop_back();
    di->reset();
    return di;
}

DynInst *
RuntimeEngine::createDynInst(const StaticInstInfo &info)
{
    const Instruction *inst = info.inst;
    DynInst *di = acquireDynInst();
    di->inst = inst;
    di->staticInfo = &info;
    di->seq = nextSeq;
    // Keep a word of slack so the sweep's word walk never wraps
    // onto the window's own front.
    if (nextSeq + 1 - windowFront + 64 > windowRing.size())
        growWindow();
    windowRing[nextSeq & (windowRing.size() - 1)] = di;
    ++nextSeq;
    di->minIssueCycle = cycleCount + 1;
    di->ctrlParentSeq = importCtrlSeq;
    di->ctrlLinkCause = importCtrlCause;
    di->isLoad = inst->opcode() == Opcode::Load;
    di->isStore = inst->opcode() == Opcode::Store;
    di->producers.assign(inst->numOperands(), nullptr);
    di->operandValues.assign(inst->numOperands(), RuntimeValue{});

    // WAW/WAR chain against the previous dynamic instance.
    DynInst *&latest = latestInstance[info.id];
    if (latest != nullptr) {
        di->prevInstance = latest;
        latest->nextInstance = di;
    }
    latest = di;

    ++engineStats.dynamicInstructions;
    if (capture != nullptr)
        capture->insts.push_back({info.id, DynTrace::noBranchTarget,
                                  0, 0});
    return di;
}

void
RuntimeEngine::growWindow()
{
    const std::size_t cap = windowRing.size() * 2;
    std::vector<DynInst *> ring(cap, nullptr);
    std::vector<std::uint64_t> bits(cap / 64, 0);
    for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
        ring[s & (cap - 1)] = windowAt(s);
        std::uint64_t bit = 1ull << (s & 63);
        if (candidateWord(s) & bit)
            bits[(s >> 6) & (cap / 64 - 1)] |= bit;
    }
    windowRing.swap(ring);
    candBits.swap(bits);
}

void
RuntimeEngine::importBlock(const BasicBlock *block,
                           const BasicBlock *from)
{
    const StaticBlockInfo &binfo = staticCdfg.blockInfo(block);
    if (binfo.numInsts > cfg.reservationQueueSize)
        fatal("engine: block '%s' (%zu instructions) exceeds the "
              "reservation queue (%u); raise "
              "DeviceConfig::reservationQueueSize",
              block->name().c_str(), block->size(),
              cfg.reservationQueueSize);
    if (unissuedCount + binfo.numInsts > cfg.reservationQueueSize) {
        pendingImport = block;
        pendingImportFrom = from;
        pendingImportCtrlSeq = importCtrlSeq;
        return;
    }
    pendingImport = nullptr;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "import block '%s' (%zu instructions)",
                   block->name().c_str(), block->size());
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine",
                                     "import " + block->name());
    }

    unsigned from_id = 0;
    bool have_from = false;
    if (from != nullptr) {
        from_id = staticCdfg.blockInfo(from).id;
        have_from = true;
    }

    for (unsigned i = 0; i < binfo.numInsts; ++i) {
        const StaticInstInfo &sinfo =
            staticCdfg.infoById(binfo.firstInstId + i);
        DynInst *di = createDynInst(sinfo);

        // Bind operands from the elaboration-time plans. A Producer
        // plan checks the live-instance table first (RAW edge or
        // in-window result), then falls back to the committed-value
        // slot; Committed plans go straight there.
        auto bind_plan = [&](std::size_t slot,
                             const OperandPlan &plan) {
            switch (plan.kind) {
              case OperandPlan::Kind::Constant:
                di->operandValues[slot] = plan.constant;
                return;
              case OperandPlan::Kind::Control:
                return; // control references carry no data
              case OperandPlan::Kind::Producer: {
                DynInst *latest = latestInstance[plan.producerId];
                if (latest != nullptr && !latest->committed) {
                    di->producers[slot] = latest;
                    ++latest->unissuedReaders;
                    addReader(latest, di);
                    ++di->pendingOperands;
                    return;
                }
                if (latest != nullptr) {
                    di->operandValues[slot] = latest->result;
                    return;
                }
                break;
              }
              case OperandPlan::Kind::Committed:
                break;
            }
            if (!committedKnown[plan.valueId]) {
                panic("engine: operand %%%s of %%%s has no value",
                      sinfo.isPhi
                          ? "phi-incoming"
                          : di->inst->operand(slot)->name().c_str(),
                      di->inst->name().c_str());
            }
            di->operandValues[slot] = committedValues[plan.valueId];
        };

        if (sinfo.isPhi) {
            const OperandPlan *plan = nullptr;
            if (have_from) {
                for (const auto &[pred_id, p] : sinfo.phiIncoming) {
                    if (pred_id == from_id) {
                        plan = &p;
                        break;
                    }
                }
            }
            if (plan == nullptr)
                panic("phi %%%s has no incoming for edge",
                      di->inst->name().c_str());
            // Keep exactly one live operand slot for the edge taken.
            di->producers.assign(1, nullptr);
            di->operandValues.assign(1, RuntimeValue{});
            bind_plan(0, *plan);
        } else {
            for (std::size_t o = 0; o < sinfo.operands.size(); ++o)
                bind_plan(o, sinfo.operands[o]);
        }

        ++unissuedCount;
        fenced.push_back(di);
        if (di->isMemory()) {
            di->memSeq = nextMemSeq++;
            memoryOrder.push_back(di);
        }
    }
}

void
RuntimeEngine::addReader(DynInst *producer, DynInst *reader)
{
    std::uint32_t e = freeReaderEdge;
    if (e == DynInst::noReader) {
        e = static_cast<std::uint32_t>(readerEdges.size());
        readerEdges.push_back({reader, producer->firstReader});
    } else {
        freeReaderEdge = readerEdges[e].next;
        readerEdges[e] = {reader, producer->firstReader};
    }
    producer->firstReader = e;
}

void
RuntimeEngine::setCandidate(DynInst *di)
{
    std::uint64_t bit = 1ull << (di->seq & 63);
    std::uint64_t &word = candidateWord(di->seq);
    if ((word & bit) == 0) {
        word |= bit;
        ++work.wakeups;
    }
}

void
RuntimeEngine::wake(DynInst *di)
{
    if (!di->issued && di->pendingOperands == 0 &&
        di->minIssueCycle <= cycleCount) {
        setCandidate(di);
    }
}

void
RuntimeEngine::markIssued(DynInst *di)
{
    di->issued = true;
    di->issueCycle = cycleCount;
    clearCandidate(di);
    // Issuing may open the successor instance's hand-off gate.
    if (di->nextInstance != nullptr)
        wake(di->nextInstance);
}

void
RuntimeEngine::captureOperands(DynInst *di)
{
    for (std::size_t i = 0; i < di->producers.size(); ++i) {
        DynInst *producer = di->producers[i];
        if (producer != nullptr) {
            SALAM_ASSERT(producer->committed);
            di->operandValues[i] = producer->result;
            SALAM_ASSERT(producer->unissuedReaders > 0);
            // Draining the producer's output register may open its
            // successor instance's hand-off gate.
            if (--producer->unissuedReaders == 0 &&
                producer->nextInstance != nullptr) {
                wake(producer->nextInstance);
            }
            di->producers[i] = nullptr;
            // Remember the latest-committing producer: it is the
            // critical data predecessor in the recorded CDFG.
            if (observer.profiler != nullptr &&
                (di->prodParentSeq == obs::noProfSeq ||
                 producer->commitCycle > di->prodReadyCycle ||
                 (producer->commitCycle == di->prodReadyCycle &&
                  producer->seq > di->prodParentSeq))) {
                di->prodReadyCycle = producer->commitCycle;
                di->prodParentSeq = producer->seq;
            }
        }
    }
}

bool
RuntimeEngine::handOffOpen(const DynInst &di) const
{
    // WAW/WAR against the previous instance of this instruction: the
    // destination register cannot be rewritten before the previous
    // value was produced and every reader of it has captured it.
    const DynInst *prev = di.prevInstance;
    return prev == nullptr ||
        (prev->issued && prev->unissuedReaders == 0);
}

bool
RuntimeEngine::fuAvailable(const DynInst &di) const
{
    // The shared (or dedicated) unit enforces the initiation
    // interval against the previous instance.
    const DynInst *prev = di.prevInstance;
    if (prev != nullptr &&
        cycleCount <
            prev->issueCycle + di.staticInfo->initiationInterval) {
        return false;
    }

    std::size_t t = static_cast<std::size_t>(di.staticInfo->fu);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return true; // dedicated unit per static instruction
    for (std::uint64_t free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount)
            return true;
    }
    return false;
}

void
RuntimeEngine::occupyFu(DynInst *di)
{
    FuType type = di->staticInfo->fu;
    if (type == FuType::None)
        return;
    std::size_t t = static_cast<std::size_t>(type);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return; // dedicated: II enforced via prevInstance
    for (auto &free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount) {
            free_at = cycleCount + di->staticInfo->initiationInterval;
            return;
        }
    }
    panic("occupyFu called without an available unit");
}

void
RuntimeEngine::resolveAddress(DynInst *di)
{
    if (di->addrKnown)
        return;
    std::size_t ptr_slot = pointerSlot(*di);
    const DynInst *producer = di->producers[ptr_slot];
    RuntimeValue addr;
    if (producer == nullptr) {
        addr = di->operandValues[ptr_slot];
    } else if (producer->committed) {
        addr = producer->result;
    } else {
        return;
    }
    di->memAddr = addr.bits;
    if (di->isLoad) {
        di->memSize = static_cast<unsigned>(
            di->inst->type()->storeSize());
    } else {
        const auto *store =
            static_cast<const StoreInst *>(di->inst);
        di->memSize = static_cast<unsigned>(
            store->value()->type()->storeSize());
    }
    di->addrKnown = true;
    // Resolutions happen only in the sweep, whose ordering checks
    // use the summary as of the sweep's start.
    SALAM_ASSERT(inScan);
    summaryPending.emplace_back(di, false);
    if (capture != nullptr) {
        DynTraceInst &rec = capture->insts[di->seq];
        rec.memAddr = di->memAddr;
        rec.memSize = di->memSize;
    }
}

void
RuntimeEngine::noteAddressReady(DynInst *di)
{
    // An address resolves at the first sweep that reaches the op in
    // program order with its pointer committed and its fence passed:
    // this one if the op is still ahead of the cursor, else the
    // next. Before the fence, the fence step resolves it.
    if (di->addrKnown || di->minIssueCycle > cycleCount)
        return;
    if (inScan && di->seq > scanCursor) {
        resolveAddress(di); // still ahead in this cycle's sweep
        return;
    }
    resolveDue.emplace_back(inScan ? cycleCount + 1 : cycleCount, di);
}

void
RuntimeEngine::snapshotUnknowns()
{
    // Every op older than a cursor has a resolved address (or left
    // the window), so each cursor only moves forward.
    const std::uint64_t base = memoryOrder.empty()
        ? nextMemSeq
        : memoryOrder.front()->memSeq;
    auto first_unknown = [&](std::uint64_t &cursor,
                             bool stores) -> std::uint64_t {
        cursor = std::max(cursor, base);
        for (; cursor < nextMemSeq; ++cursor) {
            const DynInst *op = memoryOrder[cursor - base];
            if (op->isStore == stores && !op->addrKnown)
                return cursor;
        }
        return ~0ull;
    };
    snapUnknownStore = first_unknown(unknownStoreCursor, true);
    snapUnknownLoad = first_unknown(unknownLoadCursor, false);
}

void
RuntimeEngine::updateSummary(const DynInst *op, bool committed)
{
    ++work.summaryUpdates;
    std::vector<MemRef> &refs = op->isStore ? knownStores : knownLoads;
    auto by_seq = [](const MemRef &ref, std::uint64_t seq) {
        return ref.seq < seq;
    };
    auto it = std::lower_bound(refs.begin(), refs.end(), op->memSeq,
                               by_seq);
    if (committed) {
        SALAM_ASSERT(it != refs.end() && it->seq == op->memSeq);
        refs.erase(it);
    } else {
        refs.insert(it, {op->memSeq, op->memAddr, op->memSize});
    }
}

bool
RuntimeEngine::memoryOrderingAllows(const DynInst &di) const
{
    SALAM_ASSERT(di.addrKnown);
    // Unknown-address older stores block everything younger;
    // unknown older loads block younger stores.
    if (snapUnknownStore < di.memSeq)
        return false;
    if (di.isStore && snapUnknownLoad < di.memSeq)
        return false;

    // Any overlapping older store blocks; stores also wait for
    // overlapping older loads.
    auto older_overlap = [&](const std::vector<MemRef> &refs) {
        for (const MemRef &ref : refs) {
            if (ref.seq >= di.memSeq)
                return false;
            if (ref.addr < di.memAddr + di.memSize &&
                di.memAddr < ref.addr + ref.size) {
                return true;
            }
        }
        return false;
    };
    if (older_overlap(knownStores))
        return false;
    return !(di.isStore && older_overlap(knownLoads));
}

void
RuntimeEngine::issueCompute(DynInst *di)
{
    SALAM_TRACE_AT(Issue, obsNow(), observer.name.c_str(),
                   "issue %s seq=%llu fu=%u",
                   di->inst->name().c_str(),
                   (unsigned long long)di->seq,
                   static_cast<unsigned>(di->staticInfo->fu));
    captureOperands(di);
    occupyFu(di);
    markIssued(di);
    if (observer.sink)
        di->issueTick = obsNow();

    const HardwareProfile &profile = cfg.profile;
    FuType type = di->staticInfo->fu;
    if (type != FuType::None) {
        engineStats.fuEnergyPj +=
            profile.fu(type).dynamicEnergyPj;
    }
    // Register file activity: operand reads now, result write at
    // commit.
    double read_bits = 0.0;
    for (std::size_t o = 0; o < di->inst->numOperands(); ++o)
        read_bits += di->inst->operand(o)->type()->bitWidth();
    engineStats.registerReadEnergyPj +=
        read_bits * profile.registers().readEnergyPjPerBit;

    // Functional evaluation happens at issue; the commit of the
    // result is delayed by the unit latency.
    if (di->inst->opcode() == Opcode::Phi) {
        di->result = di->operandValues[0];
    } else if (di->inst->isComputeOp()) {
        di->result = evalCompute(*di->inst, di->operandValues);
    }

    unsigned latency = di->staticInfo->latency;
    if (latency == 0) {
        commit(di);
    } else {
        di->commitCycle = cycleCount + latency;
        computeQueue.push_back(di);
        nextCommitDue = std::min(nextCommitDue, di->commitCycle);
        ++fuInflight[static_cast<std::size_t>(di->staticInfo->fu)];
    }
}

void
RuntimeEngine::commit(DynInst *di)
{
    SALAM_ASSERT(!di->committed);
    di->committed = true;
    ++engineStats.committedInstructions;
    // The engine is ticked every cycle while active, so queued
    // compute ops reach here exactly at their scheduled cycle; for
    // everything else (memory, branches, zero-latency wiring) this
    // is the only place the commit cycle gets stamped.
    di->commitCycle = cycleCount;
    if (observer.sink && di->issued &&
        (di->isMemory() || di->staticInfo->latency > 0)) {
        Tick end = obsNow();
        Tick dur = end > di->issueTick ? end - di->issueTick : 0;
        observer.sink->recordSlice(
            di->issueTick, dur, observer.name,
            di->isMemory() ? "mem" : "compute",
            di->isLoad ? "load"
                       : di->isStore ? "store" : di->inst->name());
    }
    if (!di->inst->type()->isVoid()) {
        committedValues[di->staticInfo->resultValueId] = di->result;
        committedKnown[di->staticInfo->resultValueId] = 1;
        engineStats.registerWriteEnergyPj +=
            static_cast<double>(di->staticInfo->resultBits) *
            cfg.profile.registers().writeEnergyPjPerBit;
    }
    if (observer.profiler != nullptr)
        recordProfile(di);

    // Wake readers: each bound a RAW edge to this instance at import.
    for (std::uint32_t e = di->firstReader; e != DynInst::noReader;) {
        DynInst *reader = readerEdges[e].reader;
        std::uint32_t next = readerEdges[e].next;
        readerEdges[e].next = freeReaderEdge;
        freeReaderEdge = e;
        e = next;
        SALAM_ASSERT(reader->pendingOperands > 0);
        --reader->pendingOperands;
        if (reader->isMemory() &&
            reader->producers[pointerSlot(*reader)] == di) {
            noteAddressReady(reader);
        }
        wake(reader);
    }
    di->firstReader = DynInst::noReader;
    if (di->isMemory()) {
        if (inScan)
            summaryPending.emplace_back(di, true);
        else
            updateSummary(di, true);
    }
}

void
RuntimeEngine::recordProfile(DynInst *di)
{
    obs::ProfNode node;
    node.seq = di->seq;
    node.staticId = di->staticInfo->id;
    node.issueCycle = di->issueCycle;
    node.commitCycle = di->commitCycle;

    // The instance became ready when its last constraint cleared:
    // the importing terminator (minIssueCycle fence) or the
    // latest-committing operand producer. Ties go to the data edge —
    // it is the longer dependence chain.
    node.readyCycle = di->minIssueCycle;
    if (di->ctrlParentSeq != obs::noProfSeq) {
        node.parentSeq = di->ctrlParentSeq;
        node.linkCause = di->ctrlLinkCause;
    }
    if (di->prodParentSeq != obs::noProfSeq &&
        di->prodReadyCycle >= node.readyCycle) {
        node.readyCycle = di->prodReadyCycle;
        node.parentSeq = di->prodParentSeq;
        node.linkCause = obs::ProfCause::DataDep;
    }
    if (node.readyCycle > node.issueCycle)
        node.readyCycle = node.issueCycle;

    node.waitCause = di->waitCause;
    if (di->isMemory()) {
        // Precedence: the most specific memory-system annotation
        // wins; a plain round trip is the default.
        unsigned flags = di->memServiceFlags;
        if (flags & mem::svcCacheMiss)
            node.execCause = obs::ProfCause::CacheMiss;
        else if (flags & mem::svcBankConflict)
            node.execCause = obs::ProfCause::BankConflict;
        else if (flags & mem::svcDmaWait)
            node.execCause = obs::ProfCause::DmaWait;
        else if (flags & mem::svcCreditStall)
            node.execCause = obs::ProfCause::CreditStall;
        else if (flags & mem::svcBusArbitration)
            node.execCause = obs::ProfCause::BusArbitration;
        else if (flags & mem::svcQueued)
            node.execCause = obs::ProfCause::MemQueue;
        else
            node.execCause = obs::ProfCause::MemResponse;
    } else {
        node.execCause = obs::ProfCause::Compute;
    }
    observer.profiler->record(node);
}

void
RuntimeEngine::memoryResponse(DynInst *op, const std::uint8_t *data,
                              unsigned size)
{
    SALAM_ASSERT(op->memInFlight);
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "%s response seq=%llu addr=0x%llx size=%u",
                   op->isLoad ? "load" : "store",
                   (unsigned long long)op->seq,
                   (unsigned long long)op->memAddr, op->memSize);
    op->memInFlight = false;
    if (op->isLoad) {
        SALAM_ASSERT(size >= op->memSize);
        std::uint64_t raw = 0;
        std::memcpy(&raw, data, op->memSize);
        op->result.bits = RuntimeValue::mask(op->inst->type(), raw);
        SALAM_ASSERT(loadsInFlight > 0);
        --loadsInFlight;
    } else {
        SALAM_ASSERT(storesInFlight > 0);
        --storesInFlight;
    }
    commit(op);
    if (active)
        client.engineRequestTick();
}

void
RuntimeEngine::pruneWindow()
{
    // Retire from the window front (oldest first). An instruction
    // may leave once it is committed, every reader has captured its
    // result, and a newer instance of the same static instruction
    // has issued (so nothing consults it for WAW/WAR any more).
    while (windowFront < nextSeq) {
        DynInst *front = windowAt(windowFront);
        if (!front->committed || front->unissuedReaders > 0)
            break;
        if (front->nextInstance != nullptr &&
            !front->nextInstance->issued) {
            break;
        }
        if (front->nextInstance == nullptr) {
            // Still the newest instance of its static instruction:
            // unregister it so later readers bind to the committed
            // value instead. (A future instance then starts without
            // a WAW link to this long-retired one; by then the
            // initiation-interval spacing is trivially satisfied.)
            DynInst *&latest =
                latestInstance[front->staticInfo->id];
            if (latest == front)
                latest = nullptr;
        } else {
            front->nextInstance->prevInstance = nullptr;
        }
        if (front->isMemory()) {
            SALAM_ASSERT(!memoryOrder.empty() &&
                         memoryOrder.front() == front);
            memoryOrder.pop_front();
        }
        ++windowFront;
        releaseDynInst(front);
    }
}

void
RuntimeEngine::recordCycleStats(const IssueTally &tally)
{
    // In-flight FU occupancy by type.
    for (std::size_t t = 0; t < numFuTypes; ++t)
        engineStats.fuBusyCycleSum[t] += fuInflight[t];

    if (observer.memQueueOccupancy) {
        observer.memQueueOccupancy->sample(
            static_cast<double>(loadsInFlight + storesInFlight));
    }
    if (observer.reservationOccupancy) {
        observer.reservationOccupancy->sample(
            static_cast<double>(unissuedCount));
    }
    if (observer.sink) {
        observer.sink->recordCounter(
            obsNow(), observer.name, "queues",
            {{"reservation",
              static_cast<double>(unissuedCount)},
             {"compute", static_cast<double>(computeQueue.size())},
             {"loads_in_flight", static_cast<double>(loadsInFlight)},
             {"stores_in_flight",
              static_cast<double>(storesInFlight)}});
    }

    if (tally.any) {
        ++engineStats.newExecCycles;
        if (tally.loads > 0)
            ++engineStats.cyclesWithLoadIssue;
        if (tally.stores > 0)
            ++engineStats.cyclesWithStoreIssue;
        if (tally.fp > 0)
            ++engineStats.cyclesWithFpIssue;
        if (tally.loads > 0 && tally.stores > 0)
            ++engineStats.cyclesWithLoadAndStoreIssue;
        if (tally.loads > 0 && tally.fp > 0)
            ++engineStats.cyclesWithLoadAndFpIssue;
        return;
    }

    ++engineStats.stallCycles;
    // A stall involves a memory class when an access of that class
    // is in flight or was ready but blocked by port/queue limits
    // this cycle; it involves computation when operations occupy
    // functional units.
    bool load_busy = loadsInFlight > 0 || memStallLoadBlocked;
    bool store_busy = storesInFlight > 0 || memStallStoreBlocked;
    bool compute_busy = !computeQueue.empty();
    StallLane lane;
    if (load_busy && store_busy && compute_busy) {
        ++engineStats.stallLoadStoreCompute;
        lane = laneLoadStoreCompute;
    } else if (load_busy && compute_busy) {
        ++engineStats.stallLoadCompute;
        lane = laneLoadCompute;
    } else if (store_busy && compute_busy) {
        ++engineStats.stallStoreCompute;
        lane = laneStoreCompute;
    } else if (load_busy && store_busy) {
        ++engineStats.stallLoadStore;
        lane = laneLoadStore;
    } else if (compute_busy) {
        ++engineStats.stallComputeOnly;
        lane = laneComputeOnly;
    } else if (load_busy) {
        ++engineStats.stallLoadOnly;
        lane = laneLoadOnly;
    } else if (store_busy) {
        ++engineStats.stallStoreOnly;
        lane = laneStoreOnly;
    } else {
        ++engineStats.stallEmpty;
        lane = laneEmpty;
    }
    if (observer.stallCauses)
        observer.stallCauses->add(lane);
}

void
RuntimeEngine::dumpState(obs::JsonBuilder &json) const
{
    json.field("active", active).field("completed", completed);
    json.field("cycle", cycleCount);
    json.field("window", nextSeq - windowFront);
    json.field("loads_in_flight", std::uint64_t(loadsInFlight));
    json.field("stores_in_flight", std::uint64_t(storesInFlight));
    json.field("committed_instructions",
               engineStats.committedInstructions);
    if (pendingImport)
        json.field("pending_import", pendingImport->name());

    auto describe = [&json](const DynInst *di) {
        json.beginObject()
            .field("seq", di->seq)
            .field("inst", "%" + di->inst->name())
            .field("issued", di->issued)
            .field("committed", di->committed);
        if (di->isMemory()) {
            json.field("mem",
                       di->isLoad ? "load" : "store")
                .field("addr_known", di->addrKnown)
                .field("addr", di->memAddr)
                .field("in_flight", di->memInFlight)
                .field("service_flags",
                       std::uint64_t(di->memServiceFlags));
        }
        json.endObject();
    };

    json.beginArray("reservation_queue");
    for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
        if (!windowAt(s)->issued)
            describe(windowAt(s));
    }
    json.endArray();
    json.beginArray("compute_queue");
    for (const DynInst *di : computeQueue)
        describe(di);
    json.endArray();
    json.beginArray("memory_order");
    for (const DynInst *di : memoryOrder)
        describe(di);
    json.endArray();
}

void
RuntimeEngine::finish()
{
    active = false;
    completed = true;
    engineStats.totalCycles = cycleCount + 1;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "finished after %llu cycles (%llu dynamic insts)",
                   (unsigned long long)engineStats.totalCycles,
                   (unsigned long long)
                       engineStats.dynamicInstructions);
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine", "kernel done");
    }
    client.engineDone();
}

void
RuntimeEngine::visit(DynInst *di, IssueTally &tally)
{
    ++work.visits;
    Opcode op = di->inst->opcode();
    if (op == Opcode::Br) {
        const auto *br = static_cast<const BranchInst *>(di->inst);
        captureOperands(di);
        const BasicBlock *target;
        if (br->isConditional()) {
            target = di->operandValues[0].asBool() ? br->ifTrue()
                                                   : br->ifFalse();
        } else {
            target = br->ifTrue();
        }
        markIssued(di);
        commit(di);
        if (capture != nullptr) {
            capture->insts[di->seq].branchTarget =
                staticCdfg.blockInfo(target).id;
        }
        const BasicBlock *cur = di->inst->parent();
        if (cfg.blockSequentialImport && target != cur &&
            pendingImport == nullptr) {
            // Defer the state transition until drain.
            pendingImport = target;
            pendingImportFrom = cur;
            pendingImportCtrlSeq = di->seq;
        } else {
            importCtrlSeq = di->seq;
            // The branch keeps its queue slot through the import
            // (it is released just below), so the capacity check
            // counts it.
            importBlock(target, cur);
            importCtrlSeq = obs::noProfSeq;
        }
        --unissuedCount;
        tally.any = true;
        ++engineStats.otherOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneOther);
        return;
    }
    if (op == Opcode::Ret) {
        captureOperands(di);
        if (di->inst->numOperands() == 1)
            di->result = di->operandValues[0];
        markIssued(di);
        commit(di);
        retSeen = true;
        --unissuedCount;
        tally.any = true;
        ++engineStats.otherOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneOther);
        return;
    }

    if (di->isMemory()) {
        // Operands are ready, so the pointer resolved by now.
        SALAM_ASSERT(di->addrKnown);
        if (!memoryOrderingAllows(*di)) {
            di->waitCause = obs::ProfCause::MemOrdering;
            return;
        }
        bool is_load = di->isLoad;
        if (is_load && (tally.loads >= cfg.readPortsPerCycle ||
                        loadsInFlight >= cfg.readQueueSize)) {
            tally.loadBlocked = true;
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        if (!is_load && (tally.stores >= cfg.writePortsPerCycle ||
                         storesInFlight >= cfg.writeQueueSize)) {
            tally.storeBlocked = true;
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        captureOperands(di);
        if (!client.engineIssueMemory(di)) {
            // Interface refused; operands stay captured, retry next
            // cycle (captureOperands is idempotent once producers
            // are cleared).
            di->waitCause = obs::ProfCause::MemPort;
            return;
        }
        markIssued(di);
        di->memInFlight = true;
        if (observer.sink)
            di->issueTick = obsNow();
        SALAM_TRACE_AT(Issue, obsNow(), observer.name,
                       "issue %s seq=%llu addr=0x%llx size=%u",
                       is_load ? "load" : "store",
                       (unsigned long long)di->seq,
                       (unsigned long long)di->memAddr, di->memSize);
        if (is_load) {
            ++loadsInFlight;
            ++tally.loads;
            ++engineStats.loadsIssued;
            if (observer.issueClasses)
                observer.issueClasses->add(laneLoad);
        } else {
            ++storesInFlight;
            ++tally.stores;
            ++engineStats.storesIssued;
            if (observer.issueClasses)
                observer.issueClasses->add(laneStore);
        }
        tally.any = true;
        --unissuedCount;
        return;
    }

    // Compute ops (including phi and zero-latency wiring).
    if (di->staticInfo->fu != FuType::None) {
        if (!handOffOpen(*di)) {
            // Parked until the previous instance issues or its last
            // reader captures; both re-arm this one.
            di->waitCause = obs::ProfCause::FuContention;
            clearCandidate(di);
            return;
        }
        if (!fuAvailable(*di)) {
            di->waitCause = obs::ProfCause::FuContention;
            return;
        }
    }
    issueCompute(di);
    tally.any = true;
    --unissuedCount;
    if (isFloatingPointOp(op) ||
        di->staticInfo->fu == FuType::FpSpecial) {
        ++tally.fp;
        ++engineStats.fpOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneFp);
    } else if (di->staticInfo->fu != FuType::None) {
        ++engineStats.intOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneInt);
    } else {
        ++engineStats.otherOpsIssued;
        if (observer.issueClasses)
            observer.issueClasses->add(laneOther);
    }
}

void
RuntimeEngine::cycle()
{
    if (!active)
        return;

    // Instances imported last cycle reach their fence in this one.
    fenced.swap(fencedNow);

    // 1. Commit compute operations whose latency has elapsed. The
    //    walk runs only when a commit is due (a walk that removes
    //    nothing leaves the queue order, and so the commit order,
    //    unchanged) and recomputes the earliest due cycle.
    if (cycleCount >= nextCommitDue) {
        nextCommitDue = ~0ull;
        for (std::size_t i = 0; i < computeQueue.size();) {
            DynInst *op = computeQueue[i];
            if (op->commitCycle <= cycleCount) {
                --fuInflight[static_cast<std::size_t>(
                    op->staticInfo->fu)];
                commit(op);
                computeQueue[i] = computeQueue.back();
                computeQueue.pop_back();
            } else {
                nextCommitDue = std::min(nextCommitDue, op->commitCycle);
                ++i;
            }
        }
    }

    // 2. Retry a deferred block import. Under block-sequential
    //    scheduling a cross-block import additionally waits for the
    //    pipeline to drain (FSM state-transition semantics).
    if (pendingImport != nullptr) {
        bool drained = unissuedCount == 0 && computeQueue.empty() &&
            loadsInFlight == 0 && storesInFlight == 0;
        if (!cfg.blockSequentialImport || drained ||
            pendingImportFrom == pendingImport) {
            importCtrlSeq = pendingImportCtrlSeq;
            // Charge the control link for what actually held the
            // import back: mostly memory ops clogging the pipeline,
            // or genuine control-flow serialization.
            importCtrlCause =
                importMemWaitCycles > importOtherWaitCycles
                    ? obs::ProfCause::MemPort
                    : obs::ProfCause::Control;
            importBlock(pendingImport, pendingImportFrom);
            importCtrlSeq = obs::noProfSeq;
            importCtrlCause = obs::ProfCause::Control;
            if (pendingImport == nullptr) {
                importMemWaitCycles = 0;
                importOtherWaitCycles = 0;
            }
        }
        if (pendingImport != nullptr) {
            // Memory holds the import back either as in-flight ops
            // or as ready ops the ports refused last cycle.
            if (loadsInFlight + storesInFlight > 0 ||
                memStallLoadBlocked || memStallStoreBlocked) {
                ++importMemWaitCycles;
            } else {
                ++importOtherWaitCycles;
            }
        }
    }

    // 3. Issue sweep. Issue is dataflow: a younger ready instruction
    //    is not blocked by an older unready one (other than through
    //    the explicit dependency, FU and memory-ordering rules). The
    //    ordering bounds are frozen first; everything resolved or
    //    committed from here on is visible from the next cycle.
    snapshotUnknowns();
    inScan = true;
    scanCursor = 0;

    //    a. Fence step: last cycle's imports may issue now; memory
    //       ops with a ready pointer resolve their address.
    for (DynInst *di : fencedNow) {
        if (di->isMemory())
            resolveAddress(di);
        if (di->pendingOperands == 0)
            setCandidate(di);
    }
    fencedNow.clear();

    //    b. Resolutions that came due (pointer committed outside a
    //       sweep, or behind the cursor of the last one).
    for (std::size_t i = 0; i < resolveDue.size();) {
        if (resolveDue[i].first <= cycleCount) {
            DynInst *di = resolveDue[i].second;
            resolveDue[i] = resolveDue.back();
            resolveDue.pop_back();
            resolveAddress(di);
        } else {
            ++i;
        }
    }

    //    c. Visit the candidates in ascending seq — the reservation
    //       queue's program order. A visit may wake younger entries
    //       (a zero-latency or branch commit, a hand-off re-arm);
    //       they are still ahead of the cursor and issue this cycle.
    //       Blocks imported here fence to the next cycle.
    IssueTally tally;
    firstUnissued = std::max(firstUnissued, windowFront);
    while (firstUnissued < nextSeq && windowAt(firstUnissued)->issued)
        ++firstUnissued;
    std::uint64_t next = firstUnissued;
    while (next < nextSeq) {
        std::uint64_t word = candidateWord(next) & (~0ull << (next & 63));
        if (word == 0) {
            next = (next | 63) + 1;
            continue;
        }
        std::uint64_t seq =
            (next & ~63ull) | static_cast<unsigned>(std::countr_zero(word));
        scanCursor = seq;
        visit(windowAt(seq), tally);
        next = seq + 1;
    }
    inScan = false;
    for (const auto &[op, committed] : summaryPending)
        updateSummary(op, committed);
    summaryPending.clear();

    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "cyc %llu: issued=%d loads=%u stores=%u fp=%u "
                   "rq=%zu cq=%zu lif=%u sif=%u",
                   (unsigned long long)cycleCount, (int)tally.any,
                   tally.loads, tally.stores, tally.fp, unissuedCount,
                   computeQueue.size(), loadsInFlight, storesInFlight);
    memStallLoadBlocked = tally.loadBlocked;
    memStallStoreBlocked = tally.storeBlocked;
    recordCycleStats(tally);
    pruneWindow();

    // 4. Completion check: the kernel is done when ret has executed
    //    and every queue has drained.
    if (retSeen && unissuedCount == 0 && computeQueue.empty() &&
        loadsInFlight == 0 && storesInFlight == 0 &&
        pendingImport == nullptr) {
        finish();
        return;
    }

    ++cycleCount;
    client.engineRequestTick();
}

} // namespace salam::core
