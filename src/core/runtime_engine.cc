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

/** Smallest window capacity (a power of two, >= 128). */
constexpr std::size_t minWindowCapacity = 1024;

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

std::size_t
RuntimeEngine::initialWindowCapacity(const DeviceConfig &config)
{
    return std::max<std::size_t>(
        minWindowCapacity,
        std::bit_ceil(2 * std::size_t{config.reservationQueueSize} + 64));
}

RuntimeEngine::Slab::Slab(std::size_t capacity)
    : table(capacity / chunkSize, nullptr)
{
}

DynInst &
RuntimeEngine::Slab::claim(std::uint64_t seq, std::uint64_t front)
{
    if ((seq & (chunkSize - 1)) == 0) {
        // Entering a new chunk: the window spans chunks [first, last].
        const std::uint64_t first = front >> chunkBits;
        const std::uint64_t last = seq >> chunkBits;
        if (last - first + 1 > table.size()) {
            std::size_t cap = table.size();
            while (last - first + 1 > cap)
                cap *= 2;
            std::vector<Chunk *> grown(cap, nullptr);
            for (std::uint64_t c = first; c < last; ++c)
                grown[c & (cap - 1)] = table[c & (table.size() - 1)];
            table.swap(grown);
        }
        Chunk *chunk;
        if (spare.empty()) {
            chunks.push_back(std::make_unique<Chunk>());
            chunk = chunks.back().get();
        } else {
            chunk = spare.back();
            spare.pop_back();
        }
        table[last & (table.size() - 1)] = chunk;
    }
    return at(seq);
}

void
RuntimeEngine::Slab::retire(std::uint64_t old_front,
                            std::uint64_t new_front)
{
    // Chunks wholly behind the new front hold only retired records.
    for (std::uint64_t c = old_front >> chunkBits;
         c < (new_front >> chunkBits); ++c) {
        spare.push_back(table[c & (table.size() - 1)]);
    }
}

RuntimeEngine::RuntimeEngine(const StaticCdfg &cdfg,
                             const DeviceConfig &config,
                             EngineClient &client)
    : staticCdfg(cdfg), cfg(config), client(client),
      infos(cdfg.numInstructions() > 0 ? &cdfg.infoById(0) : nullptr),
      slab(initialWindowCapacity(config))
{
    for (std::size_t t = 0; t < numFuTypes; ++t) {
        unsigned limit = cfg.fuLimits[t];
        if (limit > 0)
            poolFreeAt[t].assign(limit, 0);
    }
    // Sized from the reservation queue up front, so the candidate
    // bitmap, the operand and memory-order rings, the reader-edge
    // pool and the fence lists rarely grow mid-run.
    const std::size_t window_cap = initialWindowCapacity(cfg);
    candBits.assign(std::max<std::size_t>(64, window_cap / 64), 0);
    candSummary.assign(candBits.size() / 64, 0);
    slotProducers.assign(2 * window_cap, nullptr);
    slotValues.assign(2 * window_cap, RuntimeValue{});
    memRing.assign(window_cap, MemOp{});
    readerEdges.reserve(2 * std::size_t{cfg.reservationQueueSize});
    fenced.reserve(cfg.reservationQueueSize);
    fencedNow.reserve(cfg.reservationQueueSize);
    latestInstance.assign(staticCdfg.numInstructions(), nullptr);
    committedValues.assign(staticCdfg.numValueIds(), RuntimeValue{});
    committedKnown.assign(staticCdfg.numValueIds(), 0);
}

RuntimeEngine::DynProfile
RuntimeEngine::freshProfile(std::uint64_t min_issue_cycle,
                            std::uint64_t ctrl_parent,
                            obs::ProfCause ctrl_cause)
{
    return DynProfile{.minIssueCycle = min_issue_cycle,
                      .commitCycle = 0,
                      .issueTick = 0,
                      .prodReadyCycle = 0,
                      .prodParentSeq = obs::noProfSeq,
                      .ctrlParentSeq = ctrl_parent,
                      .ctrlLinkCause = ctrl_cause,
                      .waitCause = obs::ProfCause::DataDep};
}

void
RuntimeEngine::setObserver(EngineObserver obs)
{
    const bool attach_profiler =
        obs.profiler != nullptr && observer.profiler == nullptr;
    observer = std::move(obs);
    // Profiling records are written from import on; give instances
    // already in the window (the entry block, when the owner wires
    // the observer between start() and the first cycle) theirs.
    if (attach_profiler) {
        for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
            slab.profileAt(s) = freshProfile(
                cycleCount, obs::noProfSeq, obs::ProfCause::Control);
        }
    }
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
    importBlock(staticCdfg.blockInfo(fn.entry()).id, noBlock);
    // The entry block may issue in cycle 0.
    if (observer.profiler != nullptr) {
        for (std::uint64_t s = windowFront; s < nextSeq; ++s)
            slab.profileAt(s).minIssueCycle = 0;
    }
    client.engineRequestTick();
}

DynInst *
RuntimeEngine::createDynInst(const StaticInstInfo &info)
{
    // A record is new only while the window is at its high-water
    // mark; otherwise a retired one is reused (EngineStats::
    // arenaHits).
    if (nextSeq - windowFront == windowHighWater) {
        ++engineStats.arenaMisses;
        ++windowHighWater;
    } else {
        ++engineStats.arenaHits;
    }
    // Keep a word of slack so the sweep's word walk never wraps
    // onto the window's own front.
    if (nextSeq + 1 - windowFront + 64 > candBits.size() * 64)
        growCandidates();

    const std::uint64_t base = allocSlots(info.numSlots);
    for (unsigned i = 0; i < info.numSlots; ++i) {
        const std::size_t idx = (base + i) & (slotValues.size() - 1);
        slotProducers[idx] = nullptr;
        slotValues[idx] = RuntimeValue{};
    }

    DynInst *di = &slab.claim(nextSeq, windowFront);
    *di = DynInst{};
    di->seq = nextSeq;
    di->operandBase = static_cast<std::uint32_t>(base);
    di->staticId = info.id;
    di->kind = info.kind;
    if (observer.profiler != nullptr) {
        slab.profileAt(nextSeq) =
            freshProfile(cycleCount + 1, importCtrlSeq, importCtrlCause);
    }
    ++nextSeq;

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

std::uint64_t
RuntimeEngine::allocSlots(unsigned n)
{
    for (;;) {
        const std::size_t cap = slotValues.size();
        std::uint64_t pos = slotHead;
        const std::size_t offset = pos & (cap - 1);
        if (offset + n > cap)
            pos += cap - offset; // keep the instance's slots contiguous
        if (pos + n - slotFront <= cap) {
            slotHead = pos + n;
            return pos;
        }
        growSlots();
    }
}

void
RuntimeEngine::growSlots()
{
    // Live positions keep their ring index modulo the new size, and
    // an instance that did not wrap the old ring cannot wrap the
    // doubled one.
    const std::size_t cap = slotValues.size() * 2;
    std::vector<DynInst *> producers(cap, nullptr);
    std::vector<RuntimeValue> values(cap, RuntimeValue{});
    for (std::uint64_t p = slotFront; p < slotHead; ++p) {
        producers[p & (cap - 1)] =
            slotProducers[p & (slotProducers.size() - 1)];
        values[p & (cap - 1)] = slotValues[p & (slotValues.size() - 1)];
    }
    slotProducers.swap(producers);
    slotValues.swap(values);
}

void
RuntimeEngine::growMemRing()
{
    const std::size_t cap = memRing.size() * 2;
    std::vector<MemOp> ring(cap, MemOp{});
    for (std::uint64_t m = memFront; m < nextMemSeq; ++m)
        ring[m & (cap - 1)] = memRing[m & (memRing.size() - 1)];
    memRing.swap(ring);
}

void
RuntimeEngine::growCandidates()
{
    const std::size_t words = candBits.size() * 2;
    std::vector<std::uint64_t> bits(words, 0);
    for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
        std::uint64_t bit = 1ull << (s & 63);
        if (candidateWord(s) & bit)
            bits[(s >> 6) & (words - 1)] |= bit;
    }
    candBits.swap(bits);
    candSummary.assign(words / 64, 0);
    for (std::size_t w = 0; w < words; ++w) {
        if (candBits[w] != 0)
            candSummary[w >> 6] |= 1ull << (w & 63);
    }
}

void
RuntimeEngine::importBlock(std::uint32_t block_id, std::uint32_t from)
{
    const StaticBlockInfo &binfo = staticCdfg.blockInfoById(block_id);
    if (binfo.numInsts > cfg.reservationQueueSize)
        fatal("engine: block '%s' (%zu instructions) exceeds the "
              "reservation queue (%u); raise "
              "DeviceConfig::reservationQueueSize",
              binfo.block->name().c_str(), binfo.block->size(),
              cfg.reservationQueueSize);
    if (unissuedCount + binfo.numInsts > cfg.reservationQueueSize) {
        pendingImport = block_id;
        pendingImportFrom = from;
        pendingImportCtrlSeq = importCtrlSeq;
        return;
    }
    pendingImport = noBlock;
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "import block '%s' (%u instructions)",
                   binfo.block->name().c_str(), binfo.numInsts);
    if (observer.sink) {
        observer.sink->recordInstant(obsNow(), observer.name,
                                     "engine",
                                     "import " + binfo.block->name());
    }

    for (unsigned i = 0; i < binfo.numInsts; ++i) {
        const StaticInstInfo &sinfo = infos[binfo.firstInstId + i];
        DynInst *di = createDynInst(sinfo);

        // Bind operands from the elaboration-time plans. A Producer
        // plan checks the live-instance table first (RAW edge or
        // in-window result), then falls back to the committed-value
        // slot; Committed plans go straight there.
        auto bind_plan = [&](unsigned slot, const OperandPlan &plan) {
            const std::size_t idx = slotIndex(*di, slot);
            switch (plan.kind) {
              case OperandPlan::Kind::Constant:
                slotValues[idx] = plan.constant;
                return;
              case OperandPlan::Kind::Control:
                return; // control references carry no data
              case OperandPlan::Kind::Producer: {
                DynInst *latest = latestInstance[plan.producerId];
                if (latest != nullptr && !latest->committed()) {
                    slotProducers[idx] = latest;
                    ++latest->unissuedReaders;
                    addReader(latest, di);
                    ++di->pendingOperands;
                    return;
                }
                if (latest != nullptr) {
                    slotValues[idx] = latest->result;
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
                          : sinfo.inst->operand(slot)->name().c_str(),
                      sinfo.inst->name().c_str());
            }
            slotValues[idx] = committedValues[plan.valueId];
        };

        if (sinfo.isPhi) {
            // One live operand slot: the edge taken.
            const OperandPlan *plan = nullptr;
            if (from != noBlock) {
                for (const auto &[pred_id, p] : sinfo.phiIncoming) {
                    if (pred_id == from) {
                        plan = &p;
                        break;
                    }
                }
            }
            if (plan == nullptr)
                panic("phi %%%s has no incoming for edge",
                      sinfo.inst->name().c_str());
            bind_plan(0, *plan);
        } else {
            for (unsigned o = 0; o < sinfo.numSlots; ++o)
                bind_plan(o, sinfo.operands[o]);
        }

        ++unissuedCount;
        fenced.push_back(di);
        if (di->isMemory()) {
            if (nextMemSeq - memFront == memRing.size())
                growMemRing();
            memRing[nextMemSeq & (memRing.size() - 1)] =
                MemOp{di, 0, 0};
            di->memSlot = static_cast<std::uint32_t>(nextMemSeq);
            ++nextMemSeq;
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
    const std::uint64_t bit = 1ull << (di->seq & 63);
    const std::size_t w = (di->seq >> 6) & (candBits.size() - 1);
    if ((candBits[w] & bit) == 0) {
        candBits[w] |= bit;
        candSummary[w >> 6] |= 1ull << (w & 63);
        ++work.wakeups;
    }
}

void
RuntimeEngine::clearCandidate(const DynInst *di)
{
    const std::size_t w = (di->seq >> 6) & (candBits.size() - 1);
    candBits[w] &= ~(1ull << (di->seq & 63));
    if (candBits[w] == 0)
        candSummary[w >> 6] &= ~(1ull << (w & 63));
}

std::uint64_t
RuntimeEngine::nextCandidateWord(std::uint64_t seq,
                                 std::uint64_t end) const
{
    SALAM_ASSERT((seq & 63) == 0);
    // Walk the summary in ring order; a summary word covers 64
    // candidate words, and the ring holds a whole number of them.
    const std::size_t mask = candBits.size() - 1;
    while (seq < end) {
        const std::size_t w = (seq >> 6) & mask;
        const std::uint64_t live =
            candSummary[w >> 6] & (~0ull << (w & 63));
        if (live != 0) {
            const std::size_t hit =
                (w & ~std::size_t{63}) |
                static_cast<std::size_t>(std::countr_zero(live));
            return std::min<std::uint64_t>(end, seq + ((hit - w) << 6));
        }
        seq += (64 - (w & 63)) << 6;
    }
    return end;
}

void
RuntimeEngine::wake(DynInst *di)
{
    if ((di->flags & (DynInst::Issued | DynInst::FenceOpen)) ==
            DynInst::FenceOpen &&
        di->pendingOperands == 0) {
        setCandidate(di);
    }
}

void
RuntimeEngine::markIssued(DynInst *di)
{
    di->set(DynInst::Issued);
    di->issueCycle = cycleCount;
    clearCandidate(di);
    // Issuing may open the successor instance's hand-off gate.
    if (di->nextInstance != nullptr)
        wake(di->nextInstance);
}

void
RuntimeEngine::captureOperands(DynInst *di, const StaticInstInfo &si)
{
    for (unsigned i = 0; i < si.numSlots; ++i) {
        const std::size_t idx = slotIndex(*di, i);
        DynInst *producer = slotProducers[idx];
        if (producer == nullptr)
            continue;
        SALAM_ASSERT(producer->committed());
        slotValues[idx] = producer->result;
        SALAM_ASSERT(producer->unissuedReaders > 0);
        // Draining the producer's output register may open its
        // successor instance's hand-off gate.
        if (--producer->unissuedReaders == 0 &&
            producer->nextInstance != nullptr) {
            wake(producer->nextInstance);
        }
        slotProducers[idx] = nullptr;
        // Remember the latest-committing producer: it is the
        // critical data predecessor in the recorded CDFG.
        if (observer.profiler != nullptr) {
            DynProfile &prof = slab.profileAt(di->seq);
            const std::uint64_t ready =
                slab.profileAt(producer->seq).commitCycle;
            if (prof.prodParentSeq == obs::noProfSeq ||
                ready > prof.prodReadyCycle ||
                (ready == prof.prodReadyCycle &&
                 producer->seq > prof.prodParentSeq)) {
                prof.prodReadyCycle = ready;
                prof.prodParentSeq = producer->seq;
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
        (prev->issued() && prev->unissuedReaders == 0);
}

bool
RuntimeEngine::fuAvailable(const DynInst &di,
                           const StaticInstInfo &si) const
{
    // The shared (or dedicated) unit enforces the initiation
    // interval against the previous instance.
    const DynInst *prev = di.prevInstance;
    if (prev != nullptr &&
        cycleCount < prev->issueCycle + si.initiationInterval) {
        return false;
    }

    std::size_t t = static_cast<std::size_t>(si.fu);
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
RuntimeEngine::occupyFu(const StaticInstInfo &si)
{
    if (si.fu == FuType::None)
        return;
    std::size_t t = static_cast<std::size_t>(si.fu);
    unsigned limit = cfg.fuLimits[t];
    if (limit == 0)
        return; // dedicated: II enforced via prevInstance
    for (auto &free_at : poolFreeAt[t]) {
        if (free_at <= cycleCount) {
            free_at = cycleCount + si.initiationInterval;
            return;
        }
    }
    panic("occupyFu called without an available unit");
}

void
RuntimeEngine::resolveAddress(DynInst *di)
{
    if (di->has(DynInst::AddrKnown))
        return;
    const std::size_t ptr =
        slotIndex(*di, di->isLoad() ? 0 : 1);
    const DynInst *producer = slotProducers[ptr];
    RuntimeValue addr;
    if (producer == nullptr) {
        addr = slotValues[ptr];
    } else if (producer->committed()) {
        addr = producer->result;
    } else {
        return;
    }
    memOpOf(*di).addr = addr.bits;
    di->set(DynInst::AddrKnown);
    // Resolutions happen only in the sweep, whose ordering checks
    // use the summary as of the sweep's start.
    SALAM_ASSERT(inScan);
    summaryPending.emplace_back(di, false);
    if (capture != nullptr) {
        DynTraceInst &rec = capture->insts[di->seq];
        rec.memAddr = addr.bits;
        rec.memSize = info(*di).accessSize;
    }
}

void
RuntimeEngine::noteAddressReady(DynInst *di)
{
    // An address resolves at the first sweep that reaches the op in
    // program order with its pointer committed and its fence passed:
    // this one if the op is still ahead of the cursor, else the
    // next. Before the fence, the fence step resolves it.
    if (di->has(DynInst::AddrKnown) || !di->has(DynInst::FenceOpen))
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
    auto first_unknown = [&](std::uint64_t &cursor,
                             bool stores) -> std::uint64_t {
        cursor = std::max(cursor, memFront);
        for (; cursor < nextMemSeq; ++cursor) {
            const DynInst *op =
                memRing[cursor & (memRing.size() - 1)].op;
            if (op->isStore() == stores &&
                !op->has(DynInst::AddrKnown)) {
                return op->seq;
            }
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
    std::vector<MemRef> &refs = op->isStore() ? knownStores : knownLoads;
    auto by_seq = [](const MemRef &ref, std::uint64_t seq) {
        return ref.seq < seq;
    };
    auto it = std::lower_bound(refs.begin(), refs.end(), op->seq,
                               by_seq);
    if (committed) {
        SALAM_ASSERT(it != refs.end() && it->seq == op->seq);
        refs.erase(it);
    } else {
        refs.insert(it, {op->seq, memOpOf(*op).addr,
                         info(*op).accessSize});
    }
}

bool
RuntimeEngine::memoryOrderingAllows(const DynInst &di,
                                    const StaticInstInfo &si) const
{
    SALAM_ASSERT(di.has(DynInst::AddrKnown));
    // Unknown-address older stores block everything younger;
    // unknown older loads block younger stores.
    if (snapUnknownStore < di.seq)
        return false;
    if (di.isStore() && snapUnknownLoad < di.seq)
        return false;

    // Any overlapping older store blocks; stores also wait for
    // overlapping older loads.
    const std::uint64_t addr = memOpOf(di).addr;
    const unsigned size = si.accessSize;
    auto older_overlap = [&](const std::vector<MemRef> &refs) {
        for (const MemRef &ref : refs) {
            if (ref.seq >= di.seq)
                return false;
            if (ref.addr < addr + size && addr < ref.addr + ref.size)
                return true;
        }
        return false;
    };
    if (older_overlap(knownStores))
        return false;
    return !(di.isStore() && older_overlap(knownLoads));
}

void
RuntimeEngine::issueCompute(DynInst *di, const StaticInstInfo &si)
{
    SALAM_TRACE_AT(Issue, obsNow(), observer.name.c_str(),
                   "issue %s seq=%llu fu=%u",
                   si.inst->name().c_str(),
                   (unsigned long long)di->seq,
                   static_cast<unsigned>(si.fu));
    captureOperands(di, si);
    occupyFu(si);
    markIssued(di);
    if (observer.sink)
        slab.profileAt(di->seq).issueTick = obsNow();

    const HardwareProfile &profile = cfg.profile;
    if (si.fu != FuType::None)
        engineStats.fuEnergyPj += profile.fu(si.fu).dynamicEnergyPj;
    // Register file activity: operand reads now, result write at
    // commit.
    engineStats.registerReadEnergyPj +=
        si.readBits * profile.registers().readEnergyPjPerBit;

    // Functional evaluation happens at issue; the commit of the
    // result is delayed by the unit latency.
    if (di->kind == OpKind::Phi) {
        di->result = operandValue(*di, 0);
    } else if (di->kind == OpKind::Compute) {
        di->result = evalCompute(
            *si.inst, OperandSpan(&slotValues[slotIndex(*di, 0)],
                                  si.numSlots));
    }

    if (si.latency == 0) {
        commit(di);
    } else {
        const std::uint64_t due = cycleCount + si.latency;
        computeQueue.push_back({due, di});
        nextCommitDue = std::min(nextCommitDue, due);
        ++fuInflight[static_cast<std::size_t>(si.fu)];
    }
}

void
RuntimeEngine::commit(DynInst *di)
{
    SALAM_ASSERT(!di->committed());
    di->set(DynInst::Committed);
    ++engineStats.committedInstructions;
    const StaticInstInfo &si = info(*di);
    if (observer.sink || observer.profiler) {
        // The engine is ticked every cycle while active, so queued
        // compute ops reach here exactly at their scheduled cycle.
        DynProfile &prof = slab.profileAt(di->seq);
        prof.commitCycle = cycleCount;
        if (observer.sink && di->issued() &&
            (di->isMemory() || si.latency > 0)) {
            Tick end = obsNow();
            Tick dur = end > prof.issueTick ? end - prof.issueTick : 0;
            observer.sink->recordSlice(
                prof.issueTick, dur, observer.name,
                di->isMemory() ? "mem" : "compute",
                di->isLoad() ? "load"
                             : di->isStore() ? "store" : si.inst->name());
        }
    }
    if (si.hasResult) {
        committedValues[si.resultValueId] = di->result;
        committedKnown[si.resultValueId] = 1;
        engineStats.registerWriteEnergyPj +=
            static_cast<double>(si.resultBits) *
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
            slotProducers[slotIndex(*reader, reader->isLoad() ? 0 : 1)] ==
                di) {
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
RuntimeEngine::recordProfile(const DynInst *di)
{
    const DynProfile &prof = slab.profileAt(di->seq);
    obs::ProfNode node;
    node.seq = di->seq;
    node.staticId = di->staticId;
    node.issueCycle = di->issueCycle;
    node.commitCycle = prof.commitCycle;

    // The instance became ready when its last constraint cleared:
    // the importing terminator (minIssueCycle fence) or the
    // latest-committing operand producer. Ties go to the data edge —
    // it is the longer dependence chain.
    node.readyCycle = prof.minIssueCycle;
    if (prof.ctrlParentSeq != obs::noProfSeq) {
        node.parentSeq = prof.ctrlParentSeq;
        node.linkCause = prof.ctrlLinkCause;
    }
    if (prof.prodParentSeq != obs::noProfSeq &&
        prof.prodReadyCycle >= node.readyCycle) {
        node.readyCycle = prof.prodReadyCycle;
        node.parentSeq = prof.prodParentSeq;
        node.linkCause = obs::ProfCause::DataDep;
    }
    if (node.readyCycle > node.issueCycle)
        node.readyCycle = node.issueCycle;

    node.waitCause = prof.waitCause;
    if (di->isMemory()) {
        // Precedence: the most specific memory-system annotation
        // wins; a plain round trip is the default.
        unsigned flags = memOpOf(*di).serviceFlags;
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
                              unsigned size, unsigned service_flags)
{
    SALAM_ASSERT(op->has(DynInst::MemInFlight));
    const StaticInstInfo &si = info(*op);
    MemOp &mop = memOpOf(*op);
    SALAM_TRACE_AT(RuntimeEngine, obsNow(), observer.name,
                   "%s response seq=%llu addr=0x%llx size=%u",
                   op->isLoad() ? "load" : "store",
                   (unsigned long long)op->seq,
                   (unsigned long long)mop.addr, si.accessSize);
    op->clear(DynInst::MemInFlight);
    // The memory system's service annotations, for the commit's
    // profile attribution.
    mop.serviceFlags = service_flags;
    if (op->isLoad()) {
        SALAM_ASSERT(size >= si.accessSize);
        std::uint64_t raw = 0;
        std::memcpy(&raw, data, si.accessSize);
        op->result.bits = raw & si.loadMask;
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
    const std::uint64_t old_front = windowFront;
    while (windowFront < nextSeq) {
        DynInst *front = windowAt(windowFront);
        if (!front->committed() || front->unissuedReaders > 0)
            break;
        if (front->nextInstance != nullptr &&
            !front->nextInstance->issued()) {
            break;
        }
        if (front->nextInstance == nullptr) {
            // Still the newest instance of its static instruction:
            // unregister it so later readers bind to the committed
            // value instead. (A future instance then starts without
            // a WAW link to this long-retired one; by then the
            // initiation-interval spacing is trivially satisfied.)
            DynInst *&latest = latestInstance[front->staticId];
            if (latest == front)
                latest = nullptr;
        } else {
            front->nextInstance->prevInstance = nullptr;
        }
        if (front->isMemory()) {
            SALAM_ASSERT(memFront < nextMemSeq &&
                         memRing[memFront & (memRing.size() - 1)].op ==
                             front);
            ++memFront;
        }
        ++windowFront;
    }
    if (windowFront == old_front)
        return;
    slab.retire(old_front, windowFront);
    // Operand slots before the new front instance's are free.
    if (windowFront < nextSeq) {
        const std::uint32_t base = windowAt(windowFront)->operandBase;
        slotFront += static_cast<std::uint32_t>(
            base - static_cast<std::uint32_t>(slotFront));
    } else {
        slotFront = slotHead;
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
    if (pendingImport != noBlock) {
        json.field("pending_import",
                   staticCdfg.blockInfoById(pendingImport).block->name());
    }

    auto describe = [this, &json](const DynInst *di) {
        json.beginObject()
            .field("seq", di->seq)
            .field("inst", "%" + info(*di).inst->name())
            .field("issued", di->issued())
            .field("committed", di->committed());
        if (di->isMemory()) {
            const MemOp &mop = memOpOf(*di);
            json.field("mem", di->isLoad() ? "load" : "store")
                .field("addr_known", di->has(DynInst::AddrKnown))
                .field("addr", mop.addr)
                .field("in_flight", di->has(DynInst::MemInFlight))
                .field("service_flags",
                       std::uint64_t(mop.serviceFlags));
        }
        json.endObject();
    };

    json.beginArray("reservation_queue");
    for (std::uint64_t s = windowFront; s < nextSeq; ++s) {
        if (!windowAt(s)->issued())
            describe(windowAt(s));
    }
    json.endArray();
    json.beginArray("compute_queue");
    for (const ComputeEntry &entry : computeQueue)
        describe(entry.op);
    json.endArray();
    json.beginArray("memory_order");
    for (std::uint64_t m = memFront; m < nextMemSeq; ++m)
        describe(memRing[m & (memRing.size() - 1)].op);
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
RuntimeEngine::countIssue(IssueClass cls, IssueTally &tally)
{
    tally.any = true;
    switch (cls) {
      case IssueClass::Load:
        ++tally.loads;
        ++engineStats.loadsIssued;
        break;
      case IssueClass::Store:
        ++tally.stores;
        ++engineStats.storesIssued;
        break;
      case IssueClass::Fp:
        ++tally.fp;
        ++engineStats.fpOpsIssued;
        break;
      case IssueClass::Int:
        ++engineStats.intOpsIssued;
        break;
      case IssueClass::Other:
        ++engineStats.otherOpsIssued;
        break;
    }
    if (observer.issueClasses)
        observer.issueClasses->add(static_cast<unsigned>(cls));
}

void
RuntimeEngine::visit(DynInst *di, IssueTally &tally)
{
    ++work.visits;
    const StaticInstInfo &si = info(*di);
    switch (di->kind) {
      case OpKind::Branch: {
        captureOperands(di, si);
        const std::uint32_t target =
            !si.conditional || operandValue(*di, 0).asBool()
                ? si.succTrue
                : si.succFalse;
        markIssued(di);
        commit(di);
        if (capture != nullptr)
            capture->insts[di->seq].branchTarget = target;
        const std::uint32_t cur = si.blockId;
        if (cfg.blockSequentialImport && target != cur &&
            pendingImport == noBlock) {
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
        countIssue(si.issueClass, tally);
        return;
      }
      case OpKind::Ret:
        captureOperands(di, si);
        if (si.numSlots == 1)
            di->result = operandValue(*di, 0);
        markIssued(di);
        commit(di);
        retSeen = true;
        --unissuedCount;
        countIssue(si.issueClass, tally);
        return;
      case OpKind::Load:
      case OpKind::Store: {
        // Operands are ready, so the pointer resolved by now.
        SALAM_ASSERT(di->has(DynInst::AddrKnown));
        if (!memoryOrderingAllows(*di, si)) {
            noteWait(di, obs::ProfCause::MemOrdering);
            return;
        }
        const bool is_load = di->isLoad();
        if (is_load && (tally.loads >= cfg.readPortsPerCycle ||
                        loadsInFlight >= cfg.readQueueSize)) {
            tally.loadBlocked = true;
            noteWait(di, obs::ProfCause::MemPort);
            return;
        }
        if (!is_load && (tally.stores >= cfg.writePortsPerCycle ||
                         storesInFlight >= cfg.writeQueueSize)) {
            tally.storeBlocked = true;
            noteWait(di, obs::ProfCause::MemPort);
            return;
        }
        captureOperands(di, si);
        // A store's data is its value operand (slot 0).
        const MemAccess access{
            di, memOpOf(*di).addr, si.accessSize, is_load,
            is_load ? 0 : operandValue(*di, 0).bits};
        if (!client.engineIssueMemory(access)) {
            // Interface refused; operands stay captured, retry next
            // cycle (captureOperands is idempotent once producers
            // are cleared).
            noteWait(di, obs::ProfCause::MemPort);
            return;
        }
        markIssued(di);
        di->set(DynInst::MemInFlight);
        if (observer.sink)
            slab.profileAt(di->seq).issueTick = obsNow();
        SALAM_TRACE_AT(Issue, obsNow(), observer.name,
                       "issue %s seq=%llu addr=0x%llx size=%u",
                       is_load ? "load" : "store",
                       (unsigned long long)di->seq,
                       (unsigned long long)access.addr, access.size);
        if (is_load)
            ++loadsInFlight;
        else
            ++storesInFlight;
        --unissuedCount;
        countIssue(si.issueClass, tally);
        return;
      }
      case OpKind::Compute:
      case OpKind::Phi:
        break;
    }

    // Compute ops (including phi and zero-latency wiring).
    if (si.fu != FuType::None) {
        if (!handOffOpen(*di)) {
            // Parked until the previous instance issues or its last
            // reader captures; both re-arm this one.
            noteWait(di, obs::ProfCause::FuContention);
            clearCandidate(di);
            return;
        }
        if (!fuAvailable(*di, si)) {
            noteWait(di, obs::ProfCause::FuContention);
            return;
        }
    }
    issueCompute(di, si);
    --unissuedCount;
    countIssue(si.issueClass, tally);
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
            const ComputeEntry entry = computeQueue[i];
            if (entry.commitCycle <= cycleCount) {
                --fuInflight[static_cast<std::size_t>(
                    info(*entry.op).fu)];
                commit(entry.op);
                computeQueue[i] = computeQueue.back();
                computeQueue.pop_back();
            } else {
                nextCommitDue =
                    std::min(nextCommitDue, entry.commitCycle);
                ++i;
            }
        }
    }

    // 2. Retry a deferred block import. Under block-sequential
    //    scheduling a cross-block import additionally waits for the
    //    pipeline to drain (FSM state-transition semantics).
    if (pendingImport != noBlock) {
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
            if (pendingImport == noBlock) {
                importMemWaitCycles = 0;
                importOtherWaitCycles = 0;
            }
        }
        if (pendingImport != noBlock) {
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
        di->set(DynInst::FenceOpen);
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
    while (firstUnissued < nextSeq && windowAt(firstUnissued)->issued())
        ++firstUnissued;
    std::uint64_t next = firstUnissued;
    while (next < nextSeq) {
        std::uint64_t word = candidateWord(next) & (~0ull << (next & 63));
        if (word == 0) {
            next = nextCandidateWord((next | 63) + 1, nextSeq);
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
        pendingImport == noBlock) {
        finish();
        return;
    }

    ++cycleCount;
    client.engineRequestTick();
}

} // namespace salam::core
