/** @file Trace-reuse fast path: replay fidelity and fallback. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/accel_fixture.hh"
#include "core/dyn_trace.hh"
#include "core/static_cdfg.hh"
#include "drive/trace_replay.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"

using namespace salam;

namespace
{

/** One full simulation of a (dev, spm) point; the replay oracle. */
struct FullRun
{
    core::EngineStats stats;
    std::uint64_t spmReads = 0;
    std::uint64_t spmWrites = 0;
};

/** The replay tests' default workload: a small unrolled GEMM. */
constexpr const char *smallGemm = "gemm-8u2";

std::unique_ptr<kernels::Kernel>
kernelFor(const std::string &name)
{
    if (name == smallGemm)
        return kernels::makeGemm(8, 2);
    return kernels::makeKernel(name);
}

/** @p spm_cfg with its address range sized for @p kernel. */
mem::ScratchpadConfig
sizedFor(const kernels::Kernel &kernel, mem::ScratchpadConfig spm_cfg)
{
    drive::MemoryConfig memcfg;
    spm_cfg.range = drive::scratchpadFor(kernel, memcfg).range;
    return spm_cfg;
}

FullRun
runFull(const std::string &name, const core::DeviceConfig &dev,
        const mem::ScratchpadConfig &spm_cfg,
        core::DynTrace *capture = nullptr)
{
    // Fresh IR per run, like the benches: kernel IR construction is
    // deterministic, so static ids agree across builds.
    auto kernel = kernelFor(name);
    ir::Module mod("replay_full");
    ir::IRBuilder b(mod);
    ir::Function *fn = kernel->buildOptimized(b);

    test::AccelSystem sys(*fn, dev, sizedFor(*kernel, spm_cfg));
    if (capture != nullptr)
        sys.bench.cu.enableTraceCapture(capture);

    mem::ScratchpadBackdoor backdoor(sys.bench.spm);
    kernel->seed(backdoor, test::spmBase);
    sys.run(kernel->args(test::spmBase));
    EXPECT_EQ(kernel->check(backdoor, test::spmBase), "") << name;

    FullRun out;
    out.stats = sys.bench.cu.stats();
    out.spmReads = sys.bench.spm.readCount();
    out.spmWrites = sys.bench.spm.writeCount();
    return out;
}

/** Captured trace + replay IR, shared by every replay of a kernel. */
struct Captured
{
    core::DynTrace trace;
    std::shared_ptr<ir::Module> mod;
    ir::Function *fn = nullptr;
    drive::ReplayPrep prep;
};

/**
 * Capture regime mirroring drive::runPoint()'s capture: wide ports
 * so the capture run is cheap, block-sequential import left at the
 * replay configs' (default) value — the one knob that must agree.
 * One capture per kernel, cached for the whole file.
 */
const Captured &
captured(const std::string &name = smallGemm)
{
    static std::map<std::string, std::unique_ptr<Captured>> cache;
    std::unique_ptr<Captured> &slot = cache[name];
    if (slot != nullptr)
        return *slot;
    slot = std::make_unique<Captured>();
    Captured &out = *slot;
    core::DeviceConfig cap;
    cap.readPortsPerCycle = 64;
    cap.writePortsPerCycle = 64;
    cap.readQueueSize = 64;
    cap.writeQueueSize = 64;
    mem::ScratchpadConfig scfg = test::AccelSystem::defaultSpm();
    scfg.readPorts = 64;
    scfg.writePorts = 64;
    runFull(name, cap, scfg, &out.trace);

    auto kernel = kernelFor(name);
    out.mod = std::make_shared<ir::Module>("replay_ir");
    ir::IRBuilder b(*out.mod);
    out.fn = kernel->buildOptimized(b);
    core::StaticCdfg cdfg(*out.fn, cap);
    out.prep = drive::buildReplayPrep(cdfg, out.trace);
    return out;
}

drive::ReplayResult
replayPoint(const core::DeviceConfig &dev,
            const mem::ScratchpadConfig &spm_cfg,
            const std::string &name = smallGemm)
{
    const Captured &c = captured(name);
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    spm.latencyCycles = spm_cfg.latencyCycles;
    spm.readPorts = spm_cfg.readPorts;
    spm.writePorts = spm_cfg.writePorts;
    spm.banks = spm_cfg.banks;
    spm.wordBytes = spm_cfg.wordBytes;
    drive::TraceReplayer replayer(cdfg, dev, c.trace, spm, &c.prep);
    return replayer.run();
}

/**
 * Field-by-field: the fast path promises the stats are
 * bit-identical, not merely close, so doubles compare exactly too.
 */
void
expectStatsEqual(const core::EngineStats &fast,
                 const core::EngineStats &full)
{
#define SALAM_EXPECT_FIELD_EQ(f) EXPECT_EQ(fast.f, full.f) << #f
    SALAM_EXPECT_FIELD_EQ(totalCycles);
    SALAM_EXPECT_FIELD_EQ(newExecCycles);
    SALAM_EXPECT_FIELD_EQ(stallCycles);
    SALAM_EXPECT_FIELD_EQ(stallLoadOnly);
    SALAM_EXPECT_FIELD_EQ(stallStoreOnly);
    SALAM_EXPECT_FIELD_EQ(stallComputeOnly);
    SALAM_EXPECT_FIELD_EQ(stallLoadCompute);
    SALAM_EXPECT_FIELD_EQ(stallStoreCompute);
    SALAM_EXPECT_FIELD_EQ(stallLoadStore);
    SALAM_EXPECT_FIELD_EQ(stallLoadStoreCompute);
    SALAM_EXPECT_FIELD_EQ(stallEmpty);
    SALAM_EXPECT_FIELD_EQ(loadsIssued);
    SALAM_EXPECT_FIELD_EQ(storesIssued);
    SALAM_EXPECT_FIELD_EQ(fpOpsIssued);
    SALAM_EXPECT_FIELD_EQ(intOpsIssued);
    SALAM_EXPECT_FIELD_EQ(otherOpsIssued);
    SALAM_EXPECT_FIELD_EQ(dynamicInstructions);
    SALAM_EXPECT_FIELD_EQ(committedInstructions);
    SALAM_EXPECT_FIELD_EQ(arenaHits);
    SALAM_EXPECT_FIELD_EQ(arenaMisses);
    SALAM_EXPECT_FIELD_EQ(cyclesWithLoadIssue);
    SALAM_EXPECT_FIELD_EQ(cyclesWithStoreIssue);
    SALAM_EXPECT_FIELD_EQ(cyclesWithFpIssue);
    SALAM_EXPECT_FIELD_EQ(cyclesWithLoadAndStoreIssue);
    SALAM_EXPECT_FIELD_EQ(cyclesWithLoadAndFpIssue);
    SALAM_EXPECT_FIELD_EQ(fuEnergyPj);
    SALAM_EXPECT_FIELD_EQ(registerReadEnergyPj);
    SALAM_EXPECT_FIELD_EQ(registerWriteEnergyPj);
#undef SALAM_EXPECT_FIELD_EQ
    for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
        EXPECT_EQ(fast.fuBusyCycleSum[t], full.fuBusyCycleSum[t])
            << "fuBusyCycleSum[" << t << "]";
    }
}

/** One replay configuration of the equivalence grid. */
struct PointConfig
{
    const char *name;
    unsigned ports;      // engine issue ports + SPM ports
    unsigned fpLimit;    // 0 = dedicated FUs
    unsigned spmLatency;
    unsigned banks;
};

void
toConfigs(const PointConfig &p, core::DeviceConfig &dev,
          mem::ScratchpadConfig &spm)
{
    dev = core::DeviceConfig{};
    dev.readPortsPerCycle = p.ports;
    dev.writePortsPerCycle = p.ports;
    if (p.fpLimit != 0) {
        dev.setFuLimit(hw::FuType::FpAddSubDouble, p.fpLimit);
        dev.setFuLimit(hw::FuType::FpMultiplierDouble, p.fpLimit);
    }
    spm = test::AccelSystem::defaultSpm();
    spm.readPorts = p.ports;
    spm.writePorts = p.ports;
    spm.latencyCycles = p.spmLatency;
    spm.banks = p.banks;
}

} // namespace

TEST(TraceReplay, PrepBuildsCleanly)
{
    const Captured &c = captured();
    ASSERT_FALSE(c.trace.empty());
    EXPECT_EQ(c.prep.error, "");
}

/**
 * The tentpole guarantee: replaying the captured trace under a
 * different FU/port/latency/bank configuration produces the exact
 * EngineStats a full simulation of that configuration produces —
 * for every kernel the fast path accepts. The full runs are also the
 * event-driven engine checked field by field against the replay, an
 * independent scheduler.
 */
TEST(TraceReplay, FastMatchesFullAcrossConfigs)
{
    const PointConfig grid[] = {
        {"default", 2, 0, 1, 1},
        {"narrow_ports", 1, 0, 1, 1},
        {"fu_limited", 2, 1, 1, 1},
        {"slow_banked_spm", 4, 2, 4, 2},
    };
    const char *const names[] = {
        smallGemm,   "bfs-queue", "fft-strided", "gemm",
        "md-grid",   "md-knn",    "nw",          "spmv-crs",
        "stencil2d", "stencil3d", "conv2d",      "relu",
        "maxpool",
    };
    for (const char *name : names) {
        SCOPED_TRACE(name);
        const Captured &c = captured(name);
        for (const PointConfig &p : grid) {
            SCOPED_TRACE(p.name);
            core::DeviceConfig dev;
            mem::ScratchpadConfig spm;
            toConfigs(p, dev, spm);
            ASSERT_EQ(drive::fastPathBlocker(c.trace, dev, false), "");

            FullRun full = runFull(name, dev, spm);
            drive::ReplayResult fast = replayPoint(dev, spm, name);
            ASSERT_TRUE(fast.ok) << fast.error;
            expectStatsEqual(fast.stats, full.stats);
            EXPECT_EQ(fast.spmReads, full.spmReads);
            EXPECT_EQ(fast.spmWrites, full.spmWrites);
        }
    }
}

/** The grid must actually exercise different schedules. */
TEST(TraceReplay, ConfigsChangeTheSchedule)
{
    core::DeviceConfig dev;
    mem::ScratchpadConfig spm;
    toConfigs({"narrow", 1, 1, 4, 1}, dev, spm);
    drive::ReplayResult narrow = replayPoint(dev, spm);
    ASSERT_TRUE(narrow.ok) << narrow.error;

    toConfigs({"wide", 4, 0, 1, 1}, dev, spm);
    drive::ReplayResult wide = replayPoint(dev, spm);
    ASSERT_TRUE(wide.ok) << wide.error;

    EXPECT_LT(wide.stats.totalCycles, narrow.stats.totalCycles);
}

/**
 * Directed fallback: every condition that makes trace reuse unsound
 * must be reported by fastPathBlocker(), and a sound configuration
 * must not be.
 */
TEST(TraceReplay, FallbackBlockers)
{
    core::DeviceConfig dev;

    core::DynTrace empty;
    EXPECT_NE(drive::fastPathBlocker(empty, dev, false), "");

    const Captured &c = captured();
    EXPECT_EQ(drive::fastPathBlocker(c.trace, dev, false), "");

    // Fault injection makes outcomes schedule-dependent.
    EXPECT_NE(drive::fastPathBlocker(c.trace, dev, true), "");

    // Block-sequential import changes the capture regime itself.
    core::DeviceConfig seq = dev;
    seq.blockSequentialImport = !c.trace.capturedBlockSequential;
    EXPECT_NE(drive::fastPathBlocker(c.trace, seq, false), "");

    // A modeled interconnect in the memory path: the replay models
    // a private scratchpad only, so fabric arbitration/credit
    // timing would be silently dropped.
    EXPECT_NE(drive::fastPathBlocker(c.trace, dev, false, true), "");
    EXPECT_EQ(drive::fastPathBlocker(c.trace, dev, false, false), "");
}

/** A trace that does not match the static CDFG is rejected, not
 * replayed wrong. */
TEST(TraceReplay, MismatchedTraceIsRejected)
{
    const Captured &c = captured();
    core::DynTrace corrupt = c.trace;
    corrupt.insts[0].staticId = 0xFFFFFFu;

    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplayPrep prep = drive::buildReplayPrep(cdfg, corrupt);
    EXPECT_NE(prep.error, "");

    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    drive::TraceReplayer replayer(cdfg, dev, corrupt, spm);
    drive::ReplayResult res = replayer.run();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error, "");
}

/** An empty trace cannot be replayed. */
TEST(TraceReplay, EmptyTraceFailsGracefully)
{
    const Captured &c = captured();
    core::DynTrace empty;
    core::DeviceConfig dev;
    core::StaticCdfg cdfg(*c.fn, dev);
    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    drive::TraceReplayer replayer(cdfg, dev, empty, spm);
    drive::ReplayResult res = replayer.run();
    EXPECT_FALSE(res.ok);
}

namespace
{

/**
 * out[0] = a / b through a long-latency divider, then arr[i] = i
 * for i < n: the loop runs ahead while the divide holds the window
 * front, so the window grows to thousands of instances.
 */
ir::Function *
buildDeepWindow(ir::IRBuilder &b, std::int64_t n)
{
    ir::Context &ctx = b.context();
    ir::Function *fn = b.createFunction("deep_window", ctx.voidType());
    ir::Argument *out =
        fn->addArgument(ctx.pointerTo(ctx.doubleType()), "out");
    ir::Argument *arr = fn->addArgument(ctx.pointerTo(ctx.i64()), "arr");
    ir::Argument *x = fn->addArgument(ctx.doubleType(), "x");
    ir::Argument *y = fn->addArgument(ctx.doubleType(), "y");

    ir::BasicBlock *entry = b.createBlock("entry");
    ir::BasicBlock *loop = b.createBlock("loop");
    ir::BasicBlock *exit = b.createBlock("exit");

    b.setInsertPoint(entry);
    ir::Value *q = b.fdiv(x, y, "q");
    b.br(loop);

    b.setInsertPoint(loop);
    ir::PhiInst *i = b.phi(ctx.i64(), "i");
    ir::Value *p = b.gep(ctx.i64(), arr, i, "p");
    b.store(i, p);
    ir::Value *inext = b.add(i, b.constI64(1), "i.next");
    ir::Value *more =
        b.icmp(ir::Predicate::SLT, inext, b.constI64(n), "more");
    b.condBr(more, loop, exit);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);

    b.setInsertPoint(exit);
    b.store(q, out);
    b.ret();
    return fn;
}

} // namespace

TEST(RuntimeEngine, DeepWindowMatchesReplay)
{
    constexpr std::int64_t n = 6000;
    constexpr std::uint64_t outAddr = test::spmBase;
    constexpr std::uint64_t arrAddr = test::spmBase + 64;
    core::DeviceConfig dev;
    dev.profile.fu(hw::FuType::FpDividerDouble).latencyCycles = 30000;

    ir::Module mod("deep_window");
    ir::IRBuilder b(mod);
    ir::Function *fn = buildDeepWindow(b, n);
    const std::vector<ir::RuntimeValue> args = {
        ir::RuntimeValue::fromPointer(outAddr),
        ir::RuntimeValue::fromPointer(arrAddr),
        ir::RuntimeValue::fromDouble(6.0),
        ir::RuntimeValue::fromDouble(3.0)};

    core::DynTrace trace;
    test::AccelSystem sys(*fn, dev);
    sys.bench.cu.enableTraceCapture(&trace);
    sys.run(args);
    mem::ScratchpadBackdoor backdoor(sys.bench.spm);
    double q = 0.0;
    backdoor.readBytes(outAddr, sizeof(q), &q);
    EXPECT_EQ(q, 2.0);
    for (std::int64_t k : {std::int64_t{0}, n / 2, n - 1}) {
        std::int64_t v = -1;
        backdoor.readBytes(arrAddr + 8 * static_cast<std::uint64_t>(k),
                           sizeof(v), &v);
        EXPECT_EQ(v, k);
    }

    // Every instance stays in the window until the divide commits,
    // so the window (and the slab's chunk table) grew well past the
    // first table's reach.
    const core::EngineStats full = sys.bench.cu.stats();
    EXPECT_GT(full.totalCycles, 30000u);
    EXPECT_GT(full.arenaMisses,
              4 * core::RuntimeEngine::initialWindowCapacity(dev));

    core::StaticCdfg cdfg(*fn, dev);
    const drive::ReplayPrep prep = drive::buildReplayPrep(cdfg, trace);
    const mem::ScratchpadConfig spm_cfg = test::AccelSystem::defaultSpm();
    drive::ReplaySpmConfig spm;
    spm.rangeStart = test::spmBase;
    spm.latencyCycles = spm_cfg.latencyCycles;
    spm.readPorts = spm_cfg.readPorts;
    spm.writePorts = spm_cfg.writePorts;
    spm.banks = spm_cfg.banks;
    spm.wordBytes = spm_cfg.wordBytes;
    drive::TraceReplayer replayer(cdfg, dev, trace, spm, &prep);
    const drive::ReplayResult fast = replayer.run();
    ASSERT_TRUE(fast.ok) << fast.error;
    expectStatsEqual(fast.stats, full);
}
