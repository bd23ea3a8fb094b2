/**
 * @file
 * Schedule pin: every EngineStats field, for every makeKernel()
 * kernel and for the seeded random memory kernels, under a grid of
 * scheduler configurations, must equal the values recorded in
 * schedule_pin.golden. A digest of the dynamic-CDFG profile (every
 * node's ready/issue/commit cycles, link, wait and execution causes)
 * and of the critical-path JSON pins the profiler's attribution.
 *
 * The golden file is the reference schedule: any change to a
 * scheduling decision, however small, shows up here as a named
 * kernel, configuration and field. Re-record it only for a change
 * that is meant to move simulated results, never for a host-side
 * optimisation of the engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel_fixture.hh"
#include "drive/run_point.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"
#include "obs/critical_path.hh"
#include "random_kernel.hh"

using namespace salam;

namespace
{

/** One scheduler configuration of the pin grid. */
struct GridPoint
{
    const char *name;
    /** Apply to @p point; @p largest_block is the kernel's largest
     *  basic block in instructions. */
    void (*apply)(drive::PointConfig &point, unsigned largest_block);
};

const GridPoint grid[] = {
    {"default", [](drive::PointConfig &, unsigned) {}},
    {"fig10",
     [](drive::PointConfig &p, unsigned) {
         p.dev.blockSequentialImport = true;
         p.dev.readPortsPerCycle = 2;
         p.dev.writePortsPerCycle = 2;
         p.mem.spmReadPorts = 2;
         p.mem.spmWritePorts = 2;
     }},
    {"narrow",
     [](drive::PointConfig &p, unsigned) {
         p.dev.readPortsPerCycle = 1;
         p.dev.writePortsPerCycle = 1;
         p.dev.readQueueSize = 2;
         p.dev.writeQueueSize = 2;
     }},
    {"fp1",
     [](drive::PointConfig &p, unsigned) {
         for (hw::FuType t :
              {hw::FuType::FpAddSub, hw::FuType::FpMultiplier,
               hw::FuType::FpDivider, hw::FuType::FpAddSubDouble,
               hw::FuType::FpMultiplierDouble,
               hw::FuType::FpDividerDouble, hw::FuType::FpComparator,
               hw::FuType::FpSpecial}) {
             p.dev.setFuLimit(t, 1);
         }
     }},
    {"int_pool",
     [](drive::PointConfig &p, unsigned) {
         p.dev.setFuLimit(hw::FuType::IntAdder, 2);
         p.dev.setFuLimit(hw::FuType::IntMultiplier, 1);
         p.dev.setFuLimit(hw::FuType::Bitwise, 1);
     }},
    {"rq_tight",
     [](drive::PointConfig &p, unsigned largest_block) {
         p.dev.reservationQueueSize = largest_block + 1;
     }},
};

unsigned
largestBlock(const ir::Function &fn)
{
    std::size_t largest = 0;
    for (const auto &block : fn)
        largest = std::max(largest, block->size());
    return static_cast<unsigned>(largest);
}

/** One golden line: "<workload> <config> field=value ...". */
std::string
formatStats(const std::string &workload, const char *config,
            std::uint64_t cycles, const core::EngineStats &s)
{
    std::ostringstream os;
    os << workload << ' ' << config << " cycles=" << cycles;
    auto u = [&os](const char *name, std::uint64_t v) {
        os << ' ' << name << '=' << v;
    };
    auto d = [&os](const char *name, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", v);
        os << ' ' << name << '=' << buf;
    };
    u("totalCycles", s.totalCycles);
    u("newExecCycles", s.newExecCycles);
    u("stallCycles", s.stallCycles);
    u("stallLoadOnly", s.stallLoadOnly);
    u("stallStoreOnly", s.stallStoreOnly);
    u("stallComputeOnly", s.stallComputeOnly);
    u("stallLoadCompute", s.stallLoadCompute);
    u("stallStoreCompute", s.stallStoreCompute);
    u("stallLoadStore", s.stallLoadStore);
    u("stallLoadStoreCompute", s.stallLoadStoreCompute);
    u("stallEmpty", s.stallEmpty);
    u("loadsIssued", s.loadsIssued);
    u("storesIssued", s.storesIssued);
    u("fpOpsIssued", s.fpOpsIssued);
    u("intOpsIssued", s.intOpsIssued);
    u("otherOpsIssued", s.otherOpsIssued);
    u("dynamicInstructions", s.dynamicInstructions);
    u("committedInstructions", s.committedInstructions);
    u("arenaHits", s.arenaHits);
    u("arenaMisses", s.arenaMisses);
    u("cyclesWithLoadIssue", s.cyclesWithLoadIssue);
    u("cyclesWithStoreIssue", s.cyclesWithStoreIssue);
    u("cyclesWithFpIssue", s.cyclesWithFpIssue);
    u("cyclesWithLoadAndStoreIssue", s.cyclesWithLoadAndStoreIssue);
    u("cyclesWithLoadAndFpIssue", s.cyclesWithLoadAndFpIssue);
    for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
        std::string name = "fuBusy." +
            std::string(hw::fuTypeName(static_cast<hw::FuType>(t)));
        u(name.c_str(), s.fuBusyCycleSum[t]);
    }
    d("fuEnergyPj", s.fuEnergyPj);
    d("registerReadEnergyPj", s.registerReadEnergyPj);
    d("registerWriteEnergyPj", s.registerWriteEnergyPj);
    return os.str();
}

/** FNV-1a over raw bytes. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    }

    void add(std::uint64_t v) { add(&v, sizeof(v)); }
};

std::vector<std::string>
makeKernelLines()
{
    static const char *const names[] = {
        "bfs-queue", "fft-strided", "gemm",     "md-grid",
        "md-knn",    "nw",          "spmv-crs", "stencil2d",
        "stencil3d", "conv2d",      "relu",     "maxpool",
    };
    std::vector<std::string> lines;
    for (const char *name : names) {
        auto kernel = kernels::makeKernel(name);
        EXPECT_NE(kernel, nullptr) << name;
        if (kernel == nullptr)
            continue;
        ir::Module mod("pin");
        ir::IRBuilder b(mod);
        unsigned largest = largestBlock(*kernel->buildOptimized(b));
        for (const GridPoint &g : grid) {
            drive::PointConfig point;
            g.apply(point, largest);
            drive::RunResult r = drive::runPoint(*kernel, point);
            lines.push_back(formatStats(name, g.name, r.cycles,
                                        r.stats));
        }
    }
    return lines;
}

std::vector<std::string>
randomKernelLines()
{
    std::vector<std::string> lines;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        test::Rng build_rng(seed);
        ir::Module mod("m");
        ir::IRBuilder b(mod);
        ir::Function *fn = test::randomMemoryKernel(b, build_rng);
        unsigned largest = largestBlock(*fn);
        for (const GridPoint &g : grid) {
            drive::PointConfig point;
            g.apply(point, largest);
            mem::ScratchpadConfig spm = test::AccelSystem::defaultSpm();
            spm.readPorts = point.mem.spmReadPorts;
            spm.writePorts = point.mem.spmWritePorts;
            test::AccelSystem sys(*fn, point.dev, spm);
            mem::ScratchpadBackdoor backdoor(sys.bench.spm);
            test::Rng data_rng(seed ^ 0xDA7A);
            test::seedData(backdoor, test::spmBase, data_rng);
            std::uint64_t cycles = sys.run(
                {ir::RuntimeValue::fromPointer(test::spmBase)});
            lines.push_back(formatStats(
                "random" + std::to_string(seed), g.name, cycles,
                sys.bench.cu.stats()));
        }
    }
    return lines;
}

/**
 * Profiled GEMMs under every grid point, on the memory-starved
 * scratchpad the profiler tests use (one read port, 22 cycles):
 * ProfiledGemm's unoptimized 4x4 GEMM, and an unrolled 8x8 one whose
 * parallel multiplies contend for the limited FU pools.
 */
std::vector<std::string>
profileLines()
{
    struct Variant
    {
        const char *name;
        std::unique_ptr<kernels::Kernel> kernel;
        bool optimized;
    };
    Variant variants[] = {
        {"profile-gemm", kernels::makeGemm(4, 1), false},
        {"profile-gemm8u4", kernels::makeGemm(8, 4), true},
    };
    std::vector<std::string> lines;
    for (const Variant &v : variants) {
        for (const GridPoint &g : grid) {
            Simulation sim;
            sim.enableProfiling();
            ir::Module mod("m");
            ir::IRBuilder builder(mod);
            ir::Function *fn = v.optimized
                ? v.kernel->buildOptimized(builder)
                : v.kernel->build(builder);

            drive::PointConfig point;
            point.mem.spmLatency = 22;
            point.mem.spmReadPorts = 1;
            point.mem.spmWritePorts = 1;
            g.apply(point, largestBlock(*fn));
            drive::Testbench tb(
                sim, *fn, point.dev,
                drive::scratchpadFor(*v.kernel, point.mem));
            mem::ScratchpadBackdoor backdoor(tb.spm);
            v.kernel->seed(backdoor, drive::spmBase);
            tb.cu.start(v.kernel->args(drive::spmBase));
            sim.run();
            sim.finalizeAll();
            EXPECT_TRUE(tb.cu.finished()) << v.name << ' ' << g.name;

            const obs::Profiler &prof =
                *sim.profilers().front().second;
            Digest nodes;
            for (const obs::ProfNode &n : prof.nodes()) {
                nodes.add(n.seq);
                nodes.add(n.staticId);
                nodes.add(n.readyCycle);
                nodes.add(n.issueCycle);
                nodes.add(n.commitCycle);
                nodes.add(n.parentSeq);
                nodes.add(static_cast<std::uint64_t>(n.linkCause));
                nodes.add(static_cast<std::uint64_t>(n.waitCause));
                nodes.add(static_cast<std::uint64_t>(n.execCause));
            }
            std::ostringstream json;
            obs::analyzeCriticalPath(prof).writeJson(json);
            Digest path;
            path.add(json.str().data(), json.str().size());

            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "%s %s cycles=%" PRIu64
                          " nodes=%zu node_digest=%016" PRIx64
                          " path_digest=%016" PRIx64,
                          v.name, g.name, tb.cu.cycleCount(),
                          prof.size(), nodes.h, path.h);
            lines.emplace_back(buf);
        }
    }
    return lines;
}

/** golden line key ("<workload> <config>") -> line. */
std::map<std::string, std::string>
readGolden()
{
    std::map<std::string, std::string> golden;
    std::ifstream in(SALAM_SCHEDULE_PIN_GOLDEN);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t sp = line.find(' ', line.find(' ') + 1);
        golden[line.substr(0, sp)] = line;
    }
    return golden;
}

/** Compare @p actual against the golden file, field by field. */
void
expectPinned(const std::vector<std::string> &actual)
{
    static const std::map<std::string, std::string> golden =
        readGolden();
    if (golden.empty()) {
        std::ostringstream all;
        for (const std::string &line : actual)
            all << line << '\n';
        FAIL() << "missing golden file " << SALAM_SCHEDULE_PIN_GOLDEN
               << "; actual lines:\n" << all.str();
    }
    for (const std::string &line : actual) {
        std::size_t sp = line.find(' ', line.find(' ') + 1);
        std::string key = line.substr(0, sp);
        auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden line for '" << key
                          << "'; actual:\n" << line;
            continue;
        }
        if (it->second == line)
            continue;
        // Name the fields that moved.
        std::istringstream want(it->second), got(line);
        std::string w, g;
        std::ostringstream diff;
        while (want >> w && got >> g) {
            if (w != g)
                diff << "  want " << w << "  got " << g << '\n';
        }
        ADD_FAILURE() << key << " moved:\n" << diff.str()
                      << "actual line:\n" << line;
    }
}

} // namespace

TEST(SchedulePin, MakeKernelGrid)
{
    expectPinned(makeKernelLines());
}

TEST(SchedulePin, RandomMemoryKernelGrid)
{
    expectPinned(randomKernelLines());
}

TEST(SchedulePin, ProfiledGemmGrid)
{
    expectPinned(profileLines());
}
