/**
 * @file
 * Tests for the library run pipeline: the configuration identity
 * derived from the config structs (every field moves the hash;
 * kernel variants hash apart and replay their own traces) and
 * runPoint()'s single record emitter for full and fast runs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "drive/run_point.hh"
#include "drive/sweep_runner.hh"
#include "kernels/machsuite.hh"
#include "obs/result_store.hh"

using namespace salam;
using namespace salam::drive;

namespace
{

using FieldChange = std::pair<std::string, std::function<void(PointConfig &)>>;

/** One named change to every field a point is configured by. */
std::vector<FieldChange>
everyFieldChange()
{
    std::vector<FieldChange> changes = {
        {"dev.clockPeriod", [](PointConfig &p) { p.dev.clockPeriod++; }},
        {"dev.reservationQueueSize",
         [](PointConfig &p) { p.dev.reservationQueueSize++; }},
        {"dev.blockSequentialImport",
         [](PointConfig &p) { p.dev.blockSequentialImport ^= true; }},
        {"dev.readQueueSize", [](PointConfig &p) { p.dev.readQueueSize++; }},
        {"dev.writeQueueSize",
         [](PointConfig &p) { p.dev.writeQueueSize++; }},
        {"dev.readPortsPerCycle",
         [](PointConfig &p) { p.dev.readPortsPerCycle++; }},
        {"dev.writePortsPerCycle",
         [](PointConfig &p) { p.dev.writePortsPerCycle++; }},
        {"registers.leakage",
         [](PointConfig &p) {
             p.dev.profile.registers().leakagePowerMwPerBit += 0.5;
         }},
        {"registers.read",
         [](PointConfig &p) {
             p.dev.profile.registers().readEnergyPjPerBit += 0.5;
         }},
        {"registers.write",
         [](PointConfig &p) {
             p.dev.profile.registers().writeEnergyPjPerBit += 0.5;
         }},
        {"registers.area",
         [](PointConfig &p) {
             p.dev.profile.registers().areaUm2PerBit += 0.5;
         }},
        {"mem.spmReadPorts", [](PointConfig &p) { p.mem.spmReadPorts++; }},
        {"mem.spmWritePorts",
         [](PointConfig &p) { p.mem.spmWritePorts++; }},
        {"mem.spmLatency", [](PointConfig &p) { p.mem.spmLatency++; }},
        {"mem.spmBanks", [](PointConfig &p) { p.mem.spmBanks++; }},
        {"mem.useInterconnect",
         [](PointConfig &p) { p.mem.useInterconnect ^= true; }},
        {"ic.kind",
         [](PointConfig &p) {
             p.mem.interconnect.kind = mem::InterconnectKind::AxiBus;
         }},
        {"ic.forwardLatency",
         [](PointConfig &p) { p.mem.interconnect.forwardLatency++; }},
        {"ic.responseLatency",
         [](PointConfig &p) { p.mem.interconnect.responseLatency++; }},
        {"ic.requestsPerCycle",
         [](PointConfig &p) { p.mem.interconnect.requestsPerCycle++; }},
        {"ic.busWidthBytes",
         [](PointConfig &p) { p.mem.interconnect.busWidthBytes++; }},
        {"ic.maxOutstandingPerRequester",
         [](PointConfig &p) {
             p.mem.interconnect.maxOutstandingPerRequester = 3;
         }},
    };
    for (std::size_t t = 0; t < hw::numFuTypes; ++t) {
        const auto type = static_cast<hw::FuType>(t);
        const std::string fu = hw::fuTypeName(type);
        auto change = [&](const char *what, auto edit) {
            changes.emplace_back(fu + "." + what,
                                 [type, edit](PointConfig &p) {
                                     edit(p.dev, p.dev.profile.fu(type));
                                 });
        };
        change("limit", [type](core::DeviceConfig &dev, hw::FuParams &) {
            dev.setFuLimit(type, dev.fuLimit(type) + 1);
        });
        change("latency", [](core::DeviceConfig &, hw::FuParams &fp) {
            fp.latencyCycles++;
        });
        change("ii", [](core::DeviceConfig &, hw::FuParams &fp) {
            fp.initiationInterval++;
        });
        change("leakage", [](core::DeviceConfig &, hw::FuParams &fp) {
            fp.leakagePowerMw += 0.5;
        });
        change("energy", [](core::DeviceConfig &, hw::FuParams &fp) {
            fp.dynamicEnergyPj += 0.5;
        });
        change("area", [](core::DeviceConfig &, hw::FuParams &fp) {
            fp.areaUm2 += 0.5;
        });
    }
    return changes;
}

} // namespace

TEST(ConfigIdentity, KernelVariantsHashApart)
{
    PointConfig point;
    auto big = kernels::makeGemm();
    auto small = kernels::makeGemm(16, 8);
    EXPECT_EQ(big->name(), small->name());
    EXPECT_EQ(big->key(), "gemm/n32u8");
    EXPECT_EQ(small->key(), "gemm/n16u8");
    EXPECT_NE(configHash(*big, point), configHash(*small, point));
    EXPECT_EQ(configHash(*big, point),
              configHash(*kernels::makeGemm(32, 8), point));
}

TEST(ConfigIdentity, MachSuiteKeysAreDistinct)
{
    std::set<std::string> keys;
    for (const auto &kernel : kernels::machsuiteKernels())
        EXPECT_TRUE(keys.insert(kernel->key()).second) << kernel->key();
    EXPECT_TRUE(keys.insert(kernels::makeGemm(32, 32)->key()).second);
    EXPECT_TRUE(
        keys.insert(kernels::makeSpmv(64, 8, true)->key()).second);
}

TEST(ConfigIdentity, EveryFieldMovesTheHash)
{
    auto kernel = kernels::makeGemm(8, 2);
    const PointConfig base;
    std::set<std::uint64_t> hashes = {configHash(*kernel, base)};
    const std::vector<FieldChange> changes = everyFieldChange();
    EXPECT_EQ(changes.size(), 22 + 6 * hw::numFuTypes);
    for (const auto &[name, change] : changes) {
        PointConfig point = base;
        change(point);
        EXPECT_TRUE(hashes.insert(configHash(*kernel, point)).second)
            << "changing " << name
            << " gave the base hash or another change's hash";
    }
}

TEST(ConfigIdentity, FastModeCachesOneTracePerVariant)
{
    // Two variants of one kernel name: a trace cache keyed on name()
    // would replay the first variant's trace for the second.
    Artifacts fast;
    fast.simMode = "fast";
    for (unsigned unroll : {1u, 4u}) {
        auto kernel = kernels::makeGemm(8, unroll);
        const RunResult replayed = runPoint(*kernel, {}, fast);
        EXPECT_EQ(replayed.simMode, "fast");
        EXPECT_EQ(replayed.cycles, runPoint(*kernel).cycles) << unroll;
        EXPECT_EQ(replayed.stats.dynamicInstructions,
                  runPoint(*kernel).stats.dynamicInstructions);
    }
}

TEST(RunPoint, FullAndFastRecordOneIdentity)
{
    auto kernel = kernels::makeGemm(8, 2);
    PointConfig point;
    point.dev.readPortsPerCycle = 4;
    point.mem.spmReadPorts = 4;

    Artifacts art;
    art.reportOut = ::testing::TempDir() + "ut_run_point.jsonl";
    std::remove(art.reportOut.c_str());

    RunResult full = runPoint(*kernel, point, art);
    art.simMode = "fast";
    RunResult fast = runPoint(*kernel, point, art);
    EXPECT_EQ(full.simMode, "full");
    EXPECT_EQ(fast.simMode, "fast");
    EXPECT_EQ(full.cycles, fast.cycles);
    EXPECT_EQ(full.stats.stallCycles, fast.stats.stallCycles);

    // The capture run behind the fast path records nothing: exactly
    // one line per runPoint() call.
    obs::StoreReader reader = obs::StoreReader::load(art.reportOut);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_EQ(reader.records().size(), 2u);
    const obs::LoadedRecord &a = reader.records()[0];
    const obs::LoadedRecord &b = reader.records()[1];
    const std::uint64_t hash = configHash(*kernel, point);
    EXPECT_EQ(a.configHash, hash);
    EXPECT_EQ(b.configHash, hash);
    for (const char *field :
         {"cycles", "spm_reads", "spm_writes", "stall_cycles",
          "dynamic_insts", "clock_period_ticks"})
        EXPECT_EQ(a.number(field, -1), b.number(field, -2)) << field;
    EXPECT_TRUE(a.record.has("stats"));
    EXPECT_FALSE(a.record.has("fast_path"));
    EXPECT_EQ(b.number("fast_path"), 1.0);
    EXPECT_TRUE(b.record.has("capture_seconds"));
    std::remove(art.reportOut.c_str());
}

/**
 * Run @p kernel as the one point of a telemetry sweep that asks point
 * 0 for its simulated-time trace; return how many trace records the
 * sweep kept.
 */
std::size_t
sweepSimTraceRecords(const kernels::Kernel &kernel,
                     const Artifacts &art, std::string &mode)
{
    SweepRunner::Options opts;
    opts.hostTelemetry = true;
    opts.captureSimTracePoint = 0;
    SweepRunner runner(opts);
    auto results = runner.run(1, [&](std::size_t) {
        mode = runPoint(kernel, {}, art).simMode;
        return std::string();
    });
    EXPECT_TRUE(results[0].ok) << results[0].error;
    return runner.hostSummary().merged.capturedSimTrace().size();
}

TEST(RunPoint, TraceCaptureIsNobodysSimTrace)
{
    // A variant no other test captures, so this point's worker runs
    // the trace capture itself.
    auto kernel = kernels::makeGemm(8, 8);
    Artifacts art;
    std::string mode;
    EXPECT_GT(sweepSimTraceRecords(*kernel, art, mode), 0u);
    EXPECT_EQ(mode, "full");

    // A replay simulates nothing to trace, and the capture run's
    // trace (of the capture configuration) must not stand in for it.
    art.simMode = "fast";
    EXPECT_EQ(sweepSimTraceRecords(*kernel, art, mode), 0u);
    EXPECT_EQ(mode, "fast");
}

TEST(RunPoint, FastFallsBackToWriteRequestedFiles)
{
    auto kernel = kernels::makeGemm(8, 2);
    Artifacts art;
    art.simMode = "auto";
    art.statsOut = ::testing::TempDir() + "ut_run_point_stats.json";
    std::remove(art.statsOut.c_str());
    EXPECT_EQ(runPoint(*kernel, {}, art).simMode, "full-fallback");
    EXPECT_TRUE(std::ifstream(art.statsOut).good());
    std::remove(art.statsOut.c_str());
}
