/**
 * @file
 * The benchmark's workloads and their points.
 *
 * Every point elaborates a fresh system, so scratchpads, buffers and
 * queues start empty, as in a user's run. The wiring mirrors the
 * paper-figure experiments (Table IV, Fig. 10, Fig. 13, Fig. 16)
 * through the library's public headers only.
 */

#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hh"
#include "core/compute_unit.hh"
#include "core/power_report.hh"
#include "core/static_cdfg.hh"
#include "drive/trace_replay.hh"
#include "hls/hls_scheduler.hh"
#include "kernels/machsuite.hh"
#include "mem/backdoor.hh"
#include "mem/interconnect.hh"
#include "mem/scratchpad.hh"
#include "obs/host_telemetry.hh"
#include "obs/json_reader.hh"
#include "obs/run_report.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sys/system.hh"

using namespace salam;

namespace perfbench
{

namespace
{

constexpr std::uint64_t spmBase = 0x10000;

std::uint64_t
spmBytes(const kernels::Kernel &kernel)
{
    return ((kernel.footprintBytes() + 0xFFF) & ~0xFFFull) + 0x1000;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::string tail(suffix);
    return s.size() >= tail.size() &&
        s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/**
 * Add the scratchpad, crossbar, bus and DMA statistics of @p sim to
 * @p fields, and their layer counts (plus the reservation-queue depth
 * samples) to @p c.
 */
void
collectStats(const Simulation &sim, Fields &fields, Counters &c)
{
    const StatRegistry &reg = sim.stats();
    obs::JsonValue all = obs::parseJson(reg.dumpJsonString());
    for (const auto &[name, entry] : all.object) {
        const StatBase *stat = reg.find(name);
        if (stat == nullptr)
            continue;
        if (endsWith(name, ".engine.reservation_occupancy")) {
            if (auto *h = dynamic_cast<const Histogram *>(stat)) {
                c.rqDepthSum +=
                    h->mean() * static_cast<double>(h->count());
                c.rqSamples += h->count();
            }
            continue;
        }
        const bool fabric =
            name.find(".xbar.") != std::string::npos ||
            name.find(".bus.") != std::string::npos;
        if (!fabric && name.find(".spm.") == std::string::npos &&
            name.find(".dma.") == std::string::npos)
            continue;
        const double value = stat->value();
        fields.addReal("stat." + name, value);
        const auto count = static_cast<std::uint64_t>(value);
        if (endsWith(name, ".spm.reads") || endsWith(name, ".spm.writes"))
            c.spmAccesses += count;
        else if (fabric && endsWith(name, ".forwarded"))
            c.fabricForwarded += count;
        else if (fabric && endsWith(name, "_stalls"))
            c.fabricStalls += count;
        else if (endsWith(name, ".dma.bytes_moved"))
            c.dmaBytes += count;
    }
}

/** Engine, memory and event-loop self time of the current point. */
void
collectHostTime(Counters &c)
{
    const obs::HostTelemetry *tel =
        SimContext::current().hostTelemetry();
    if (tel == nullptr)
        return;
    c.engineNs = tel->phase(obs::HostPhase::EngineSchedule).selfNanos;
    c.memoryNs = tel->phase(obs::HostPhase::MemoryModel).selfNanos;
    c.eventLoopNs = tel->phase(obs::HostPhase::EventLoop).selfNanos;
}

void
addEngineCounters(Counters &c, const core::EngineStats &s)
{
    c.dynInsts += s.dynamicInstructions;
    c.cycles += s.totalCycles;
    c.arenaHits += s.arenaHits;
    c.arenaMisses += s.arenaMisses;
}

/** A single accelerator with its private scratchpad. */
struct AccelConfig
{
    core::DeviceConfig dev;
    unsigned spmPorts = 2;
    /** Route the data port through @ref interconnect. */
    bool fabric = false;
    mem::InterconnectConfig interconnect;
};

/**
 * Simulate @p kernel on one accelerator, golden-check it and compare
 * its statistics with @p ref. Records the dynamic trace into
 * @p capture when non-null.
 */
PointResult
simulateAccel(const kernels::Kernel &kernel, const AccelConfig &cfg,
              const std::string &key, Tracer &tracer, long id,
              const Reference *ref, core::DynTrace *capture = nullptr)
{
    PointResult r;
    const Clock::time_point t0 = Clock::now();
    ir::Module mod("perfbench");
    ir::IRBuilder builder(mod);
    ir::Function *fn = nullptr;
    {
        auto span = tracer.span("opt.build", id);
        fn = kernel.buildOptimized(builder);
    }

    Simulation sim;
    mem::Scratchpad *spm = nullptr;
    core::ComputeUnit *cu = nullptr;
    std::optional<mem::ScratchpadBackdoor> backdoor;
    {
        auto span = tracer.span("core.elab", id);
        mem::ScratchpadConfig scfg;
        scfg.range = mem::AddrRange{spmBase, spmBase + spmBytes(kernel)};
        scfg.readPorts = cfg.spmPorts;
        scfg.writePorts = cfg.spmPorts;
        spm = &sim.create<mem::Scratchpad>("spm", cfg.dev.clockPeriod,
                                           scfg);
        core::CommInterfaceConfig ccfg;
        ccfg.mmrRange = mem::AddrRange{0x2000, 0x2000 + 256};
        ccfg.dataPorts.push_back({"spm", {scfg.range}});
        auto &comm = sim.create<core::CommInterface>(
            "comm", cfg.dev.clockPeriod, ccfg);
        if (cfg.fabric) {
            mem::Interconnect &fabric = mem::makeInterconnect(
                sim, "fabric", cfg.dev.clockPeriod, cfg.interconnect);
            fabric.connectDevice(spm->port(0), scfg.range);
            mem::bindPorts(comm.dataPort(0),
                           fabric.addRequester("acc.data"));
        } else {
            mem::bindPorts(comm.dataPort(0), spm->port(0));
        }
        cu = &sim.create<core::ComputeUnit>("acc", *fn, cfg.dev, comm);
        if (capture != nullptr)
            cu->enableTraceCapture(capture);
        backdoor.emplace(*spm);
        kernel.seed(*backdoor, spmBase);
    }
    {
        auto span = tracer.span("core.sim", id);
        cu->start(kernel.args(spmBase));
        sim.run();
    }
    sim.finalizeAll();
    {
        auto span = tracer.span("kernels.check", id);
        if (!cu->finished()) {
            r.failure = key + ": event queue drained with the kernel "
                              "unfinished";
        } else {
            std::string bad = kernel.check(*backdoor, spmBase);
            if (!bad.empty())
                r.failure = key + ": golden check: " + bad;
        }
        r.fields.add("cycles", cu->cycleCount());
        r.fields.addEngine("engine.", cu->stats());
        r.fields.addPower(core::buildReport(*cu, spm).power);
        r.fields.add("spm.reads", spm->readCount());
        r.fields.add("spm.writes", spm->writeCount());
        collectStats(sim, r.fields, r.counters);
        if (r.failure.empty() && ref != nullptr)
            r.failure = ref->compare(key, r.fields, false);
    }
    r.seconds = secondsSince(t0);

    Counters &c = r.counters;
    c.fullSimPoints = 1;
    addEngineCounters(c, cu->stats());
    c.fullSimInsts = cu->stats().dynamicInstructions;
    c.events = sim.eventQueue().numServiced();
    c.heapDepthMax = sim.eventQueue().maxHeapDepth();
    collectHostTime(c);
    return r;
}

class AccelPoint : public Point
{
  public:
    AccelPoint(std::string key,
               std::shared_ptr<const kernels::Kernel> kernel,
               AccelConfig cfg)
        : Point(std::move(key)), kernel(std::move(kernel)),
          cfg(std::move(cfg))
    {}

    PointResult
    run(Tracer &tracer, long id, const Reference *ref) const override
    {
        return simulateAccel(*kernel, cfg, key(), tracer, id, ref);
    }

  private:
    std::shared_ptr<const kernels::Kernel> kernel;
    AccelConfig cfg;
};

// ---- Fig. 16: the CNN layer on a full SALAM system -----------------

constexpr unsigned imgW = 32, imgH = 32;
constexpr unsigned convW = imgW - 2, convH = imgH - 2;
constexpr unsigned poolW = convW / 2, poolH = convH / 2;
constexpr std::uint64_t imageBytes = 4ull * imgW * imgH;
constexpr std::uint64_t weightBytes = 4ull * 9;
constexpr std::uint64_t convOutBytes = 4ull * convW * convH;
constexpr std::uint64_t poolOutBytes = 4ull * poolW * poolH;

/** Input image (plus 3x3 weights) and the host-side golden output. */
struct CnnData
{
    std::vector<float> image;
    std::vector<float> expected;
};

std::shared_ptr<const CnnData>
makeCnnData()
{
    auto data = std::make_shared<CnnData>();
    kernels::Lcg rng(2020);
    data->image.resize(imgW * imgH + 9);
    for (float &v : data->image)
        v = static_cast<float>(rng.nextDouble()) - 0.5f;

    const std::vector<float> &image = data->image;
    const float *weights = image.data() + imgW * imgH;
    std::vector<float> conv(convW * convH);
    for (unsigned r = 0; r < convH; ++r) {
        for (unsigned c = 0; c < convW; ++c) {
            float acc = 0.0f;
            for (unsigned k1 = 0; k1 < 3; ++k1)
                for (unsigned k2 = 0; k2 < 3; ++k2)
                    acc += weights[k1 * 3 + k2] *
                        image[(r + k1) * imgW + c + k2];
            conv[r * convW + c] = std::max(acc, 0.0f);
        }
    }
    data->expected.resize(poolW * poolH);
    for (unsigned r = 0; r < poolH; ++r) {
        for (unsigned c = 0; c < poolW; ++c) {
            data->expected[r * poolW + c] = std::max(
                {conv[(2 * r) * convW + 2 * c],
                 conv[(2 * r) * convW + 2 * c + 1],
                 conv[(2 * r + 1) * convW + 2 * c],
                 conv[(2 * r + 1) * convW + 2 * c + 1]});
        }
    }
    return data;
}

/** The three producer-consumer organizations of Fig. 16. */
enum class Cnn
{
    Private, ///< private SPMs, DMA copies, host-sequenced
    Shared,  ///< one shared SPM, host-sequenced
    Stream,  ///< stream-buffer pipeline, self-synchronized
};

class CnnPoint : public Point
{
  public:
    CnnPoint(std::string key, Cnn scenario,
             std::shared_ptr<const CnnData> data)
        : Point(std::move(key)), scenario(scenario),
          data(std::move(data))
    {}

    PointResult run(Tracer &tracer, long id,
                    const Reference *ref) const override;

  private:
    /** Wire the cluster and queue the host program. */
    void elaborate(sys::SalamSystem &system, const ir::Function &conv_fn,
                   const ir::Function &relu_fn,
                   const ir::Function &pool_fn,
                   std::uint64_t dram_in, std::uint64_t dram_out) const;

    Cnn scenario;
    std::shared_ptr<const CnnData> data;
};

mem::ScratchpadConfig
cnnSpmProto()
{
    mem::ScratchpadConfig proto;
    proto.readPorts = 4;
    proto.writePorts = 4;
    proto.numPorts = 2;
    return proto;
}

void
CnnPoint::elaborate(sys::SalamSystem &system,
                    const ir::Function &conv_fn,
                    const ir::Function &relu_fn,
                    const ir::Function &pool_fn, std::uint64_t dram_in,
                    std::uint64_t dram_out) const
{
    using sys::HostOp;
    auto &cluster = system.addCluster("c0", periodFromMhz(100), 0, {});
    // The cluster's data mover: its MMR base and its interrupt line.
    auto addDma = [&system, &cluster] {
        core::DmaConfig proto;
        proto.burstBytes = 16;
        proto.maxOutstanding = 2;
        core::Dma &dma = cluster.addDma("dma", proto);
        unsigned irq = system.allocateIrq();
        dma.setIrqCallback(system.gic().lineCallback(irq));
        return std::make_pair(dma.config().mmrRange.start, irq);
    };
    sys::DriverCpu &host = system.host();
    host.push(HostOp::mark("begin"));

    if (scenario == Cnn::Private) {
        auto &conv_spm = cluster.addSpm("conv_spm", 16 * 1024,
                                        cnnSpmProto());
        auto &relu_spm = cluster.addSpm("relu_spm", 16 * 1024,
                                        cnnSpmProto());
        auto &pool_spm = cluster.addSpm("pool_spm", 16 * 1024,
                                        cnnSpmProto());
        for (mem::Scratchpad *spm : {&conv_spm, &relu_spm, &pool_spm})
            cluster.localXbar().connectDevice(spm->port(1),
                                              spm->config().range);
        auto [mmr, dma_irq] = addDma();

        auto &conv = cluster.addAccelerator(
            "conv", conv_fn, {},
            {{"spm", {conv_spm.config().range}, false}});
        mem::bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
        auto &relu = cluster.addAccelerator(
            "relu", relu_fn, {},
            {{"spm", {relu_spm.config().range}, false}});
        mem::bindPorts(relu.comm->dataPort(0), relu_spm.port(0));
        auto &pool = cluster.addAccelerator(
            "pool", pool_fn, {},
            {{"spm", {pool_spm.config().range}, false}});
        mem::bindPorts(pool.comm->dataPort(0), pool_spm.port(0));

        std::uint64_t conv_in = conv_spm.config().range.start;
        std::uint64_t conv_wts = conv_in + imageBytes;
        std::uint64_t conv_out = conv_wts + 0x100;
        std::uint64_t relu_in = relu_spm.config().range.start;
        std::uint64_t relu_out = relu_in + convOutBytes;
        std::uint64_t pool_in = pool_spm.config().range.start;
        std::uint64_t pool_rowbuf = pool_in + convOutBytes;
        std::uint64_t pool_out = pool_rowbuf + 0x200;

        sys::driver::pushDmaTransfer(host, mmr, dram_in, conv_in,
                                     imageBytes + weightBytes);
        host.push(HostOp::waitIrq(dma_irq));
        sys::driver::pushAcceleratorStart(
            host, conv, {conv_in, conv_wts, conv_out});
        host.push(HostOp::waitIrq(conv.irqId));
        sys::driver::pushDmaTransfer(host, mmr, conv_out, relu_in,
                                     convOutBytes);
        host.push(HostOp::waitIrq(dma_irq));
        sys::driver::pushAcceleratorStart(host, relu,
                                          {relu_in, relu_out});
        host.push(HostOp::waitIrq(relu.irqId));
        sys::driver::pushDmaTransfer(host, mmr, relu_out, pool_in,
                                     convOutBytes);
        host.push(HostOp::waitIrq(dma_irq));
        sys::driver::pushAcceleratorStart(
            host, pool, {pool_in, pool_rowbuf, pool_out});
        host.push(HostOp::waitIrq(pool.irqId));
        sys::driver::pushDmaTransfer(host, mmr, pool_out, dram_out,
                                     poolOutBytes);
        host.push(HostOp::waitIrq(dma_irq));
    } else if (scenario == Cnn::Shared) {
        mem::ScratchpadConfig proto = cnnSpmProto();
        proto.numPorts = 4;
        proto.readPorts = 6;
        proto.writePorts = 6;
        auto &shared = cluster.addSpm("shared", 64 * 1024, proto,
                                      false);
        cluster.localXbar().connectDevice(shared.port(3),
                                          shared.config().range);
        auto [mmr, dma_irq] = addDma();

        sys::AcceleratorCluster::DataPortSpec port{
            "mem", {shared.config().range}, false};
        auto &conv = cluster.addAccelerator("conv", conv_fn, {}, {port});
        mem::bindPorts(conv.comm->dataPort(0), shared.port(0));
        auto &relu = cluster.addAccelerator("relu", relu_fn, {}, {port});
        mem::bindPorts(relu.comm->dataPort(0), shared.port(1));
        auto &pool = cluster.addAccelerator("pool", pool_fn, {}, {port});
        mem::bindPorts(pool.comm->dataPort(0), shared.port(2));

        std::uint64_t in = shared.config().range.start;
        std::uint64_t wts = in + imageBytes;
        std::uint64_t conv_out = wts + 0x100;
        std::uint64_t relu_out = conv_out + convOutBytes;
        std::uint64_t rowbuf = relu_out + convOutBytes;
        std::uint64_t pool_out = rowbuf + 0x200;

        sys::driver::pushDmaTransfer(host, mmr, dram_in, in,
                                     imageBytes + weightBytes);
        host.push(HostOp::waitIrq(dma_irq));
        sys::driver::pushAcceleratorStart(host, conv,
                                          {in, wts, conv_out});
        host.push(HostOp::waitIrq(conv.irqId));
        sys::driver::pushAcceleratorStart(host, relu,
                                          {conv_out, relu_out});
        host.push(HostOp::waitIrq(relu.irqId));
        sys::driver::pushAcceleratorStart(host, pool,
                                          {relu_out, rowbuf, pool_out});
        host.push(HostOp::waitIrq(pool.irqId));
        sys::driver::pushDmaTransfer(host, mmr, pool_out, dram_out,
                                     poolOutBytes);
        host.push(HostOp::waitIrq(dma_irq));
    } else {
        auto &conv_spm = cluster.addSpm("conv_spm", 16 * 1024,
                                        cnnSpmProto());
        auto &pool_spm = cluster.addSpm("pool_spm", 16 * 1024,
                                        cnnSpmProto());
        cluster.localXbar().connectDevice(conv_spm.port(1),
                                          conv_spm.config().range);
        cluster.localXbar().connectDevice(pool_spm.port(1),
                                          pool_spm.config().range);
        auto &fifo1 = cluster.addStreamBuffer("fifo1", 64);
        auto &fifo2 = cluster.addStreamBuffer("fifo2", 64);
        auto [mmr, dma_irq] = addDma();

        auto &conv = cluster.addAccelerator(
            "conv", conv_fn, {},
            {{"spm", {conv_spm.config().range}, false},
             {"stream", {fifo1.config().writeRange}, false}});
        mem::bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
        mem::bindPorts(conv.comm->dataPort(1), fifo1.writePort());
        auto &relu = cluster.addAccelerator(
            "relu", relu_fn, {},
            {{"stream_in", {fifo1.config().readRange}, false},
             {"stream_out", {fifo2.config().writeRange}, false}});
        mem::bindPorts(relu.comm->dataPort(0), fifo1.readPort());
        mem::bindPorts(relu.comm->dataPort(1), fifo2.writePort());
        auto &pool = cluster.addAccelerator(
            "pool", pool_fn, {},
            {{"stream_in", {fifo2.config().readRange}, false},
             {"spm", {pool_spm.config().range}, false}});
        mem::bindPorts(pool.comm->dataPort(0), fifo2.readPort());
        mem::bindPorts(pool.comm->dataPort(1), pool_spm.port(0));

        std::uint64_t conv_in = conv_spm.config().range.start;
        std::uint64_t conv_wts = conv_in + imageBytes;
        std::uint64_t rowbuf = pool_spm.config().range.start;
        std::uint64_t pool_out = rowbuf + 0x200;

        sys::driver::pushDmaTransfer(host, mmr, dram_in, conv_in,
                                     imageBytes + weightBytes);
        host.push(HostOp::waitIrq(dma_irq));
        // All three stages start at once; the FIFOs synchronize them.
        sys::driver::pushAcceleratorStart(
            host, pool,
            {fifo2.config().readRange.start, rowbuf, pool_out});
        sys::driver::pushAcceleratorStart(
            host, relu,
            {fifo1.config().readRange.start,
             fifo2.config().writeRange.start});
        sys::driver::pushAcceleratorStart(
            host, conv,
            {conv_in, conv_wts, fifo1.config().writeRange.start});
        host.push(HostOp::waitIrq(pool.irqId));
        sys::driver::pushDmaTransfer(host, mmr, pool_out, dram_out,
                                     poolOutBytes);
        host.push(HostOp::waitIrq(dma_irq));
    }
    host.push(HostOp::mark("end"));
    system.dram().backdoorWrite(dram_in, data->image.data(),
                                data->image.size() * 4);
}

PointResult
CnnPoint::run(Tracer &tracer, long id, const Reference *ref) const
{
    PointResult r;
    const Clock::time_point t0 = Clock::now();
    const bool stream = scenario == Cnn::Stream;
    ir::Module mod("perfbench");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn = nullptr;
    ir::Function *relu_fn = nullptr;
    ir::Function *pool_fn = nullptr;
    {
        auto span = tracer.span("opt.build", id);
        conv_fn = kernels::makeConv2d(imgW, imgH, stream)
                      ->buildOptimized(b);
        relu_fn = kernels::makeRelu(convW * convH, stream, stream)
                      ->buildOptimized(b);
        pool_fn = kernels::makeMaxPool(convW, convH, stream, false)
                      ->buildOptimized(b);
    }

    const std::uint64_t dram_in =
        sys::SystemAddressMap::dramBase + 0x10000;
    const std::uint64_t dram_out =
        sys::SystemAddressMap::dramBase + 0x40000;
    Simulation sim;
    std::optional<sys::SalamSystem> system;
    {
        auto span = tracer.span("core.elab", id);
        system.emplace(sim);
        elaborate(*system, *conv_fn, *relu_fn, *pool_fn, dram_in,
                  dram_out);
    }
    {
        auto span = tracer.span("sys.run", id);
        system->run();
    }
    {
        auto span = tracer.span("kernels.check", id);
        const std::vector<float> &expected = data->expected;
        for (unsigned i = 0; i < expected.size() && r.failure.empty();
             ++i) {
            float got = 0;
            system->dram().backdoorRead(dram_out + 4ull * i, &got, 4);
            if (std::abs(got - expected[i]) > 1e-4f)
                r.failure = key() + ": golden check: wrong output at " +
                    std::to_string(i);
        }
        sys::DriverCpu &host = system->host();
        r.fields.add("ticks", host.markAt("end") - host.markAt("begin"));
        for (const SimObject *obj : sim.objectList()) {
            auto *cu = dynamic_cast<const core::ComputeUnit *>(obj);
            if (cu == nullptr)
                continue;
            r.fields.add(cu->name() + ".cycles", cu->cycleCount());
            r.fields.addEngine(cu->name() + ".engine.", cu->stats());
            addEngineCounters(r.counters, cu->stats());
            r.counters.fullSimInsts += cu->stats().dynamicInstructions;
        }
        collectStats(sim, r.fields, r.counters);
        if (r.failure.empty() && ref != nullptr)
            r.failure = ref->compare(key(), r.fields, false);
    }
    r.seconds = secondsSince(t0);

    Counters &c = r.counters;
    c.fullSimPoints = 1;
    c.events = sim.eventQueue().numServiced();
    c.heapDepthMax = sim.eventQueue().maxHeapDepth();
    collectHostTime(c);
    return r;
}

// ---- Fig. 13: trace-reuse replay of the GEMM grid -------------------

/** One captured GEMM trace with its replay IR and skeleton. */
struct Capture
{
    core::DynTrace trace;
    std::unique_ptr<ir::Module> module;
    ir::Function *fn = nullptr;
    drive::ReplayPrep prep;
};

/**
 * The one-time phase of the fast path: simulate the kernel in full
 * once under the cheapest sound configuration while recording its
 * trace, then build the config-independent replay skeleton.
 */
std::shared_ptr<const Capture>
captureTrace(const kernels::Kernel &kernel, Tracer &tracer)
{
    auto cap = std::make_shared<Capture>();
    AccelConfig cfg;
    cfg.dev.readPortsPerCycle = 64;
    cfg.dev.writePortsPerCycle = 64;
    cfg.dev.readQueueSize = 64;
    cfg.dev.writeQueueSize = 64;
    cfg.spmPorts = 64;
    {
        auto span = tracer.span("drive.capture", -1);
        Tracer quiet;
        PointResult r = simulateAccel(kernel, cfg, "capture", quiet, -1,
                                      nullptr, &cap->trace);
        if (!r.failure.empty())
            fatal("trace capture failed: %s", r.failure.c_str());
    }
    {
        auto span = tracer.span("drive.prep", -1);
        cap->module = std::make_unique<ir::Module>("replay");
        ir::IRBuilder builder(*cap->module);
        cap->fn = kernel.buildOptimized(builder);
        core::StaticCdfg cdfg(*cap->fn, cfg.dev);
        cap->prep = drive::buildReplayPrep(cdfg, cap->trace);
        if (!cap->prep.error.empty())
            fatal("replay preparation failed: %s",
                  cap->prep.error.c_str());
    }
    return cap;
}

/** fig13's grid point: FP FU limit and memory ports. */
AccelConfig
paretoConfig(unsigned fu_limit, unsigned ports)
{
    AccelConfig cfg;
    cfg.dev.setFuLimit(hw::FuType::FpAddSubDouble, fu_limit);
    cfg.dev.setFuLimit(hw::FuType::FpMultiplierDouble, fu_limit);
    cfg.dev.readPortsPerCycle = ports;
    cfg.dev.writePortsPerCycle = ports;
    cfg.dev.readQueueSize = std::max(ports, 16u);
    cfg.dev.writeQueueSize = std::max(ports, 16u);
    cfg.spmPorts = ports;
    return cfg;
}

class ReplayPoint : public Point
{
  public:
    ReplayPoint(std::string key,
                std::shared_ptr<const kernels::Kernel> kernel,
                std::shared_ptr<const Capture> capture, AccelConfig cfg,
                obs::ResultStore *store)
        : Point(std::move(key)), kernel(std::move(kernel)),
          capture(std::move(capture)), cfg(std::move(cfg)), store(store)
    {}

    PointResult run(Tracer &tracer, long id,
                    const Reference *ref) const override;

  private:
    std::shared_ptr<const kernels::Kernel> kernel;
    std::shared_ptr<const Capture> capture;
    AccelConfig cfg;
    obs::ResultStore *store;
};

PointResult
ReplayPoint::run(Tracer &tracer, long id, const Reference *ref) const
{
    PointResult r;
    const Clock::time_point t0 = Clock::now();
    std::string blocker =
        drive::fastPathBlocker(capture->trace, cfg.dev, false, false);
    std::optional<core::StaticCdfg> cdfg;
    {
        auto span = tracer.span("drive.replay_elab", id);
        cdfg.emplace(*capture->fn, cfg.dev);
    }
    drive::ReplaySpmConfig spm;
    spm.rangeStart = spmBase;
    spm.readPorts = cfg.spmPorts;
    spm.writePorts = cfg.spmPorts;
    spm.wordBytes = mem::ScratchpadConfig{}.wordBytes;
    drive::ReplayResult res;
    const Clock::time_point replay_t0 = Clock::now();
    {
        auto span = tracer.span("drive.replay", id);
        drive::TraceReplayer replayer(*cdfg, cfg.dev, capture->trace,
                                      spm, &capture->prep);
        res = replayer.run();
    }
    const double replay_seconds = secondsSince(replay_t0);
    {
        auto span = tracer.span("kernels.check", id);
        if (!blocker.empty())
            r.failure = key() + ": fast path refused: " + blocker;
        else if (!res.ok)
            r.failure = key() + ": replay failed: " + res.error;
        core::SpmUsage usage;
        usage.sizeBytes = spmBytes(*kernel);
        usage.wordBytes = spm.wordBytes;
        usage.readPorts = spm.readPorts;
        usage.writePorts = spm.writePorts;
        usage.banks = spm.banks;
        usage.reads = res.spmReads;
        usage.writes = res.spmWrites;
        r.fields.add("cycles", res.stats.totalCycles);
        r.fields.addEngine("engine.", res.stats);
        r.fields.addPower(
            core::buildReport(*cdfg, cfg.dev, res.stats, &usage).power);
        r.fields.add("spm.reads", res.spmReads);
        r.fields.add("spm.writes", res.spmWrites);
        if (r.failure.empty() && ref != nullptr)
            r.failure = ref->compare(key(), r.fields, true);
    }
    r.seconds = secondsSince(t0);

    Counters &c = r.counters;
    addEngineCounters(c, res.stats);
    c.replayInsts = res.stats.dynamicInstructions;
    c.spmAccesses = res.spmReads + res.spmWrites;

    obs::RunReport report;
    {
        auto span = tracer.span("obs.record", id);
        report.run = kernel->name();
        report.configHash = obs::fnv1aHash(key());
        report.cycles = res.stats.totalCycles;
        report.simSeconds = replay_seconds;
        report.outcome = r.failure.empty() ? "ok" : "error";
        report.extra = {
            {"spm_reads", static_cast<double>(res.spmReads)},
            {"spm_writes", static_cast<double>(res.spmWrites)},
            {"stall_cycles", static_cast<double>(res.stats.stallCycles)},
            {"dynamic_insts",
             static_cast<double>(res.stats.dynamicInstructions)},
            {"clock_period_ticks",
             static_cast<double>(cfg.dev.clockPeriod)},
            {"fast_path", 1.0},
        };
    }
    {
        auto span = tracer.span("obs.store_append", id);
        store->appendRunReport(report, "perfbench");
    }
    return r;
}

// ---- workload construction -----------------------------------------

/** Fig. 10's kernels, ILP-matched to the HLS surrogate. */
const char *const fig10Kernels[] = {
    "fft-strided", "gemm", "md-grid", "md-knn",
    "nw", "spmv-crs", "stencil2d", "stencil3d"};

AccelConfig
ilpMatched()
{
    AccelConfig cfg;
    cfg.dev.blockSequentialImport = true;
    cfg.dev.readPortsPerCycle = 2;
    cfg.dev.writePortsPerCycle = 2;
    cfg.spmPorts = 2;
    cfg.fabric = true;
    return cfg;
}

std::string
xbarKey(const std::string &kernel)
{
    return "fabric-cluster/" + kernel + "/xbar";
}

void
addMachsuite(std::vector<std::unique_ptr<Point>> &points)
{
    for (auto &kernel : kernels::machsuiteKernels()) {
        std::string key = "machsuite-full/" + kernel->name() + "/default";
        points.push_back(std::make_unique<AccelPoint>(
            std::move(key),
            std::shared_ptr<const kernels::Kernel>(std::move(kernel)),
            AccelConfig{}));
    }
}

void
addFabric(std::vector<std::unique_ptr<Point>> &points)
{
    for (const char *name : fig10Kernels) {
        std::shared_ptr<const kernels::Kernel> kernel =
            kernels::makeKernel(name);
        AccelConfig xbar = ilpMatched();
        points.push_back(
            std::make_unique<AccelPoint>(xbarKey(name), kernel, xbar));
        AccelConfig axi = ilpMatched();
        axi.interconnect.kind = mem::InterconnectKind::AxiBus;
        axi.interconnect.busWidthBytes = 4;
        axi.interconnect.maxOutstandingPerRequester = 2;
        points.push_back(std::make_unique<AccelPoint>(
            "fabric-cluster/" + std::string(name) + "/axi-w4-c2", kernel,
            axi));
    }
    std::shared_ptr<const CnnData> data = makeCnnData();
    points.push_back(std::make_unique<CnnPoint>(
        "fabric-cluster/cnn/private-spm-dma", Cnn::Private, data));
    points.push_back(std::make_unique<CnnPoint>(
        "fabric-cluster/cnn/shared-spm", Cnn::Shared, data));
    points.push_back(std::make_unique<CnnPoint>(
        "fabric-cluster/cnn/stream-buffers", Cnn::Stream, data));
}

constexpr unsigned paretoFuLimits[] = {8, 16, 32, 64};
constexpr unsigned paretoPorts[] = {4, 8, 16, 32, 64};

std::string
paretoKey(unsigned fu_limit, unsigned ports)
{
    return "pareto-fast/gemm-n32u32/fu" + std::to_string(fu_limit) +
        "-ports" + std::to_string(ports);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "machsuite-full", "fabric-cluster", "pareto-fast"};
    return names;
}

Workload
makeWorkload(const std::string &name, Tracer &tracer,
             obs::ResultStore *store)
{
    Workload w;
    w.name = name;
    if (name == "machsuite-full") {
        addMachsuite(w.points);
    } else if (name == "fabric-cluster") {
        addFabric(w.points);
    } else if (name == "pareto-fast") {
        w.threads = 4;
        std::shared_ptr<const kernels::Kernel> kernel =
            kernels::makeGemm(32, 32);
        std::shared_ptr<const Capture> capture =
            captureTrace(*kernel, tracer);
        for (unsigned fu : paretoFuLimits) {
            for (unsigned ports : paretoPorts) {
                w.points.push_back(std::make_unique<ReplayPoint>(
                    paretoKey(fu, ports), kernel, capture,
                    paretoConfig(fu, ports), store));
            }
        }
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return w;
}

std::vector<std::unique_ptr<Point>>
referencePoints()
{
    std::vector<std::unique_ptr<Point>> points;
    addMachsuite(points);
    addFabric(points);
    std::shared_ptr<const kernels::Kernel> gemm =
        kernels::makeGemm(32, 32);
    for (unsigned fu : paretoFuLimits) {
        for (unsigned ports : paretoPorts) {
            points.push_back(std::make_unique<AccelPoint>(
                paretoKey(fu, ports), gemm, paretoConfig(fu, ports)));
        }
    }
    return points;
}

std::vector<std::pair<std::string, std::uint64_t>>
hlsSurrogateCycles()
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const char *name : fig10Kernels) {
        std::unique_ptr<kernels::Kernel> kernel = kernels::makeKernel(name);
        ir::Module mod("hls");
        ir::IRBuilder builder(mod);
        ir::Function *fn = kernel->buildOptimized(builder);
        ir::FlatMemory memory;
        kernel->seed(memory, spmBase);
        hls::HlsScheduler scheduler;
        hls::HlsResult hls =
            scheduler.estimate(*fn, kernel->args(spmBase), memory);
        out.emplace_back(xbarKey(name), hls.totalCycles);
    }
    return out;
}

} // namespace perfbench
