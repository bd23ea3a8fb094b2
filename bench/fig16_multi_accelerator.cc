/**
 * @file
 * Fig. 16 / Sec. IV-E reproduction: producer-consumer accelerator
 * scenarios for a CNN layer (conv2d -> ReLU -> max-pool).
 *
 * (a) private scratchpads: DMAs move data between accelerators and
 *     the host activates and synchronizes every stage (baseline,
 *     the gem5-Aladdin-style integration);
 * (b) shared scratchpad: no inter-accelerator copies, but a central
 *     controller (the host) still sequences the stages — the
 *     PARADE-style integration (paper: ~25% faster);
 * (c) stream buffers: accelerators pipeline directly through FIFO
 *     handshakes with no central synchronization (paper: 2.08x
 *     over the baseline) — the integration only gem5-SALAM models.
 */

#include <algorithm>
#include <vector>

#include "cnn_cluster.hh"
#include "common.hh"
#include "sys/system.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::kernels;
using namespace salam::sys;
using namespace salam::mem;

namespace
{

/** Host-side golden: conv -> relu -> pool. */
std::vector<float>
golden(const std::vector<float> &image)
{
    const float *weights = image.data() + imgW * imgH;
    std::vector<float> conv(convW * convH);
    for (unsigned r = 0; r < convH; ++r) {
        for (unsigned c = 0; c < convW; ++c) {
            float acc = 0.0f;
            for (unsigned k1 = 0; k1 < 3; ++k1)
                for (unsigned k2 = 0; k2 < 3; ++k2)
                    acc += weights[k1 * 3 + k2] *
                        image[(r + k1) * imgW + c + k2];
            conv[r * convW + c] = std::max(acc, 0.0f); // + relu
        }
    }
    std::vector<float> pool(poolW * poolH);
    for (unsigned r = 0; r < poolH; ++r) {
        for (unsigned c = 0; c < poolW; ++c) {
            pool[r * poolW + c] = std::max(
                {conv[(2 * r) * convW + 2 * c],
                 conv[(2 * r) * convW + 2 * c + 1],
                 conv[(2 * r + 1) * convW + 2 * c],
                 conv[(2 * r + 1) * convW + 2 * c + 1]});
        }
    }
    return pool;
}

void
checkOutput(const std::vector<float> &pooled,
            const std::vector<float> &expected, const char *tag)
{
    for (unsigned i = 0; i < expected.size(); ++i) {
        if (std::abs(pooled[i] - expected[i]) > 1e-4f)
            fatal("fig16 %s: wrong output at %u (%f vs %f)", tag,
                  i, pooled[i], expected[i]);
    }
}

core::DmaConfig
dmaProto()
{
    core::DmaConfig dma_proto;
    dma_proto.burstBytes = 16; // modest cluster data mover
    dma_proto.maxOutstanding = 2;
    return dma_proto;
}

/** Scenario (a): private SPMs, DMA transfers, host-sequenced. */
Tick
scenarioPrivate(const std::vector<float> &image,
                const std::vector<float> &expected,
                const InterconnectConfig &icfg)
{
    std::vector<float> pooled;
    Tick t = privateSpmPipeline(image, icfg, dmaProto(), pooled);
    checkOutput(pooled, expected, "private");
    return t;
}

/** Scenario (b): shared SPM, host-sequenced (central control). */
Tick
scenarioShared(const std::vector<float> &image,
               const std::vector<float> &expected,
               const InterconnectConfig &icfg)
{
    CnnCluster c(icfg);

    // Multi-ported shared SPM: one direct port per accelerator
    // (the paper's shared-scratchpad organization) plus one routed
    // through the local crossbar for the DMA.
    ScratchpadConfig proto = spmProto();
    proto.numPorts = 4;
    proto.readPorts = 6;
    proto.writePorts = 6;
    auto &shared = c.cluster.addSpm("shared", 64 * 1024, proto,
                                    false);
    c.cluster.localXbar().connectDevice(shared.port(3),
                                        shared.config().range);
    c.addDma(dmaProto());

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn = makeConv2d(imgW, imgH)->buildOptimized(b);
    ir::Function *relu_fn = makeRelu(convW * convH)->buildOptimized(b);
    ir::Function *pool_fn = makeMaxPool(convW, convH)->buildOptimized(b);

    AcceleratorCluster::DataPortSpec shared_port{
        "mem", {shared.config().range}, false};
    auto &conv = c.cluster.addAccelerator("conv", *conv_fn, {},
                                          {shared_port});
    bindPorts(conv.comm->dataPort(0), shared.port(0));
    auto &relu = c.cluster.addAccelerator("relu", *relu_fn, {},
                                          {shared_port});
    bindPorts(relu.comm->dataPort(0), shared.port(1));
    auto &pool = c.cluster.addAccelerator("pool", *pool_fn, {},
                                          {shared_port});
    bindPorts(pool.comm->dataPort(0), shared.port(2));

    std::uint64_t base = shared.config().range.start;
    std::uint64_t in = base;
    std::uint64_t wts = in + imageBytes;
    std::uint64_t conv_out = wts + 0x100;
    std::uint64_t relu_out = conv_out + convOutBytes;
    std::uint64_t rowbuf = relu_out + convOutBytes;
    std::uint64_t pool_out = rowbuf + 0x200;

    c.begin(image, in);
    driver::pushAcceleratorStart(c.host, conv, {in, wts, conv_out});
    c.host.push(HostOp::waitIrq(conv.irqId));
    driver::pushAcceleratorStart(c.host, relu,
                                 {conv_out, relu_out});
    c.host.push(HostOp::waitIrq(relu.irqId));
    driver::pushAcceleratorStart(c.host, pool,
                                 {relu_out, rowbuf, pool_out});
    c.host.push(HostOp::waitIrq(pool.irqId));
    std::vector<float> pooled;
    Tick t = c.finish(pool_out, pooled);
    checkOutput(pooled, expected, "shared");
    return t;
}

/** Scenario (c): direct stream-buffer pipeline, self-synchronized. */
Tick
scenarioStream(const std::vector<float> &image,
               const std::vector<float> &expected,
               const InterconnectConfig &icfg)
{
    CnnCluster c(icfg);
    auto &conv_spm = c.cluster.addSpm("conv_spm", 16 * 1024,
                                      spmProto());
    auto &pool_spm = c.cluster.addSpm("pool_spm", 16 * 1024,
                                      spmProto());
    c.cluster.localXbar().connectDevice(conv_spm.port(1),
                                        conv_spm.config().range);
    c.cluster.localXbar().connectDevice(pool_spm.port(1),
                                        pool_spm.config().range);

    auto &fifo1 = c.cluster.addStreamBuffer("fifo1", 64);
    auto &fifo2 = c.cluster.addStreamBuffer("fifo2", 64);
    c.addDma(dmaProto());

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn =
        makeConv2d(imgW, imgH, /*stream_out=*/true)->buildOptimized(b);
    ir::Function *relu_fn =
        makeRelu(convW * convH, true, true)->buildOptimized(b);
    ir::Function *pool_fn =
        makeMaxPool(convW, convH, /*stream_in=*/true, false)
            ->buildOptimized(b);

    auto &conv = c.cluster.addAccelerator(
        "conv", *conv_fn, {},
        {{"spm", {conv_spm.config().range}, false},
         {"stream", {fifo1.config().writeRange}, false}});
    bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
    bindPorts(conv.comm->dataPort(1), fifo1.writePort());

    auto &relu = c.cluster.addAccelerator(
        "relu", *relu_fn, {},
        {{"stream_in", {fifo1.config().readRange}, false},
         {"stream_out", {fifo2.config().writeRange}, false}});
    bindPorts(relu.comm->dataPort(0), fifo1.readPort());
    bindPorts(relu.comm->dataPort(1), fifo2.writePort());

    auto &pool = c.cluster.addAccelerator(
        "pool", *pool_fn, {},
        {{"stream_in", {fifo2.config().readRange}, false},
         {"spm", {pool_spm.config().range}, false}});
    bindPorts(pool.comm->dataPort(0), fifo2.readPort());
    bindPorts(pool.comm->dataPort(1), pool_spm.port(0));

    std::uint64_t conv_in = conv_spm.config().range.start;
    std::uint64_t conv_wts = conv_in + imageBytes;
    std::uint64_t rowbuf = pool_spm.config().range.start;
    std::uint64_t pool_out = rowbuf + 0x200;

    c.begin(image, conv_in);
    // Start all three stages; the FIFOs self-synchronize them.
    driver::pushAcceleratorStart(
        c.host, pool,
        {fifo2.config().readRange.start, rowbuf, pool_out});
    driver::pushAcceleratorStart(
        c.host, relu,
        {fifo1.config().readRange.start,
         fifo2.config().writeRange.start});
    driver::pushAcceleratorStart(
        c.host, conv,
        {conv_in, conv_wts, fifo1.config().writeRange.start});
    c.host.push(HostOp::waitIrq(pool.irqId));
    std::vector<float> pooled;
    Tick t = c.finish(pool_out, pooled);
    checkOutput(pooled, expected, "stream");
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    // --interconnect selects the cluster-local fabric: "direct"
    // keeps the historical default crossbar; "xbar"/"axi" (with
    // --bus-width/--ic-credits) rerun all three scenarios with the
    // chosen fabric carrying the DMA and host-MMIO traffic. The
    // check.sh contention smoke compares xbar against a narrow AXI
    // bus here.
    InterconnectChoice fabric;
    salam::bench::parseObsArgs(argc, argv, fabric.options());
    InterconnectConfig icfg =
        fabric.direct() ? InterconnectConfig{} : fabric.config();
    auto image = makeImage();
    auto expected = golden(image);

    header("Fig. 16: producer-consumer accelerator scenarios "
           "(CNN layer: conv3x3 -> ReLU -> maxpool2x2)");

    Tick t_private = scenarioPrivate(image, expected, icfg);
    Tick t_shared = scenarioShared(image, expected, icfg);
    Tick t_stream = scenarioStream(image, expected, icfg);

    auto us = [](Tick t) { return static_cast<double>(t) / 1e6; };
    std::printf("%-28s %12s %10s\n", "Scenario", "end-to-end(us)",
                "speedup");
    std::printf("%-28s %12.2f %9.2fx\n",
                "(a) private SPM + DMA", us(t_private), 1.0);
    std::printf("%-28s %12.2f %9.2fx\n",
                "(b) shared SPM, central sync", us(t_shared),
                static_cast<double>(t_private) /
                    static_cast<double>(t_shared));
    std::printf("%-28s %12.2f %9.2fx\n",
                "(c) stream buffers, self-sync", us(t_stream),
                static_cast<double>(t_private) /
                    static_cast<double>(t_stream));
    std::printf("\n(paper: (b) ~1.25x, (c) ~2.08x over the "
                "baseline)\n");

    // Machine-parseable summary for check.sh's contention compare.
    std::printf("fig16-summary kind=%s width=%u credits=%u "
                "private=%llu shared=%llu stream=%llu\n",
                fabric.kind.c_str(), fabric.busWidthBytes,
                fabric.credits,
                static_cast<unsigned long long>(t_private),
                static_cast<unsigned long long>(t_shared),
                static_cast<unsigned long long>(t_stream));

    // --store-out/--report-out: one record per fabric configuration,
    // queryable with salam-query (the configHash distinguishes fabric
    // knobs, so xbar vs narrow-axi runs land as separate records).
    if (obsOptions().recordsRuns()) {
        obs::RunReport report;
        report.run = "fig16-contention";
        report.configHash = obs::fnv1aHash(
            std::string("fig16|ic=") + fabric.kind + "|icw=" +
            std::to_string(fabric.busWidthBytes) + "|icc=" +
            std::to_string(fabric.credits));
        report.cycles = t_private; // baseline scenario
        report.extra = {
            {"t_private_ticks", static_cast<double>(t_private)},
            {"t_shared_ticks", static_cast<double>(t_shared)},
            {"t_stream_ticks", static_cast<double>(t_stream)},
            {"bus_width_bytes",
             static_cast<double>(fabric.busWidthBytes)},
            {"credits", fabric.credits == mem::unlimitedCredits
                 ? -1.0
                 : static_cast<double>(fabric.credits)},
        };
        drive::recordRun(obsOptions(), std::move(report));
    }

    bool shape = t_shared < t_private && t_stream < t_shared;
    std::printf("Shape check (a > b > c): %s\n",
                shape ? "REPRODUCED" : "NOT REPRODUCED");
    return shape ? 0 : 1;
}
