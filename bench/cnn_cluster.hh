/**
 * @file
 * The CNN layer of Fig. 16 (conv3x3 -> ReLU -> maxpool2x2) on one
 * accelerator cluster: its geometry and input image, the system
 * every scenario builds on (CnnCluster), and scenario (a), the
 * private-scratchpad pipeline. Fig. 16 runs all scenarios; the
 * interconnect sweep re-runs (a) across AXI bus widths and credit
 * limits.
 */

#ifndef SALAM_BENCH_CNN_CLUSTER_HH
#define SALAM_BENCH_CNN_CLUSTER_HH

#include <cstdint>
#include <vector>

#include "kernels/machsuite.hh"
#include "sys/system.hh"

namespace salam::bench
{

constexpr unsigned imgW = 32, imgH = 32;
constexpr unsigned convW = imgW - 2, convH = imgH - 2; // 30x30
constexpr unsigned poolW = convW / 2, poolH = convH / 2; // 15x15
constexpr std::uint64_t imageBytes = 4ull * imgW * imgH;
constexpr std::uint64_t weightBytes = 4ull * 9;
constexpr std::uint64_t convOutBytes = 4ull * convW * convH;
constexpr std::uint64_t poolOutBytes = 4ull * poolW * poolH;

/** The input image followed by the 3x3 convolution weights. */
inline std::vector<float>
makeImage()
{
    kernels::Lcg rng(2020);
    std::vector<float> image(imgW * imgH + 9);
    for (auto &v : image)
        v = static_cast<float>(rng.nextDouble()) - 0.5f;
    return image;
}

/** The per-accelerator scratchpad every scenario starts from. */
inline mem::ScratchpadConfig
spmProto()
{
    mem::ScratchpadConfig proto;
    proto.readPorts = 4;
    proto.writePorts = 4;
    proto.numPorts = 2;
    return proto;
}

/**
 * What every scenario shares: cluster "c0" (100 MHz, local fabric
 * @p icfg) in a fresh SalamSystem, a DMA engine that interrupts the
 * host, and a host program that stages the image in, copies the
 * pooled result out, and marks both ends.
 */
struct CnnCluster
{
    static constexpr std::uint64_t dramIn =
        sys::SystemAddressMap::dramBase + 0x10000;
    static constexpr std::uint64_t dramOut =
        sys::SystemAddressMap::dramBase + 0x40000;

    Simulation sim;
    sys::SalamSystem system{sim};
    sys::AcceleratorCluster &cluster;
    sys::DriverCpu &host = system.host();
    core::Dma *dma = nullptr;
    unsigned dmaIrq = 0;

    explicit CnnCluster(const mem::InterconnectConfig &icfg)
        : cluster(system.addCluster("c0", periodFromMhz(100), 0, icfg))
    {}

    void
    addDma(const core::DmaConfig &cfg)
    {
        dma = &cluster.addDma("dma", cfg);
        dmaIrq = system.allocateIrq();
        dma->setIrqCallback(system.gic().lineCallback(dmaIrq));
    }

    /** Host: DMA @p bytes from @p src to @p dst and wait for it. */
    void
    copy(std::uint64_t src, std::uint64_t dst, std::uint64_t bytes)
    {
        sys::driver::pushDmaTransfer(host, dma->config().mmrRange.start,
                                     src, dst, bytes);
        host.push(sys::HostOp::waitIrq(dmaIrq));
    }

    /** Put @p image in DRAM; the host starts by copying it to @p dst. */
    void
    begin(const std::vector<float> &image, std::uint64_t dst)
    {
        system.dram().backdoorWrite(dramIn, image.data(),
                                    image.size() * 4);
        host.push(sys::HostOp::mark("begin"));
        copy(dramIn, dst, imageBytes + weightBytes);
    }

    /**
     * Copy the pooled output at @p pool_out back to DRAM and run the
     * host program. Returns the end-to-end ticks; the output lands
     * in @p pooled.
     */
    Tick
    finish(std::uint64_t pool_out, std::vector<float> &pooled)
    {
        copy(pool_out, dramOut, poolOutBytes);
        host.push(sys::HostOp::mark("end"));
        system.run();
        pooled.resize(poolW * poolH);
        system.dram().backdoorRead(dramOut, pooled.data(), poolOutBytes);
        return host.markAt("end") - host.markAt("begin");
    }
};

/**
 * Scenario (a): conv, relu and pool each own a private SPM; a DMA
 * engine configured by @p dma_cfg moves every tensor through the
 * cluster fabric @p icfg and the host sequences the stages. Returns
 * the end-to-end ticks and leaves the pooled output in @p pooled.
 */
inline Tick
privateSpmPipeline(const std::vector<float> &image,
                   const mem::InterconnectConfig &icfg,
                   const core::DmaConfig &dma_cfg,
                   std::vector<float> &pooled)
{
    CnnCluster c(icfg);
    auto &conv_spm = c.cluster.addSpm("conv_spm", 16 * 1024,
                                      spmProto());
    auto &relu_spm = c.cluster.addSpm("relu_spm", 16 * 1024,
                                      spmProto());
    auto &pool_spm = c.cluster.addSpm("pool_spm", 16 * 1024,
                                      spmProto());
    for (mem::Scratchpad *spm : {&conv_spm, &relu_spm, &pool_spm}) {
        c.cluster.localXbar().connectDevice(spm->port(1),
                                            spm->config().range);
    }
    c.addDma(dma_cfg);

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *conv_fn =
        kernels::makeConv2d(imgW, imgH)->buildOptimized(b);
    ir::Function *relu_fn =
        kernels::makeRelu(convW * convH)->buildOptimized(b);
    ir::Function *pool_fn =
        kernels::makeMaxPool(convW, convH)->buildOptimized(b);

    auto &conv = c.cluster.addAccelerator(
        "conv", *conv_fn, {},
        {{"spm", {conv_spm.config().range}, false}});
    mem::bindPorts(conv.comm->dataPort(0), conv_spm.port(0));
    auto &relu = c.cluster.addAccelerator(
        "relu", *relu_fn, {},
        {{"spm", {relu_spm.config().range}, false}});
    mem::bindPorts(relu.comm->dataPort(0), relu_spm.port(0));
    auto &pool = c.cluster.addAccelerator(
        "pool", *pool_fn, {},
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

    using sys::HostOp;
    c.begin(image, conv_in);
    sys::driver::pushAcceleratorStart(c.host, conv,
                                      {conv_in, conv_wts, conv_out});
    c.host.push(HostOp::waitIrq(conv.irqId));
    c.copy(conv_out, relu_in, convOutBytes);
    sys::driver::pushAcceleratorStart(c.host, relu,
                                      {relu_in, relu_out});
    c.host.push(HostOp::waitIrq(relu.irqId));
    c.copy(relu_out, pool_in, convOutBytes);
    sys::driver::pushAcceleratorStart(
        c.host, pool, {pool_in, pool_rowbuf, pool_out});
    c.host.push(HostOp::waitIrq(pool.irqId));
    return c.finish(pool_out, pooled);
}

} // namespace salam::bench

#endif // SALAM_BENCH_CNN_CLUSTER_HH
