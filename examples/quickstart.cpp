/**
 * @file
 * Quickstart: simulate one accelerator in five steps.
 *
 *   1. Express the kernel in IR through the IRBuilder (the role
 *      clang plays in the original gem5-SALAM flow).
 *   2. Apply optimizations (unrolling controls datapath ILP).
 *   3. Build a small system: scratchpad + communications interface
 *      + compute unit.
 *   4. Seed data, run, and read results back.
 *   5. Inspect cycles, power, and area.
 *
 * Build & run:  ./build/examples/quickstart
 *
 * Observability (both optional):
 *   --trace-out <file>   write a Chrome trace_event JSON trace
 *                        (load it at https://ui.perfetto.dev)
 *   --report-out <file>  append a machine-readable run report
 */

#include <cstdio>
#include <cstring>

#include "core/power_report.hh"
#include "drive/run_point.hh"
#include "ir/ir_builder.hh"
#include "mem/backdoor.hh"
#include "opt/pass_manager.hh"
#include "sim/simulation.hh"

using namespace salam;

int
main(int argc, char **argv)
{
    drive::Artifacts art;
    for (int k = 0; k < argc; ++k)
        art.commandLine.append(k > 0 ? " " : "").append(argv[k]);
    for (int k = 1; k < argc; ++k) {
        if (std::strcmp(argv[k], "--trace-out") == 0 && k + 1 < argc)
            art.traceOut = argv[++k];
        else if (std::strcmp(argv[k], "--report-out") == 0 &&
                 k + 1 < argc)
            art.reportOut = argv[++k];
        else
            fatal("usage: quickstart [--trace-out FILE] "
                  "[--report-out FILE]");
    }
    // ---- 1. The kernel: y[i] = a * x[i] + y[i] over 64 doubles.
    ir::Module mod("quickstart");
    ir::IRBuilder b(mod);
    ir::Context &ctx = b.context();
    const ir::Type *f64 = ctx.doubleType();

    ir::Function *fn = b.createFunction("daxpy", ctx.voidType());
    ir::Argument *a = fn->addArgument(f64, "a");
    ir::Argument *x = fn->addArgument(ctx.pointerTo(f64), "x");
    ir::Argument *y = fn->addArgument(ctx.pointerTo(f64), "y");

    ir::BasicBlock *entry = b.createBlock("entry");
    ir::BasicBlock *loop = b.createBlock("loop");
    ir::BasicBlock *done = b.createBlock("done");

    b.setInsertPoint(entry);
    b.br(loop);

    b.setInsertPoint(loop);
    ir::PhiInst *i = b.phi(ctx.i64(), "i");
    ir::Value *px = b.gep(f64, x, i, "px");
    ir::Value *py = b.gep(f64, y, i, "py");
    ir::Value *sum = b.fadd(b.fmul(a, b.load(px, "vx"), "ax"),
                            b.load(py, "vy"), "sum");
    b.store(sum, py);
    ir::Value *inext = b.add(i, b.constI64(1), "i.next");
    ir::Value *cond = b.icmp(ir::Predicate::SLT, inext,
                             b.constI64(64), "cond");
    b.condBr(cond, loop, done);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);

    b.setInsertPoint(done);
    b.ret();

    // ---- 2. Optimize: unroll by 8 for an 8-wide datapath.
    opt::PassManager::run(*fn, {opt::PassSpec::unroll("loop", 8),
                                opt::PassSpec::cleanup()});

    // ---- 3. The system: SPM + CommInterface + ComputeUnit.
    Simulation sim;
    if (!art.traceOut.empty())
        sim.enableTracing();
    core::DeviceConfig dev; // 100 MHz, 1-to-1 FU map by default
    dev.readPortsPerCycle = 8;
    dev.writePortsPerCycle = 8;

    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{0x10000, 0x10000 + 64 * 1024};
    scfg.readPorts = 8;
    scfg.writePorts = 8;
    drive::Testbench tb(sim, *fn, dev, scfg);

    // ---- 4. Seed inputs, run, verify.
    const std::uint64_t xa = 0x10000, ya = 0x12000;
    mem::ScratchpadBackdoor backdoor(tb.spm);
    for (int k = 0; k < 64; ++k) {
        backdoor.writeF64(xa + 8u * static_cast<unsigned>(k), k);
        backdoor.writeF64(ya + 8u * static_cast<unsigned>(k),
                          100.0);
    }
    tb.cu.start({ir::RuntimeValue::fromDouble(0.5),
                 ir::RuntimeValue::fromPointer(xa),
                 ir::RuntimeValue::fromPointer(ya)});
    sim.run();

    bool ok = true;
    for (int k = 0; k < 64; ++k) {
        double got =
            backdoor.readF64(ya + 8u * static_cast<unsigned>(k));
        ok &= (got == 100.0 + 0.5 * k);
    }

    // ---- 5. Report.
    core::AcceleratorReport report = core::buildReport(tb.cu, &tb.spm);
    std::printf("daxpy results: %s\n", ok ? "CORRECT" : "WRONG");
    std::printf("cycles:        %llu (%.2f us @ 100 MHz)\n",
                static_cast<unsigned long long>(report.cycles),
                report.runtimeNs / 1000.0);
    std::printf("power:         %.3f mW (%.3f dynamic, %.3f "
                "static)\n",
                report.power.totalMw(),
                report.power.dynamicTotalMw(),
                report.power.staticTotalMw());
    std::printf("area:          %.0f um^2 datapath, %.0f um^2 "
                "SPM\n",
                report.area.fuUm2 + report.area.registerUm2,
                report.area.spmUm2);

    // ---- 6. Optional machine-readable outputs.
    sim.finalizeAll();
    if (obs::TraceSink *sink = sim.traceSink()) {
        if (!sink->writeChromeTraceFile(art.traceOut))
            fatal("could not write trace to '%s'", art.traceOut.c_str());
        std::printf("trace:         %s (%zu events)\n",
                    art.traceOut.c_str(), sink->size());
    }
    if (!art.reportOut.empty()) {
        obs::RunReport run_report;
        run_report.run = "quickstart.daxpy";
        run_report.configHash =
            obs::fnv1aHash("quickstart.daxpy|n=64");
        run_report.cycles = report.cycles;
        run_report.extra = {
            {"power_mw", report.power.totalMw()},
            {"spm_reads",
             static_cast<double>(tb.spm.readCount())},
            {"spm_writes",
             static_cast<double>(tb.spm.writeCount())},
        };
        run_report.statsJson = sim.stats().dumpJsonString();
        drive::recordRun(art, std::move(run_report));
        std::printf("run report:    %s\n", art.reportOut.c_str());
    }
    return ok ? 0 : 1;
}
