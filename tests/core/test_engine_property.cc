/**
 * @file
 * Property test: the timed runtime engine must compute exactly what
 * the functional interpreter computes, for randomly generated
 * kernels with mixed arithmetic and memory traffic, across seeds
 * and scheduler configurations.
 */

#include <gtest/gtest.h>

#include "accel_fixture.hh"
#include "mem/backdoor.hh"
#include "random_kernel.hh"

using namespace salam;
using namespace salam::ir;
using salam::test::AccelSystem;
using salam::test::spmBase;
using salam::test::Rng;
using salam::test::randomMemoryKernel;
using salam::test::seedData;
using salam::test::slots;

class EngineProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineProperty, TimedEngineMatchesInterpreter)
{
    Rng build_rng(GetParam());
    Module mod("m");
    IRBuilder b(mod);
    Function *fn = randomMemoryKernel(b, build_rng);

    // Functional reference.
    FlatMemory golden;
    {
        Rng data_rng(GetParam() ^ 0xDA7A);
        seedData(golden, spmBase, data_rng);
        Interpreter interp(golden);
        interp.run(*fn, {RuntimeValue::fromPointer(spmBase)});
    }

    // Timed engine, in both scheduler modes and narrow/wide ports.
    for (bool sequential : {false, true}) {
        for (unsigned ports : {1u, 4u}) {
            core::DeviceConfig dev;
            dev.blockSequentialImport = sequential;
            dev.readPortsPerCycle = ports;
            dev.writePortsPerCycle = ports;
            AccelSystem sys(*fn, dev);
            mem::ScratchpadBackdoor backdoor(sys.bench.spm);
            Rng data_rng(GetParam() ^ 0xDA7A);
            seedData(backdoor, spmBase, data_rng);
            sys.run({RuntimeValue::fromPointer(spmBase)});

            for (unsigned s = 0; s < slots; ++s) {
                EXPECT_EQ(backdoor.readI64(spmBase + 8ull * s),
                          golden.readI64(spmBase + 8ull * s))
                    << "seed " << GetParam() << " slot " << s
                    << " sequential " << sequential << " ports "
                    << ports;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));
