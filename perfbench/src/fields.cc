/**
 * @file
 * Simulated-statistics fields, their digest and the reference file.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "obs/json.hh"
#include "obs/json_reader.hh"
#include "obs/run_report.hh"

namespace perfbench
{

void
Fields::add(const std::string &name, std::uint64_t value)
{
    list.emplace_back(name, std::to_string(value));
}

void
Fields::addReal(const std::string &name, double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    list.emplace_back(name, text);
}

void
Fields::addEngine(const std::string &prefix,
                  const salam::core::EngineStats &s)
{
#define PERFBENCH_FIELD(f) add(prefix + #f, s.f)
    PERFBENCH_FIELD(totalCycles);
    PERFBENCH_FIELD(newExecCycles);
    PERFBENCH_FIELD(stallCycles);
    PERFBENCH_FIELD(stallLoadOnly);
    PERFBENCH_FIELD(stallStoreOnly);
    PERFBENCH_FIELD(stallComputeOnly);
    PERFBENCH_FIELD(stallLoadCompute);
    PERFBENCH_FIELD(stallStoreCompute);
    PERFBENCH_FIELD(stallLoadStore);
    PERFBENCH_FIELD(stallLoadStoreCompute);
    PERFBENCH_FIELD(stallEmpty);
    PERFBENCH_FIELD(loadsIssued);
    PERFBENCH_FIELD(storesIssued);
    PERFBENCH_FIELD(fpOpsIssued);
    PERFBENCH_FIELD(intOpsIssued);
    PERFBENCH_FIELD(otherOpsIssued);
    PERFBENCH_FIELD(dynamicInstructions);
    PERFBENCH_FIELD(committedInstructions);
    PERFBENCH_FIELD(arenaHits);
    PERFBENCH_FIELD(arenaMisses);
    PERFBENCH_FIELD(cyclesWithLoadIssue);
    PERFBENCH_FIELD(cyclesWithStoreIssue);
    PERFBENCH_FIELD(cyclesWithFpIssue);
    PERFBENCH_FIELD(cyclesWithLoadAndStoreIssue);
    PERFBENCH_FIELD(cyclesWithLoadAndFpIssue);
#undef PERFBENCH_FIELD
    for (std::size_t t = 0; t < s.fuBusyCycleSum.size(); ++t)
        add(prefix + "fuBusyCycleSum" + std::to_string(t),
            s.fuBusyCycleSum[t]);
    addReal(prefix + "fuEnergyPj", s.fuEnergyPj);
    addReal(prefix + "registerReadEnergyPj", s.registerReadEnergyPj);
    addReal(prefix + "registerWriteEnergyPj", s.registerWriteEnergyPj);
}

void
Fields::addPower(const salam::hw::PowerBreakdown &p)
{
    addReal("power.dynamicFuMw", p.dynamicFuMw);
    addReal("power.dynamicRegisterMw", p.dynamicRegisterMw);
    addReal("power.dynamicSpmReadMw", p.dynamicSpmReadMw);
    addReal("power.dynamicSpmWriteMw", p.dynamicSpmWriteMw);
    addReal("power.staticFuMw", p.staticFuMw);
    addReal("power.staticRegisterMw", p.staticRegisterMw);
    addReal("power.staticSpmMw", p.staticSpmMw);
}

namespace
{

std::string
hex(std::uint64_t value)
{
    char text[24];
    std::snprintf(text, sizeof(text), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

} // namespace

std::uint64_t
Fields::digest() const
{
    std::string text;
    for (const auto &[name, value] : list)
        text += name + "=" + value + ";";
    return salam::obs::fnv1aHash(text);
}

void
Counters::add(const Counters &o)
{
    fullSimPoints += o.fullSimPoints;
    dynInsts += o.dynInsts;
    fullSimInsts += o.fullSimInsts;
    replayInsts += o.replayInsts;
    cycles += o.cycles;
    arenaHits += o.arenaHits;
    arenaMisses += o.arenaMisses;
    rqDepthSum += o.rqDepthSum;
    rqSamples += o.rqSamples;
    events += o.events;
    heapDepthMax = std::max(heapDepthMax, o.heapDepthMax);
    spmAccesses += o.spmAccesses;
    fabricStalls += o.fabricStalls;
    fabricForwarded += o.fabricForwarded;
    dmaBytes += o.dmaBytes;
    engineNs += o.engineNs;
    memoryNs += o.memoryNs;
    eventLoopNs += o.eventLoopNs;
}

bool
Reference::load(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        *error = "cannot read reference '" + path + "'";
        return false;
    }
    std::stringstream text;
    text << is.rdbuf();
    try {
        salam::obs::JsonValue root =
            salam::obs::parseJson(text.str());
        for (const auto &[key, rec] : root.at("points").object) {
            Record &out = records[key];
            out.digest = salam::obs::parseConfigHash(
                rec.at("digest").string);
            for (const auto &[name, value] : rec.at("fields").object)
                out.fields[name] = value.string;
        }
    } catch (const std::exception &e) {
        *error = "malformed reference '" + path + "': " + e.what();
        return false;
    }
    if (records.empty()) {
        *error = "reference '" + path + "' records no points";
        return false;
    }
    return true;
}

std::string
Reference::compare(const std::string &key, const Fields &fields,
                   bool subset) const
{
    auto it = records.find(key);
    if (it == records.end())
        return key + ": no reference record";
    const Record &rec = it->second;
    for (const auto &[name, value] : fields.entries()) {
        auto f = rec.fields.find(name);
        if (f == rec.fields.end())
            return key + ": field " + name + " not in reference";
        if (f->second != value)
            return key + ": field " + name + " = " + value +
                ", reference " + f->second;
    }
    if (!subset && fields.entries().size() != rec.fields.size())
        return key + ": " + std::to_string(rec.fields.size()) +
            " reference fields, point produced " +
            std::to_string(fields.entries().size());
    if (!subset && fields.digest() != rec.digest)
        return key + ": digest " + hex(fields.digest()) +
            " != reference " + hex(rec.digest);
    return "";
}

bool
Reference::write(
    const std::string &path,
    const std::vector<std::pair<std::string, Fields>> &records)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"schema\": 1,\n \"points\": {";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &[key, fields] = records[i];
        os << (i ? ",\n" : "\n") << "  \""
           << salam::obs::jsonEscape(key) << "\": {\"digest\": \""
           << hex(fields.digest()) << "\", \"fields\": {";
        const auto &list = fields.entries();
        for (std::size_t f = 0; f < list.size(); ++f) {
            os << (f ? ", \"" : "\"")
               << salam::obs::jsonEscape(list[f].first) << "\": \""
               << list[f].second << "\"";
        }
        os << "}}";
    }
    os << "\n }}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
