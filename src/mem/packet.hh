/**
 * @file
 * Packet: the unit of communication on memory ports.
 *
 * Modeled on gem5's Packet: a command, an address/size, a data
 * buffer, and a stack of sender states that interconnect layers push
 * on the way down and pop on the way back up to route responses.
 */

#ifndef SALAM_MEM_PACKET_HH
#define SALAM_MEM_PACKET_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace salam::mem
{

/** Packet commands. */
enum class MemCmd
{
    ReadReq,
    WriteReq,
    ReadResp,
    WriteResp,
};

inline bool
isRequest(MemCmd cmd)
{
    return cmd == MemCmd::ReadReq || cmd == MemCmd::WriteReq;
}

inline bool
isRead(MemCmd cmd)
{
    return cmd == MemCmd::ReadReq || cmd == MemCmd::ReadResp;
}

/** Base class for per-hop routing state carried by a packet. */
struct SenderState
{
    virtual ~SenderState() = default;
};

/**
 * Service annotations, set by memory components while a request is
 * serviced and carried back on the response. The original requester
 * (CommInterface) copies them to the issuing DynInst, where the
 * profiler turns them into execution-cause attributions. Flags
 * accumulate — a request can both miss in a cache and queue behind
 * the DRAM bus; the profiler applies a most-specific-wins precedence.
 */
enum ServiceFlags : unsigned
{
    /** Missed in a cache along the way (incl. MSHR coalescing). */
    svcCacheMiss = 1u << 0,

    /** Deferred at least one cycle by an SPM bank conflict. */
    svcBankConflict = 1u << 1,

    /** Waited in a queue (ports exhausted, bus busy, blocked send). */
    svcQueued = 1u << 2,

    /** Serialized behind external (e.g. DMA) traffic. */
    svcDmaWait = 1u << 3,

    /** Waited for a bus data channel occupied by another burst. */
    svcBusArbitration = 1u << 4,

    /** Refused at least once for exhausted outstanding credits. */
    svcCreditStall = 1u << 5,
};

/**
 * A memory request/response in flight. Payloads of up to
 * inlineBytes (every scalar load/store) live inside the packet; DMA
 * chunks and cache lines use a heap buffer.
 */
class Packet
{
  public:
    static constexpr unsigned inlineBytes = 8;

    Packet(MemCmd cmd, std::uint64_t addr, unsigned size)
    {
        reset(cmd, addr, size);
    }

    Packet(const Packet &) = delete;
    Packet &operator=(const Packet &) = delete;

    /**
     * Re-initialise a recycled packet as a fresh request: the same
     * state a newly constructed Packet(cmd, addr, size) has, keeping
     * only the heap buffer's capacity.
     */
    void
    reset(MemCmd cmd, std::uint64_t addr, unsigned size)
    {
        _cmd = cmd;
        _addr = addr;
        _size = size;
        _hasData = mem::isRead(cmd) || cmd == MemCmd::WriteReq;
        if (_hasData && size > inlineBytes)
            _heapData.assign(size, 0);
        else
            _heapData.clear();
        _inlineData = 0;
        senderStack.clear();
        context = nullptr;
        burstBeats = 1;
        beatBytes = 0;
        firstBeat = true;
        lastBeat = true;
        id = 0;
        serviceFlags = 0;
        error = false;
    }

    MemCmd cmd() const { return _cmd; }

    std::uint64_t addr() const { return _addr; }

    unsigned size() const { return _size; }

    bool isRead() const { return mem::isRead(_cmd); }

    bool isWrite() const { return !mem::isRead(_cmd); }

    bool isRequest() const { return mem::isRequest(_cmd); }

    bool isResponse() const { return !mem::isRequest(_cmd); }

    /** Turn this request into the corresponding response in place. */
    void
    makeResponse()
    {
        SALAM_ASSERT(isRequest());
        _cmd = (_cmd == MemCmd::ReadReq) ? MemCmd::ReadResp
                                         : MemCmd::WriteResp;
    }

    /**
     * Turn this request into an error response: the access could not
     * be decoded (out-of-range or misaligned MMIO). Read payloads are
     * zeroed so a requester that ignores the flag sees deterministic
     * data rather than stale buffer contents.
     */
    void
    makeErrorResponse()
    {
        makeResponse();
        error = true;
        if (_hasData)
            std::memset(data(), 0, _size);
    }

    std::uint8_t *
    data()
    {
        return _size <= inlineBytes
            ? reinterpret_cast<std::uint8_t *>(&_inlineData)
            : _heapData.data();
    }

    const std::uint8_t *
    data() const
    {
        return _size <= inlineBytes
            ? reinterpret_cast<const std::uint8_t *>(&_inlineData)
            : _heapData.data();
    }

    void
    setData(const void *src, unsigned bytes)
    {
        SALAM_ASSERT(bytes <= _size);
        std::memcpy(data(), src, bytes);
    }

    void
    copyData(void *dst, unsigned bytes) const
    {
        SALAM_ASSERT(bytes <= _size);
        std::memcpy(dst, data(), bytes);
    }

    /** Push routing state (interconnect request path). */
    void
    pushSenderState(std::unique_ptr<SenderState> state)
    {
        senderStack.push_back(std::move(state));
    }

    /** Pop routing state (interconnect response path). */
    std::unique_ptr<SenderState>
    popSenderState()
    {
        SALAM_ASSERT(!senderStack.empty());
        auto state = std::move(senderStack.back());
        senderStack.pop_back();
        return state;
    }

    bool hasSenderState() const { return !senderStack.empty(); }

    /**
     * Record the burst shape a finite-width data channel gave this
     * packet: ceil(size / beat width) beats of @p beat_bytes each.
     */
    void
    setBurst(unsigned beats, unsigned beat_bytes)
    {
        burstBeats = beats > 0 ? beats : 1;
        beatBytes = beat_bytes;
    }

    /** Opaque requester context (owned by the original requester). */
    void *context = nullptr;

    /**
     * Data-channel beats this packet occupies on a burst-capable
     * interconnect (1 on fabrics that move packets whole).
     */
    unsigned burstBeats = 1;

    /** Beat width that produced burstBeats; 0 = never burstified. */
    unsigned beatBytes = 0;

    /**
     * First/last packet of a logical burst train (e.g. the chunks of
     * one DMA transfer). Single-packet transactions are both.
     */
    bool firstBeat = true;
    bool lastBeat = true;

    /** Monotonic id for debugging/tracing. */
    std::uint64_t id = 0;

    /** ServiceFlags accumulated while this request was serviced. */
    unsigned serviceFlags = 0;

    /** Set on responses that failed to decode (bad address/size). */
    bool error = false;

  private:
    MemCmd _cmd;
    std::uint64_t _addr;
    unsigned _size;
    /** The packet carries a payload (reads, write requests). */
    bool _hasData;
    /** Payload storage when _size <= inlineBytes. */
    std::uint64_t _inlineData;
    /** Payload storage when _size > inlineBytes. */
    std::vector<std::uint8_t> _heapData;
    std::vector<std::unique_ptr<SenderState>> senderStack;
};

using PacketPtr = Packet *;

/** Inclusive-exclusive address range [start, end). */
struct AddrRange
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;

    bool contains(std::uint64_t addr) const
    { return addr >= start && addr < end; }

    bool
    contains(std::uint64_t addr, unsigned size) const
    {
        return addr >= start && addr + size <= end;
    }

    std::uint64_t size() const { return end - start; }

    bool
    overlaps(const AddrRange &o) const
    {
        return start < o.end && o.start < end;
    }
};

} // namespace salam::mem

#endif // SALAM_MEM_PACKET_HH
