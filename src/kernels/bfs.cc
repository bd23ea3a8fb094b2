/**
 * @file
 * BFS (queue-based), MachSuite bfs/queue: level assignment from a
 * start node over a CSR graph. Every loop bound is data-dependent
 * (frontier size, per-node degree) — the canonical kernel that
 * trace-based pre-RTL models cannot retime across inputs.
 *
 * Layout: edgeBegin[n+1] i64, edges[n*epn] i64, level[n] i64,
 *         queue[n] i64.
 */

#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

constexpr std::int64_t unvisited = -1;

class BfsKernel : public Kernel
{
  public:
    BfsKernel(unsigned nodes, unsigned edges_per_node)
        : n(nodes), epn(edges_per_node)
    {}

    std::string name() const override { return "bfs-queue"; }

    std::string
    key() const override
    {
        return formatKey({{"n", n}, {"e", epn}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 8ull * (n + 1 + n * epn + n + n);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *i64 = ctx.i64();
        Function *fn = b.createFunction("bfs", ctx.voidType());
        Argument *ebegin =
            fn->addArgument(ctx.pointerTo(i64), "edgeBegin");
        Argument *edges =
            fn->addArgument(ctx.pointerTo(i64), "edges");
        Argument *level =
            fn->addArgument(ctx.pointerTo(i64), "level");
        Argument *queue =
            fn->addArgument(ctx.pointerTo(i64), "queue");
        Argument *start = fn->addArgument(i64, "start");

        BasicBlock *entry = b.createBlock("entry");
        BasicBlock *outer = b.createBlock("frontier");
        BasicBlock *edge_head = b.createBlock("edge");
        BasicBlock *visit = b.createBlock("visit");
        BasicBlock *edge_latch = b.createBlock("edge.latch");
        BasicBlock *outer_latch = b.createBlock("frontier.latch");
        BasicBlock *exit = b.createBlock("exit");

        b.setInsertPoint(entry);
        // level[start] = 0; queue[0] = start; head = 0; tail = 1.
        b.store(b.constI64(0), b.gep(i64, level, start, "p.ls"));
        b.store(start, b.gep(i64, queue, b.constI64(0), "p.q0"));
        b.br(outer);

        // while (head < tail)
        b.setInsertPoint(outer);
        PhiInst *head = b.phi(i64, "head");
        PhiInst *tail = b.phi(i64, "tail");
        Value *node =
            b.load(b.gep(i64, queue, head, "p.qn"), "node");
        Value *node_level =
            b.load(b.gep(i64, level, node, "p.ln"), "node.level");
        Value *next_level = b.add(node_level, b.constI64(1),
                                  "next.level");
        Value *e_begin = b.load(b.gep(i64, ebegin, node, "p.eb"),
                                "e.begin");
        Value *node1 = b.add(node, b.constI64(1), "node1");
        Value *e_end =
            b.load(b.gep(i64, ebegin, node1, "p.ee"), "e.end");
        Value *has_edges =
            b.icmp(Predicate::SLT, e_begin, e_end, "has.edges");
        b.condBr(has_edges, edge_head, outer_latch);

        // for (e = begin; e < end; e++)
        b.setInsertPoint(edge_head);
        PhiInst *e = b.phi(i64, "e");
        PhiInst *tail_in = b.phi(i64, "tail.in");
        Value *dst = b.load(b.gep(i64, edges, e, "p.dst"), "dst");
        Value *dst_level =
            b.load(b.gep(i64, level, dst, "p.dl"), "dst.level");
        Value *fresh = b.icmp(Predicate::EQ, dst_level,
                              b.constI64(unvisited), "fresh");
        b.condBr(fresh, visit, edge_latch);

        b.setInsertPoint(visit);
        b.store(next_level, b.gep(i64, level, dst, "p.sl"));
        b.store(dst, b.gep(i64, queue, tail_in, "p.qt"));
        Value *tail_bump =
            b.add(tail_in, b.constI64(1), "tail.bump");
        b.br(edge_latch);

        b.setInsertPoint(edge_latch);
        PhiInst *tail_next = b.phi(i64, "tail.next");
        tail_next->addIncoming(tail_in, edge_head);
        tail_next->addIncoming(tail_bump, visit);
        Value *e_next = b.add(e, b.constI64(1), "e.next");
        Value *e_cont =
            b.icmp(Predicate::SLT, e_next, e_end, "e.cont");
        b.condBr(e_cont, edge_head, outer_latch);
        e->addIncoming(e_begin, outer);
        e->addIncoming(e_next, edge_latch);
        tail_in->addIncoming(tail, outer);
        tail_in->addIncoming(tail_next, edge_latch);

        b.setInsertPoint(outer_latch);
        PhiInst *tail_out = b.phi(i64, "tail.out");
        tail_out->addIncoming(tail, outer);
        tail_out->addIncoming(tail_next, edge_latch);
        Value *head_next =
            b.add(head, b.constI64(1), "head.next");
        Value *more = b.icmp(Predicate::SLT, head_next, tail_out,
                             "more");
        b.condBr(more, outer, exit);
        head->addIncoming(b.constI64(0), entry);
        head->addIncoming(head_next, outer_latch);
        tail->addIncoming(b.constI64(1), entry);
        tail->addIncoming(tail_out, outer_latch);

        b.setInsertPoint(exit);
        b.ret();
        return fn;
    }

    /** Deterministic graph: ring + pseudo-random chords. */
    void
    buildGraph(std::vector<std::vector<std::int64_t>> &adj) const
    {
        adj.assign(n, {});
        Lcg rng(83);
        for (unsigned i = 0; i < n; ++i) {
            adj[i].push_back((i + 1) % n);
            for (unsigned k = 2; k < epn; ++k) {
                if (rng.nextBelow(2) == 0)
                    adj[i].push_back(static_cast<std::int64_t>(
                        rng.nextBelow(n)));
            }
        }
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::vector<std::vector<std::int64_t>> adj;
        buildGraph(adj);
        std::uint64_t ebegin = base;
        std::uint64_t edges = base + 8ull * (n + 1);
        std::uint64_t level = edges + 8ull * n * epn;
        std::uint64_t queue = level + 8ull * n;

        std::int64_t cursor = 0;
        for (unsigned i = 0; i < n; ++i) {
            mem.writeI64(ebegin + 8ull * i, cursor);
            for (std::int64_t dst : adj[i]) {
                mem.writeI64(
                    edges +
                        8ull * static_cast<std::uint64_t>(cursor),
                    dst);
                ++cursor;
            }
        }
        mem.writeI64(ebegin + 8ull * n, cursor);
        for (unsigned i = 0; i < n; ++i) {
            mem.writeI64(level + 8ull * i, unvisited);
            mem.writeI64(queue + 8ull * i, 0);
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t ebegin = base;
        std::uint64_t edges = base + 8ull * (n + 1);
        std::uint64_t level = edges + 8ull * n * epn;
        std::uint64_t queue = level + 8ull * n;
        return {RuntimeValue::fromPointer(ebegin),
                RuntimeValue::fromPointer(edges),
                RuntimeValue::fromPointer(level),
                RuntimeValue::fromPointer(queue),
                RuntimeValue{}}; // start node 0
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::vector<std::vector<std::int64_t>> adj;
        buildGraph(adj);
        std::uint64_t level = base + 8ull * (n + 1) +
            8ull * n * epn;

        // Golden BFS.
        std::vector<std::int64_t> golden(n, unvisited);
        std::vector<unsigned> queue{0};
        golden[0] = 0;
        for (std::size_t h = 0; h < queue.size(); ++h) {
            unsigned node = queue[h];
            for (std::int64_t dst : adj[node]) {
                auto d = static_cast<unsigned>(dst);
                if (golden[d] == unvisited) {
                    golden[d] = golden[node] + 1;
                    queue.push_back(d);
                }
            }
        }
        for (unsigned i = 0; i < n; ++i) {
            std::int64_t got = mem.readI64(level + 8ull * i);
            if (got != golden[i]) {
                std::ostringstream os;
                os << "bfs mismatch at node " << i << ": got "
                   << got << " expected " << golden[i];
                return os.str();
            }
        }
        return "";
    }

  private:
    unsigned n, epn;
};

} // namespace

std::unique_ptr<Kernel>
makeBfs(unsigned nodes, unsigned edges_per_node)
{
    return std::make_unique<BfsKernel>(nodes, edges_per_node);
}

} // namespace salam::kernels
