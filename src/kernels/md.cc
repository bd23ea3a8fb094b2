/**
 * @file
 * Molecular dynamics kernels (double precision): MD-KNN and MD-Grid,
 * both computing Lennard-Jones forces — the FP-heaviest kernels in
 * the suite, which drive the functional-unit-reuse validation.
 *
 * MD-KNN layout: x,y,z [atoms], NL [atoms*neighbours] i64,
 *                fx,fy,fz [atoms].
 * MD-Grid layout: nPoints [b^3] i64, position [b^3*density*3],
 *                 force [b^3*density*3].
 */

#include <cmath>
#include <sstream>
#include <vector>

#include "loop_util.hh"
#include "machsuite.hh"

namespace salam::kernels
{

using namespace salam::ir;

namespace
{

constexpr double lj1 = 1.5;
constexpr double lj2 = 2.0;

class MdKnnKernel : public Kernel
{
  public:
    MdKnnKernel(unsigned atoms, unsigned neighbours, unsigned unroll)
        : atoms(atoms), nl(neighbours), unroll(unroll)
    {}

    std::string name() const override { return "md-knn"; }

    std::string
    key() const override
    {
        return formatKey({{"a", atoms}, {"nl", nl}, {"u", unroll}});
    }

    std::uint64_t
    footprintBytes() const override
    {
        return 8ull * (6 * atoms + atoms * nl);
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f64 = ctx.doubleType();
        const Type *i64 = ctx.i64();
        Function *fn = b.createFunction("md_knn", ctx.voidType());
        Argument *ax = fn->addArgument(ctx.pointerTo(f64), "x");
        Argument *ay = fn->addArgument(ctx.pointerTo(f64), "y");
        Argument *az = fn->addArgument(ctx.pointerTo(f64), "z");
        Argument *anl = fn->addArgument(ctx.pointerTo(i64), "NL");
        Argument *afx = fn->addArgument(ctx.pointerTo(f64), "fx");
        Argument *afy = fn->addArgument(ctx.pointerTo(f64), "fy");
        Argument *afz = fn->addArgument(ctx.pointerTo(f64), "fz");

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        OuterLoop li(b, "atom", 0, atoms);
        Value *ix = b.load(b.gep(f64, ax, li.iv(), "p.ix"), "ix");
        Value *iy = b.load(b.gep(f64, ay, li.iv(), "p.iy"), "iy");
        Value *iz = b.load(b.gep(f64, az, li.iv(), "p.iz"), "iz");
        Value *nl_base = b.mul(
            li.iv(), b.constI64(static_cast<std::int64_t>(nl)),
            "nl.base");

        InnerLoop lj(b, "neigh", 0, nl);
        PhiInst *fx = lj.accumulator(f64, "fx.acc");
        PhiInst *fy = lj.accumulator(f64, "fy.acc");
        PhiInst *fz = lj.accumulator(f64, "fz.acc");
        Value *nl_idx = b.add(nl_base, lj.iv(), "nl.idx");
        Value *n = b.load(b.gep(i64, anl, nl_idx, "p.n"), "n");
        Value *jx = b.load(b.gep(f64, ax, n, "p.jx"), "jx");
        Value *jy = b.load(b.gep(f64, ay, n, "p.jy"), "jy");
        Value *jz = b.load(b.gep(f64, az, n, "p.jz"), "jz");
        Value *dx = b.fsub(ix, jx, "dx");
        Value *dy = b.fsub(iy, jy, "dy");
        Value *dz = b.fsub(iz, jz, "dz");
        Value *r2 = b.fadd(
            b.fadd(b.fmul(dx, dx, "dx2"), b.fmul(dy, dy, "dy2"),
                   "dxy"),
            b.fmul(dz, dz, "dz2"), "r2");
        Value *r2inv =
            b.fdiv(b.constDouble(1.0), r2, "r2inv");
        Value *r6inv = b.fmul(b.fmul(r2inv, r2inv, "r4inv"),
                              r2inv, "r6inv");
        Value *pot = b.fmul(
            r6inv,
            b.fsub(b.fmul(b.constDouble(lj1), r6inv, "lj1r6"),
                   b.constDouble(lj2), "potdiff"),
            "potential");
        Value *force = b.fmul(r2inv, pot, "force");
        Value *fx_next =
            b.fadd(fx, b.fmul(force, dx, "fxd"), "fx.next");
        Value *fy_next =
            b.fadd(fy, b.fmul(force, dy, "fyd"), "fy.next");
        Value *fz_next =
            b.fadd(fz, b.fmul(force, dz, "fzd"), "fz.next");
        lj.close({{fx, fx_next}, {fy, fy_next}, {fz, fz_next}},
                 {b.constDouble(0.0), b.constDouble(0.0),
                  b.constDouble(0.0)});

        b.store(fx_next, b.gep(f64, afx, li.iv(), "p.fx"));
        b.store(fy_next, b.gep(f64, afy, li.iv(), "p.fy"));
        b.store(fz_next, b.gep(f64, afz, li.iv(), "p.fz"));
        li.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(61);
        std::uint64_t x = base, y = x + 8ull * atoms,
                      z = y + 8ull * atoms;
        std::uint64_t nlp = z + 8ull * atoms;
        for (unsigned i = 0; i < atoms; ++i) {
            mem.writeF64(x + 8ull * i, rng.nextDouble() * 10.0);
            mem.writeF64(y + 8ull * i, rng.nextDouble() * 10.0);
            mem.writeF64(z + 8ull * i, rng.nextDouble() * 10.0);
        }
        for (unsigned i = 0; i < atoms; ++i) {
            for (unsigned j = 0; j < nl; ++j) {
                std::uint64_t other;
                do {
                    other = rng.nextBelow(atoms);
                } while (other == i);
                mem.writeI64(nlp + 8ull * (i * nl + j),
                             static_cast<std::int64_t>(other));
            }
        }
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t x = base, y = x + 8ull * atoms,
                      z = y + 8ull * atoms;
        std::uint64_t nlp = z + 8ull * atoms;
        std::uint64_t fx = nlp + 8ull * atoms * nl;
        std::uint64_t fy = fx + 8ull * atoms;
        std::uint64_t fz = fy + 8ull * atoms;
        return {RuntimeValue::fromPointer(x),
                RuntimeValue::fromPointer(y),
                RuntimeValue::fromPointer(z),
                RuntimeValue::fromPointer(nlp),
                RuntimeValue::fromPointer(fx),
                RuntimeValue::fromPointer(fy),
                RuntimeValue::fromPointer(fz)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t x = base, y = x + 8ull * atoms,
                      z = y + 8ull * atoms;
        std::uint64_t nlp = z + 8ull * atoms;
        std::uint64_t fx = nlp + 8ull * atoms * nl;
        std::uint64_t fy = fx + 8ull * atoms;
        std::uint64_t fz = fy + 8ull * atoms;
        for (unsigned i = 0; i < atoms; ++i) {
            double ix = mem.readF64(x + 8ull * i);
            double iy = mem.readF64(y + 8ull * i);
            double iz = mem.readF64(z + 8ull * i);
            double efx = 0, efy = 0, efz = 0;
            for (unsigned j = 0; j < nl; ++j) {
                auto n = static_cast<std::uint64_t>(
                    mem.readI64(nlp + 8ull * (i * nl + j)));
                double dx = ix - mem.readF64(x + 8ull * n);
                double dy = iy - mem.readF64(y + 8ull * n);
                double dz = iz - mem.readF64(z + 8ull * n);
                double r2 = dx * dx + dy * dy + dz * dz;
                double r2inv = 1.0 / r2;
                double r6inv = r2inv * r2inv * r2inv;
                double pot = r6inv * (lj1 * r6inv - lj2);
                double force = r2inv * pot;
                efx += force * dx;
                efy += force * dy;
                efz += force * dz;
            }
            double tol = 1e-9;
            if (std::abs(mem.readF64(fx + 8ull * i) - efx) > tol ||
                std::abs(mem.readF64(fy + 8ull * i) - efy) > tol ||
                std::abs(mem.readF64(fz + 8ull * i) - efz) > tol) {
                std::ostringstream os;
                os << "md-knn mismatch at atom " << i;
                return os.str();
            }
        }
        return "";
    }

    std::vector<opt::PassSpec>
    defaultPasses() const override
    {
        std::vector<opt::PassSpec> passes;
        if (unroll > 1) {
            passes.push_back(
                opt::PassSpec::unroll("neigh", unroll));
            passes.push_back(opt::PassSpec::balance());
        }
        passes.push_back(opt::PassSpec::cleanup());
        return passes;
    }

  private:
    unsigned atoms, nl, unroll;
};

/**
 * MD-Grid: forces between particles of a block and its (up to 27)
 * neighbouring blocks in a 3D domain. Per-block populations come
 * from memory, so inner trip counts are data-dependent.
 */
class MdGridKernel : public Kernel
{
  public:
    MdGridKernel(unsigned side, unsigned density)
        : side(side), density(density)
    {}

    std::string name() const override { return "md-grid"; }

    std::string
    key() const override
    {
        return formatKey({{"s", side}, {"d", density}});
    }

    unsigned numBlocks() const { return side * side * side; }

    std::uint64_t
    footprintBytes() const override
    {
        return 8ull * numBlocks() +
               8ull * 3 * numBlocks() * density * 2;
    }

    ir::Function *
    build(ir::IRBuilder &b) const override
    {
        Context &ctx = b.context();
        const Type *f64 = ctx.doubleType();
        const Type *i64 = ctx.i64();
        Function *fn = b.createFunction("md_grid", ctx.voidType());
        Argument *np = fn->addArgument(ctx.pointerTo(i64),
                                       "nPoints");
        Argument *pos = fn->addArgument(ctx.pointerTo(f64),
                                        "position");
        Argument *frc = fn->addArgument(ctx.pointerTo(f64),
                                        "force");

        auto s = static_cast<std::int64_t>(side);
        auto dens = static_cast<std::int64_t>(density);

        BasicBlock *entry = b.createBlock("entry");
        b.setInsertPoint(entry);

        // Iterate home blocks (flat index) and neighbour offsets.
        OuterLoop lb(b, "block", 0, numBlocks());
        Value *bx = b.sdiv(lb.iv(), b.constI64(s * s), "bx");
        Value *brem = b.srem(lb.iv(), b.constI64(s * s), "brem");
        Value *by = b.sdiv(brem, b.constI64(s), "by");
        Value *bz = b.srem(brem, b.constI64(s), "bz");
        Value *home_n = b.load(b.gep(i64, np, lb.iv(), "p.hn"),
                               "home.n");
        Value *home_base = b.mul(lb.iv(), b.constI64(dens),
                                 "home.base");

        OuterLoop ln(b, "neighbour", 0, 27);
        Value *ox = b.sub(b.sdiv(ln.iv(), b.constI64(9), "oxd"),
                          b.constI64(1), "ox");
        Value *orem = b.srem(ln.iv(), b.constI64(9), "orem");
        Value *oy = b.sub(b.sdiv(orem, b.constI64(3), "oyd"),
                          b.constI64(1), "oy");
        Value *oz = b.sub(b.srem(orem, b.constI64(3), "ozr"),
                          b.constI64(1), "oz");
        Value *nx = b.add(bx, ox, "nx");
        Value *ny = b.add(by, oy, "ny");
        Value *nz = b.add(bz, oz, "nz");

        // Bounds check: all of nx/ny/nz in [0, side).
        auto in_range = [&](Value *v, const char *nm) {
            Value *ge = b.icmp(Predicate::SGE, v, b.constI64(0),
                               std::string(nm) + ".ge");
            Value *lt = b.icmp(Predicate::SLT, v, b.constI64(s),
                               std::string(nm) + ".lt");
            return b.bAnd(ge, lt, std::string(nm) + ".ok");
        };
        Value *ok = b.bAnd(
            b.bAnd(in_range(nx, "nx"), in_range(ny, "ny"), "oka"),
            in_range(nz, "nz"), "ok");

        BasicBlock *compute = b.createBlock("compute");
        BasicBlock *skip = b.createBlock("skip");
        b.condBr(ok, compute, skip);

        b.setInsertPoint(compute);
        Value *nb_idx = b.add(
            b.add(b.mul(nx, b.constI64(s * s), "nxs"),
                  b.mul(ny, b.constI64(s), "nys"), "nxy"),
            nz, "nb.idx");
        Value *nb_n = b.load(b.gep(i64, np, nb_idx, "p.nn"),
                             "nb.n");
        Value *nb_base = b.mul(nb_idx, b.constI64(dens),
                               "nb.base");

        // Guard against empty home block.
        BasicBlock *home_loop = b.createBlock("home");
        BasicBlock *compute_done = b.createBlock("compute.done");
        Value *has_home = b.icmp(Predicate::SGT, home_n,
                                 b.constI64(0), "has.home");
        BasicBlock *compute_blk = b.insertBlock();
        b.condBr(has_home, home_loop, compute_done);

        b.setInsertPoint(home_loop);
        PhiInst *hp = b.phi(i64, "hp");
        Value *h_idx = b.add(home_base, hp, "h.idx");
        Value *h3 = b.mul(h_idx, b.constI64(3), "h3");
        Value *hx = b.load(b.gep(f64, pos, h3, "p.hx"), "hx");
        Value *hy = b.load(
            b.gep(f64, pos, b.add(h3, b.constI64(1), "h3y"),
                  "p.hy"),
            "hy");
        Value *hz = b.load(
            b.gep(f64, pos, b.add(h3, b.constI64(2), "h3z"),
                  "p.hz"),
            "hz");

        // Inner loop over neighbour particles (may be empty).
        BasicBlock *nb_loop = b.createBlock("nbp");
        BasicBlock *home_tail = b.createBlock("home.tail");
        Value *has_nb = b.icmp(Predicate::SGT, nb_n, b.constI64(0),
                               "has.nb");
        b.condBr(has_nb, nb_loop, home_tail);

        b.setInsertPoint(nb_loop);
        PhiInst *np_iv = b.phi(i64, "np.iv");
        PhiInst *sx = b.phi(f64, "sx");
        PhiInst *sy = b.phi(f64, "sy");
        PhiInst *sz = b.phi(f64, "sz");
        Value *n_idx = b.add(nb_base, np_iv, "n.idx");
        Value *n3 = b.mul(n_idx, b.constI64(3), "n3");
        Value *qx = b.load(b.gep(f64, pos, n3, "p.qx"), "qx");
        Value *qy = b.load(
            b.gep(f64, pos, b.add(n3, b.constI64(1), "n3y"),
                  "p.qy"),
            "qy");
        Value *qz = b.load(
            b.gep(f64, pos, b.add(n3, b.constI64(2), "n3z"),
                  "p.qz"),
            "qz");
        Value *dx = b.fsub(hx, qx, "dx");
        Value *dy = b.fsub(hy, qy, "dy");
        Value *dz = b.fsub(hz, qz, "dz");
        Value *r2 = b.fadd(
            b.fadd(b.fmul(dx, dx, "dx2"), b.fmul(dy, dy, "dy2"),
                   "dxy"),
            b.fmul(dz, dz, "dz2"), "r2");
        // Exclude self-interaction (r2 == 0) with a select.
        Value *r2safe = b.select(
            b.fcmp(Predicate::OEQ, r2, b.constDouble(0.0),
                   "is.self"),
            b.constDouble(1.0), r2, "r2.safe");
        Value *r2inv = b.fdiv(b.constDouble(1.0), r2safe,
                              "r2inv");
        Value *r6inv = b.fmul(b.fmul(r2inv, r2inv, "r4inv"),
                              r2inv, "r6inv");
        Value *pot = b.fmul(
            r6inv,
            b.fsub(b.fmul(b.constDouble(lj1), r6inv, "lj1r6"),
                   b.constDouble(lj2), "potdiff"),
            "pot");
        Value *force_raw = b.fmul(r2inv, pot, "force.raw");
        Value *force = b.select(
            b.fcmp(Predicate::OEQ, r2, b.constDouble(0.0),
                   "self2"),
            b.constDouble(0.0), force_raw, "force");
        Value *sx_next =
            b.fadd(sx, b.fmul(force, dx, "fdx"), "sx.next");
        Value *sy_next =
            b.fadd(sy, b.fmul(force, dy, "fdy"), "sy.next");
        Value *sz_next =
            b.fadd(sz, b.fmul(force, dz, "fdz"), "sz.next");
        Value *np_next = b.add(np_iv, b.constI64(1), "np.next");
        Value *np_cont = b.icmp(Predicate::SLT, np_next, nb_n,
                                "np.cont");
        b.condBr(np_cont, nb_loop, home_tail);
        np_iv->addIncoming(b.constI64(0), home_loop);
        np_iv->addIncoming(np_next, nb_loop);
        sx->addIncoming(b.constDouble(0.0), home_loop);
        sx->addIncoming(sx_next, nb_loop);
        sy->addIncoming(b.constDouble(0.0), home_loop);
        sy->addIncoming(sy_next, nb_loop);
        sz->addIncoming(b.constDouble(0.0), home_loop);
        sz->addIncoming(sz_next, nb_loop);

        b.setInsertPoint(home_tail);
        PhiInst *tx = b.phi(f64, "tx");
        PhiInst *ty = b.phi(f64, "ty");
        PhiInst *tz = b.phi(f64, "tz");
        tx->addIncoming(b.constDouble(0.0), home_loop);
        tx->addIncoming(sx_next, nb_loop);
        ty->addIncoming(b.constDouble(0.0), home_loop);
        ty->addIncoming(sy_next, nb_loop);
        tz->addIncoming(b.constDouble(0.0), home_loop);
        tz->addIncoming(sz_next, nb_loop);

        // Accumulate into force[home particle] (read-modify-write).
        Value *pfx = b.gep(f64, frc, h3, "p.fx");
        Value *pfy = b.gep(f64, frc,
                           b.add(h3, b.constI64(1), "f3y"), "p.fy");
        Value *pfz = b.gep(f64, frc,
                           b.add(h3, b.constI64(2), "f3z"), "p.fz");
        b.store(b.fadd(b.load(pfx, "ofx"), tx, "nfx"), pfx);
        b.store(b.fadd(b.load(pfy, "ofy"), ty, "nfy"), pfy);
        b.store(b.fadd(b.load(pfz, "ofz"), tz, "nfz"), pfz);

        Value *hp_next = b.add(hp, b.constI64(1), "hp.next");
        Value *hp_cont = b.icmp(Predicate::SLT, hp_next, home_n,
                                "hp.cont");
        b.condBr(hp_cont, home_loop, compute_done);
        hp->addIncoming(b.constI64(0), compute_blk);
        hp->addIncoming(hp_next, home_tail);

        b.setInsertPoint(compute_done);
        b.br(skip);

        b.setInsertPoint(skip);
        ln.close();
        lb.close();
        b.ret();
        return fn;
    }

    void
    seed(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        Lcg rng(71);
        std::uint64_t np = base;
        std::uint64_t pos = base + 8ull * numBlocks();
        std::uint64_t frc =
            pos + 8ull * 3 * numBlocks() * density;
        for (unsigned blk = 0; blk < numBlocks(); ++blk) {
            std::int64_t count = 1 + static_cast<std::int64_t>(
                rng.nextBelow(density));
            mem.writeI64(np + 8ull * blk, count);
            for (unsigned p = 0; p < density; ++p) {
                for (unsigned d = 0; d < 3; ++d) {
                    mem.writeF64(
                        pos + 8ull * ((blk * density + p) * 3 + d),
                        rng.nextDouble() * side);
                }
            }
        }
        for (unsigned i = 0; i < 3 * numBlocks() * density; ++i)
            mem.writeF64(frc + 8ull * i, 0.0);
    }

    std::vector<ir::RuntimeValue>
    args(std::uint64_t base) const override
    {
        std::uint64_t pos = base + 8ull * numBlocks();
        std::uint64_t frc =
            pos + 8ull * 3 * numBlocks() * density;
        return {RuntimeValue::fromPointer(base),
                RuntimeValue::fromPointer(pos),
                RuntimeValue::fromPointer(frc)};
    }

    std::string
    check(ir::MemoryAccessor &mem, std::uint64_t base) const override
    {
        std::uint64_t npb = base;
        std::uint64_t pos = base + 8ull * numBlocks();
        std::uint64_t frc =
            pos + 8ull * 3 * numBlocks() * density;
        auto s = static_cast<int>(side);

        std::vector<double> golden(3ull * numBlocks() * density,
                                   0.0);
        auto position = [&](unsigned idx, unsigned d) {
            return mem.readF64(pos + 8ull * (idx * 3 + d));
        };
        for (int bx = 0; bx < s; ++bx)
            for (int by = 0; by < s; ++by)
                for (int bz = 0; bz < s; ++bz) {
                    unsigned blk = static_cast<unsigned>(
                        (bx * s + by) * s + bz);
                    auto home_n = static_cast<unsigned>(
                        mem.readI64(npb + 8ull * blk));
                    for (int ox = -1; ox <= 1; ++ox)
                        for (int oy = -1; oy <= 1; ++oy)
                            for (int oz = -1; oz <= 1; ++oz) {
                                int nx = bx + ox, ny = by + oy,
                                    nz = bz + oz;
                                if (nx < 0 || nx >= s || ny < 0 ||
                                    ny >= s || nz < 0 || nz >= s) {
                                    continue;
                                }
                                unsigned nb =
                                    static_cast<unsigned>(
                                        (nx * s + ny) * s + nz);
                                auto nb_n =
                                    static_cast<unsigned>(
                                        mem.readI64(npb +
                                                    8ull * nb));
                                for (unsigned h = 0; h < home_n;
                                     ++h) {
                                    unsigned hidx =
                                        blk * density + h;
                                    double hx = position(hidx, 0);
                                    double hy = position(hidx, 1);
                                    double hz = position(hidx, 2);
                                    double ax = 0, ay = 0, az = 0;
                                    for (unsigned q = 0; q < nb_n;
                                         ++q) {
                                        unsigned qidx =
                                            nb * density + q;
                                        double dx = hx -
                                            position(qidx, 0);
                                        double dy = hy -
                                            position(qidx, 1);
                                        double dz = hz -
                                            position(qidx, 2);
                                        double r2 = dx * dx +
                                            dy * dy + dz * dz;
                                        if (r2 == 0.0)
                                            continue;
                                        double r2inv = 1.0 / r2;
                                        double r6inv = r2inv *
                                            r2inv * r2inv;
                                        double pot = r6inv *
                                            (lj1 * r6inv - lj2);
                                        double f = r2inv * pot;
                                        ax += f * dx;
                                        ay += f * dy;
                                        az += f * dz;
                                    }
                                    golden[hidx * 3 + 0] += ax;
                                    golden[hidx * 3 + 1] += ay;
                                    golden[hidx * 3 + 2] += az;
                                }
                            }
                }

        for (unsigned i = 0; i < golden.size(); ++i) {
            double got = mem.readF64(frc + 8ull * i);
            if (std::abs(got - golden[i]) > 1e-6) {
                std::ostringstream os;
                os << "md-grid mismatch at slot " << i << ": got "
                   << got << " expected " << golden[i];
                return os.str();
            }
        }
        return "";
    }

  private:
    unsigned side, density;
};

} // namespace

std::unique_ptr<Kernel>
makeMdKnn(unsigned atoms, unsigned neighbours, unsigned unroll)
{
    return std::make_unique<MdKnnKernel>(atoms, neighbours, unroll);
}

std::unique_ptr<Kernel>
makeMdGrid(unsigned block_side, unsigned density)
{
    return std::make_unique<MdGridKernel>(block_side, density);
}

} // namespace salam::kernels
