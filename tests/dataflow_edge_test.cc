/**
 * @file
 * Edge-case coverage for the verifier's CFG reconstruction and the
 * dataflow walk built on it: instructions unreachable from the region
 * entry, single-block self-loop bodies (head == latch), loops whose
 * back edge targets a block other than the region entry, and the
 * AbsMachine's store-clobber check against a brute-force interval
 * model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "asm/assembler.hh"
#include "common/random.hh"
#include "verifier/cfg.hh"
#include "verifier/dataflow.hh"
#include "verifier/depcheck.hh"
#include "verifier/range.hh"
#include "verifier/verifier.hh"
#include "workloads/range_stress.hh"

namespace liquid
{
namespace
{

RegionCfg
regionFor(const Program &prog, const char *label = "fn")
{
    return RegionCfg::build(prog, prog.labelIndex(label));
}

TEST(DataflowEdge, UnreachableInstructionsStayOutsideTheRegion)
{
    // The movs after the ret are dead text: between the region's exit
    // and main, reachable from neither.
    const Program prog = assemble(R"(
        fn:
            mov r0, #1
            ret
            mov r0, #99
            mov r1, #98
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    const int dead = prog.labelIndex("fn") + 2;
    EXPECT_FALSE(cfg.contains(dead));
    EXPECT_EQ(cfg.blockOf(dead), -1);
    EXPECT_TRUE(cfg.contains(prog.labelIndex("fn")));
    EXPECT_FALSE(cfg.contains(prog.labelIndex("main")));
    for (const int i : cfg.instructions())
        EXPECT_NE(i, dead);

    // The skipped write is invisible to the walk: the region verifies
    // as a plain straight-line body.
    VerifyOptions opts;
    const RegionReport r =
        verifyRegion(prog, prog.labelIndex("fn"), opts);
    EXPECT_EQ(r.verdict, Severity::Ok);
}

TEST(DataflowEdge, SelfLoopBodyHasHeadEqualLatch)
{
    // The whole loop is one block whose terminator branches to its own
    // first instruction: head and latch coincide.
    const Program prog = assemble(R"(
        .words sl_src 1 2 3 4 5 6 7 8
        .data sl_dst 32
        fn:
            mov r0, #0
        top:
            ldw r1, [sl_src + r0]
            stw [sl_dst + r0], r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    ASSERT_EQ(cfg.loops().size(), 1u);
    const CfgLoop &loop = cfg.loops()[0];
    EXPECT_EQ(loop.headBlock, loop.latchBlock);
    const BasicBlock &body = cfg.blocks()[loop.headBlock];
    EXPECT_EQ(body.last, loop.backedgeIndex);
    // The self-loop block is its own predecessor and successor.
    EXPECT_NE(std::find(body.succs.begin(), body.succs.end(),
                        loop.headBlock),
              body.succs.end());
    EXPECT_NE(std::find(body.preds.begin(), body.preds.end(),
                        loop.headBlock),
              body.preds.end());

    // Depcheck walks the same shape and still resolves every address.
    const DepcheckResult dep =
        analyzeDeps(prog, prog.labelIndex("fn"), cfg);
    EXPECT_TRUE(dep.analyzed);
    EXPECT_TRUE(dep.resolved);
    EXPECT_EQ(dep.loopsAnalyzed, 1u);
}

TEST(DataflowEdge, BackEdgeTargetNeedNotBeTheEntryBlock)
{
    // Entry block (mov/mov) falls into the loop head: the back edge
    // targets block 1, not block 0.
    const Program prog = assemble(R"(
        .words be_src 1 2 3 4 5 6 7 8
        .data be_dst 32
        fn:
            mov r0, #0
            mov r2, #0
        top:
            ldw r1, [be_src + r0]
            add r2, r2, r1
            add r0, r0, #1
            cmp r0, #8
            blt top
            stw [be_dst], r2
            ret
        main:
            bl.simd fn
            halt
    )");
    const RegionCfg cfg = regionFor(prog);

    ASSERT_EQ(cfg.loops().size(), 1u);
    const CfgLoop &loop = cfg.loops()[0];
    EXPECT_NE(loop.headBlock,
              cfg.blockOf(prog.labelIndex("fn")));
    EXPECT_EQ(cfg.blocks()[loop.headBlock].first,
              prog.labelIndex("top"));
    // The head has two predecessors: the entry block and the latch.
    EXPECT_EQ(cfg.blocks()[loop.headBlock].preds.size(), 2u);
}

TEST(DataflowEdge, MachineTracksConstantsThroughConditionalWrites)
{
    // Direct AbsMachine exercise: a decidable conditional write stays
    // Known, an undecidable one drops the destination to Top.
    const Program prog = assemble(R"(
        .words df_ro 7 8 9
        .data df_rw 12
        fn:
            mov r0, #5
            cmp r0, #3
            movgt r1, #11
            ldw r2, [df_rw]
            cmp r2, #0
            moveq r1, #22
            ret
        main:
            bl.simd fn
            halt
    )");
    AbsMachine m(prog);
    Taken taken = Taken::Unknown;
    const int base = prog.labelIndex("fn");
    for (int i = 0; i < 6; ++i)
        m.step(prog.code()[base + i], base + i, taken);

    // After movgt with flags from cmp #5,#3: r1 is Known(11). After
    // the cmp on the writable-memory load the flags are unknown, so
    // moveq forces r1 to Top.
    EXPECT_FALSE(m.flagsKnown());
    EXPECT_FALSE(m.reg(prog.code()[base + 2].dst).known);
}

TEST(DataflowEdge, ReadOnlyLoadClobberedByRegionStoreGoesTop)
{
    // A store through an unknown address poisons later constant-pool
    // loads: the machine must not keep quoting the initial image.
    const Program prog = assemble(R"(
        .rowords cp 41 42 43
        .data wild 16
        fn:
            ldw r1, [cp]
            stw [wild + r3], r1
            ldw r2, [cp + #1]
            ret
        main:
            bl.simd fn
            halt
    )");
    AbsMachine m(prog);
    Taken taken = Taken::Unknown;
    const int base = prog.labelIndex("fn");

    AbsRetire first = m.step(prog.code()[base], base, taken);
    EXPECT_TRUE(first.value.known);
    EXPECT_EQ(first.value.value, 41u);

    m.step(prog.code()[base + 1], base + 1, taken);  // unknown store
    AbsRetire second = m.step(prog.code()[base + 2], base + 2, taken);
    EXPECT_FALSE(second.value.known);
}

/** Entry facts that pin every writable cell to one known value. */
class AllCellsKnown : public EntryFacts
{
  public:
    static constexpr Word cellValue = 0x5A5A5A5A;

    bool
    entryReg(RegId, Word &, std::string &) const override
    {
        return false;
    }

    bool
    readCell(Addr, unsigned, bool, Word &value,
             std::string &fact) const override
    {
        value = cellValue;
        fact = "every cell";
        return true;
    }
};

/**
 * Drives one AbsMachine with loads and stores at arbitrary byte
 * addresses and checks each load against a brute-force model: a load
 * is clobbered iff some earlier store's bytes intersect its own
 * (64-bit interval test); unclobbered read-only loads quote the
 * initial image, other unclobbered loads the entry fact, if any.
 */
class ClobberHarness
{
  public:
    explicit ClobberHarness(const EntryFacts *facts)
        : prog_(assemble(R"(
              .rowords cl_ro 0x11223344 0x55667788 0x99AABBCC
              .rowords cl_ro2 0xDDEEFF00 0x01020304 0x0A0B0C0D
              fn:
                  ldb r1, [cl_ro]
                  ldh r1, [cl_ro]
                  ldw r1, [cl_ro]
                  stb [cl_ro], r2
                  sth [cl_ro], r2
                  stw [cl_ro], r2
                  ret
              main:
                  bl.simd fn
                  halt
          )")),
          facts_(facts), machine_(prog_, facts)
    {
    }

    Addr ro() const { return prog_.symbol("cl_ro"); }

    void
    store(std::uint64_t addr, unsigned size)
    {
        step(addr, size, true);
        stores_.push_back({addr, size});
    }

    /** Load and compare; returns whether the machine knew the value. */
    bool
    load(std::uint64_t addr, unsigned size)
    {
        const AbsRetire ri = step(addr, size, false);
        const auto ea = static_cast<Addr>(addr);
        bool clobbered = false;
        for (const auto &[s, n] : stores_)
            clobbered = clobbered || (s < addr + size && addr < s + n);
        AbsVal want;
        Word raw = 0;
        if (!clobbered && prog_.isReadOnly(ea) &&
            prog_.readInitialElem(ea, size, false, raw))
            want = AbsVal::of(raw);
        else if (!clobbered && facts_ != nullptr)
            want = AbsVal::of(AllCellsKnown::cellValue);
        EXPECT_EQ(ri.value.known, want.known)
            << "load 0x" << std::hex << addr << std::dec << " size "
            << size;
        if (ri.value.known && want.known) {
            EXPECT_EQ(ri.value.value, want.value)
                << "load 0x" << std::hex << addr << std::dec << " size "
                << size;
        }
        return ri.value.known;
    }

    std::uint64_t probes() const { return machine_.clobberProbes(); }

  private:
    AbsRetire
    step(std::uint64_t addr, unsigned size, bool is_store)
    {
        const int fn = prog_.labelIndex("fn");
        const unsigned slot = (is_store ? 3u : 0u) + (size == 1   ? 0u
                                                      : size == 2 ? 1u
                                                                  : 2u);
        Inst inst = prog_.code()[static_cast<std::size_t>(fn) + slot];
        inst.mem.base = static_cast<Addr>(addr);
        Taken taken = Taken::No;
        return machine_.step(inst, fn, taken);
    }

    Program prog_;
    const EntryFacts *facts_;
    AbsMachine machine_;
    std::vector<std::pair<std::uint64_t, unsigned>> stores_;
};

TEST(DataflowEdge, ClobberCheckMatchesBruteForceOnReadOnlyWords)
{
    ClobberHarness h(nullptr);
    const std::uint64_t r = h.ro();
    EXPECT_TRUE(h.load(r, 4));

    // A byte store inside word 0 clobbers only the loads covering it.
    h.store(r + 1, 1);
    EXPECT_FALSE(h.load(r, 4));
    EXPECT_TRUE(h.load(r, 1));
    EXPECT_FALSE(h.load(r + 1, 1));
    EXPECT_TRUE(h.load(r + 2, 2));

    // A halfword straddling words 1 and 2 clobbers both words.
    h.store(r + 7, 2);
    EXPECT_FALSE(h.load(r + 4, 4));
    EXPECT_FALSE(h.load(r + 8, 4));
    EXPECT_TRUE(h.load(r + 9, 1));
    EXPECT_TRUE(h.load(r + 4, 2));

    // Repeated stores to one address: the widest one decides.
    h.store(r + 12, 1);
    h.store(r + 12, 1);
    EXPECT_TRUE(h.load(r + 13, 1));
    h.store(r + 12, 4);
    h.store(r + 12, 1);
    EXPECT_FALSE(h.load(r + 15, 1));
    EXPECT_TRUE(h.load(r + 16, 4));

    // A store that overlaps only the tail of a later load.
    h.store(r + 22, 2);
    EXPECT_FALSE(h.load(r + 20, 4));
    EXPECT_TRUE(h.load(r + 19, 1));
    EXPECT_TRUE(h.load(r + 18, 2));
}

TEST(DataflowEdge, ClobberCheckMatchesBruteForceOnRandomAccesses)
{
    for (const bool withFacts : {false, true}) {
        const AllCellsKnown facts;
        ClobberHarness h(withFacts ? &facts : nullptr);
        Rng rng(withFacts ? 0xC10BBull : 0xC10BAull);
        const std::uint64_t r = h.ro();
        for (unsigned i = 0; i < 400; ++i) {
            const std::uint64_t addr =
                r - 4 + static_cast<std::uint64_t>(rng.range(0, 31));
            const unsigned size = 1u << rng.range(0, 2);
            if (rng.chance(0.15))
                h.store(addr, size);
            else
                h.load(addr, size);
        }
    }
}

TEST(DataflowEdge, StoreEndingAt4GiBClobbersItsOwnCell)
{
    // `addr + size` wraps to 0 in 32 bits for the last word of the
    // address space; the check must still see the store.
    const AllCellsKnown facts;
    ClobberHarness h(&facts);
    EXPECT_TRUE(h.load(0xFFFFFFFCull, 4));
    h.store(0xFFFFFFFCull, 4);
    EXPECT_FALSE(h.load(0xFFFFFFFCull, 4));
    EXPECT_FALSE(h.load(0xFFFFFFFEull, 2));
    EXPECT_FALSE(h.load(0xFFFFFFFFull, 1));
    // No wraparound the other way: low memory stays untouched.
    EXPECT_TRUE(h.load(0, 4));
    EXPECT_TRUE(h.load(0xFFFFFFF8ull, 4));
}

/**
 * Work-counter tripwire: rs_pair_budget walks 5888 iterations of
 * 9 loads and 8 stores with range facts on, so every load consults
 * the clobber check. The hashed store set probes at most
 * maxStoreSize + size - 1 starts per load: 741 762 probes over the
 * rule-mirror and depcheck walks at width 16. The bound is about twice
 * that; a linear scan over earlier stores costs ~1.2e9 comparisons
 * per walk.
 */
constexpr std::uint64_t pairBudgetProbeBound = 1500000;

TEST(DataflowEdge, PairBudgetClobberProbesStayNearLinear)
{
    const RangeStressCase *stress = nullptr;
    for (const RangeStressCase &c : rangeStressCases()) {
        if (std::string(c.name) == "rs_pair_budget")
            stress = &c;
    }
    ASSERT_NE(stress, nullptr);
    const Program prog = assemble(stress->src);
    const ProgramRanges ranges = solveProgramRanges(prog);
    ASSERT_TRUE(ranges.sound);
    VerifyOptions opts;
    opts.config.simdWidth = 16;
    opts.ranges = &ranges;
    const ProgramReport rep = verifyProgram(prog, opts);
    ASSERT_EQ(rep.regions.size(), 1u);
    EXPECT_LT(rep.regions[0].clobberProbes, pairBudgetProbeBound)
        << rep.regions[0].clobberProbes;
}

} // namespace
} // namespace liquid
