/**
 * @file
 * Width-polymorphic verifier (liquid-poly) tests: the differential
 * exactness contract against the concrete verifier, the sabotage
 * self-test, validity-set rendering, and the liquid-verify-v3 JSON
 * back-compat guarantee for v2 consumers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "verifier/cfg.hh"
#include "verifier/poly.hh"
#include "verifier/verifier.hh"
#include "workloads/workload.hh"

#include "random_kernels.hh"

using namespace liquid;

namespace
{

/** Mixed element sizes (ldh vs stw) give overlapping carried pairs at
 *  non-uniform distances — the dep-scan stressor. */
const char *kernMixedSrc =
    "        .data c 128\n"
    "kern_mixed:\n"
    "        mov r0, #0\n"
    "        mov r5, #5\n"
    "top:\n"
    "        ldh r1, [c + r5]\n"
    "        add r2, r1, #1\n"
    "        stw [c + r0], r2\n"
    "        add r5, r5, #1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #16\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_mixed\n"
    "        halt\n";

/** Trip count 24: not a multiple of 16, so the ladder's widest width
 *  aborts while 2/4/8 commit. */
const char *kernTrip24Src =
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18"
    " 19 20 21 22 23 24\n"
    "        .data a 96\n"
    "kern_trip24:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [x + r0]\n"
    "        add r2, r1, #1\n"
    "        stw [a + r0], r2\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #24\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_trip24\n"
    "        halt\n";

/** Period-2 read-only constant stream: the stream check binds N to
 *  the congruence 2 | N. */
const char *kernStreamSrc =
    "        .rowords kco 5 7 5 7 5 7 5 7 5 7 5 7 5 7 5 7\n"
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n"
    "        .data a 64\n"
    "kern_stream:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [kco + r0]\n"
    "        ldw r2, [x + r0]\n"
    "        add r3, r2, r1\n"
    "        stw [a + r0], r3\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #16\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd kern_stream\n"
    "        halt\n";

const char *saxpySrc =
    "        .words x 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18"
    " 19 20 21 22 23 24 25 26 27 28 29 30 31 32\n"
    "        .data a 128\n"
    "saxpy:\n"
    "        mov r0, #0\n"
    "top:\n"
    "        ldw r1, [x + r0]\n"
    "        mul r1, r1, #3\n"
    "        add r1, r1, #100\n"
    "        stw [a + r0], r1\n"
    "        add r0, r0, #1\n"
    "        cmp r0, #32\n"
    "        blt top\n"
    "        ret\n"
    "main:\n"
    "        bl.simd saxpy\n"
    "        halt\n";

std::vector<PolyDiff>
diffSource(const char *src, unsigned sabotage = 0)
{
    const Program prog = assemble(src);
    const TranslatorConfig config;
    return diffProgram(prog, config, sabotage);
}

unsigned
mismatchCount(const std::vector<PolyDiff> &diffs)
{
    unsigned n = 0;
    for (const PolyDiff &d : diffs)
        n += static_cast<unsigned>(d.mismatches.size());
    return n;
}

PolyRegion
analyzeSource(const char *src)
{
    const Program prog = assemble(src);
    const TranslatorConfig config;
    const auto calls = prog.hintedCalls();
    EXPECT_FALSE(calls.empty());
    return analyzePoly(prog, calls.front().target, config);
}

TEST(Poly, MiniKernelsDifferentialClean)
{
    for (const char *src : {kernMixedSrc, kernTrip24Src, kernStreamSrc,
                            saxpySrc})
        EXPECT_EQ(mismatchCount(diffSource(src)), 0u);
}

TEST(Poly, SuiteDifferentialClean)
{
    const TranslatorConfig config;
    for (const auto &wl : makeSuite()) {
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const auto diffs = diffProgram(build.prog, config);
        EXPECT_EQ(mismatchCount(diffs), 0u) << wl->name();
    }
}

TEST(Poly, EverySabotageMutationDiverges)
{
    for (unsigned bit = 0; bit < polySabotageCount; ++bit) {
        unsigned total = 0;
        for (const char *src :
             {kernMixedSrc, kernTrip24Src, kernStreamSrc})
            total += mismatchCount(diffSource(src, 1u << bit));
        EXPECT_GT(total, 0u)
            << "mutation not caught: "
            << polySabotageName(static_cast<PolySabotage>(1u << bit));
    }
}

TEST(Poly, MixedElementSizesAreDepMiscompile)
{
    const PolyRegion r = analyzeSource(kernMixedSrc);
    // Overlapping ldh/stw with distance 1 breaks at every width.
    EXPECT_TRUE(r.validity.okWidths.empty());
    const PolyWidthOutcome o = r.instantiate(8);
    EXPECT_EQ(o.verdict, Severity::Error);
    EXPECT_TRUE(o.depMiscompile);
    EXPECT_EQ(o.reason, AbortReason::MemoryDependence);
    EXPECT_EQ(o.pair.distance, 1u);
    EXPECT_NE(r.validity.summary.find("error for all N"),
              std::string::npos)
        << r.validity.summary;
}

TEST(Poly, StreamPeriodBecomesCongruence)
{
    const PolyRegion r = analyzeSource(kernStreamSrc);
    EXPECT_TRUE(r.validity.structuralUnbounded);
    ASSERT_FALSE(r.validity.constraints.empty());
    bool period = false;
    for (const NConstraint &c : r.validity.constraints)
        period = period ||
                 c.render().find("2 | N") != std::string::npos;
    EXPECT_TRUE(period) << r.validity.summary;
    // Trip 16 with a period-2 stream: exactly the even divisors.
    EXPECT_EQ(r.validity.okWidths,
              (std::vector<unsigned>{2, 4, 8, 16}));
    // An odd width breaks the stream congruence (or divisibility).
    EXPECT_EQ(r.instantiate(3).verdict, Severity::Error);
}

TEST(Poly, TripDivisorsBoundTheValiditySet)
{
    const PolyRegion r = analyzeSource(kernTrip24Src);
    // Divisors of 24 at least 2.
    EXPECT_EQ(r.validity.okWidths,
              (std::vector<unsigned>{2, 3, 4, 6, 8, 12, 24}));
    EXPECT_TRUE(r.validity.okAt(12));
    EXPECT_FALSE(r.validity.okAt(16));
    const PolyWidthOutcome o = r.instantiate(16);
    EXPECT_EQ(o.verdict, Severity::Error);
    EXPECT_EQ(o.reason, AbortReason::TripCount);
    // The tail beyond the horizon is a constant trip-count error.
    EXPECT_EQ(r.validity.tail.verdict, Severity::Error);
    EXPECT_TRUE(r.validity.tailExact);
}

TEST(Poly, ElementwiseRegionIsStructurallyUnbounded)
{
    const PolyRegion r = analyzeSource(saxpySrc);
    EXPECT_TRUE(r.validity.structuralUnbounded);
    EXPECT_NE(r.validity.summary.find("safe for all N"),
              std::string::npos)
        << r.validity.summary;
}

TEST(Poly, OkAtAgreesWithInstantiate)
{
    for (const char *src : {kernTrip24Src, kernStreamSrc, saxpySrc}) {
        const PolyRegion r = analyzeSource(src);
        for (unsigned n = 2; n <= r.validity.horizon + 4; ++n) {
            EXPECT_EQ(r.validity.okAt(n),
                      r.instantiate(n).verdict == Severity::Ok)
                << "width " << n;
        }
    }
}

TEST(Poly, VerifyRegionAttachesValiditySet)
{
    const Program prog = assemble(saxpySrc);
    VerifyOptions opts;
    opts.poly = true;
    const ProgramReport rep = verifyProgram(prog, opts);
    ASSERT_EQ(rep.regions.size(), 1u);
    const RegionReport &r = rep.regions.front();
    EXPECT_TRUE(r.polyAnalyzed);
    EXPECT_TRUE(r.polyUnbounded);
    EXPECT_FALSE(r.polySummary.empty());
    EXPECT_FALSE(r.polyOkWidths.empty());
}

TEST(Poly, RandomKernelsDifferentialClean)
{
    Rng rng(0xC0FFEEull);
    Rng dataRng(0xF00Dull);
    const TranslatorConfig config;
    for (unsigned i = 0; i < 25; ++i) {
        const GeneratedKernel g = generateKernel(rng, i);
        Program prog;
        try {
            prog = buildGeneratedProgram(
                g, dataRng, EmitOptions::Mode::Scalarized, 8);
        } catch (const FatalError &) {
            // Register pressure: no verdict to compare.
            continue;
        } catch (const PanicError &) {
            // Staging aliasing: same generator limit.
            continue;
        }
        const auto diffs = diffProgram(prog, config);
        for (const PolyDiff &d : diffs) {
            for (const PolyMismatch &m : d.mismatches) {
                ADD_FAILURE()
                    << "kernel " << i << " region " << d.entryLabel
                    << " w" << m.width << " " << m.field
                    << ": concrete=" << m.expect << " poly=" << m.got;
            }
        }
    }
}

// ---- the dependence-pair enumerator ---------------------------------------

/**
 * Reference semantics of DepPairIndex: the all-pairs group scan it
 * replaced (loops ascending, stores ascending, partners ascending,
 * store pairs tested once), with the byte overlap taken in 64 bits.
 * @p window: 0 = N-group, 1 = |Δiter| < N, 2 = whole loop.
 */
DepScanHit
allPairsScan(const PolyDeps &deps, unsigned n, int window,
             bool requireFlip)
{
    std::vector<std::vector<const DepEvent *>> perLoop(
        deps.loopsAnalyzed);
    for (const DepEvent &e : deps.events)
        perLoop[static_cast<std::size_t>(e.loop)].push_back(&e);
    for (const auto &evs : perLoop) {
        for (std::size_t i = 0; i < evs.size(); ++i) {
            const DepEvent &a = *evs[i];
            if (!a.isStore)
                continue;
            for (std::size_t j = 0; j < evs.size(); ++j) {
                const DepEvent &b = *evs[j];
                if (i == j || (b.isStore && j < i))
                    continue;
                const bool overlap =
                    a.ea < std::uint64_t{b.ea} + b.size &&
                    b.ea < std::uint64_t{a.ea} + a.size;
                if (!overlap || a.iter == b.iter)
                    continue;
                const unsigned dist = a.iter > b.iter ? a.iter - b.iter
                                                      : b.iter - a.iter;
                const bool flips = (a.iter < b.iter && a.pos > b.pos) ||
                                   (b.iter < a.iter && b.pos > a.pos);
                if (requireFlip && !flips)
                    continue;
                if ((window == 0 && a.iter / n != b.iter / n) ||
                    (window == 1 && dist >= n))
                    continue;
                DepScanHit hit;
                hit.unsafe = true;
                hit.pair.storeIndex = a.pos;
                hit.pair.otherIndex = b.pos;
                hit.pair.otherIsStore = b.isStore;
                hit.pair.distance = dist;
                hit.pair.addr = std::max(a.ea, b.ea);
                hit.pair.orderFlips = flips;
                return hit;
            }
        }
    }
    return {};
}

/**
 * A seeded random trace in the walker's shape: several loops, each a
 * fixed body of static accesses executed per iteration (iterations
 * ascend per loop), loops interleaved in walk order. Addresses cluster
 * in a small window near 0, mid-memory or the top of the 32-bit space
 * so sizes 1/2/4 alias and partly overlap.
 */
PolyDeps
randomTrace(Rng &rng)
{
    PolyDeps deps;
    deps.analyzed = true;
    deps.resolved = true;
    deps.loopsAnalyzed = static_cast<unsigned>(rng.range(1, 3));
    std::vector<std::vector<DepEvent>> loops(deps.loopsAnalyzed);
    int pos = 0;
    for (unsigned l = 0; l < deps.loopsAnalyzed; ++l) {
        const std::uint64_t bases[] = {0, 0x100000, 0xFFFFFFE0ull};
        const std::uint64_t base = bases[rng.range(0, 2)];
        const auto bodyLen = static_cast<int>(rng.range(1, 4));
        const auto trips = static_cast<unsigned>(rng.range(1, 24));
        std::vector<DepEvent> body;
        for (int k = 0; k < bodyLen; ++k) {
            DepEvent e;
            e.loop = static_cast<int>(l);
            e.pos = pos++;
            e.isStore = rng.chance(0.5);
            e.size = 1u << rng.range(0, 2);
            body.push_back(e);
        }
        for (unsigned it = 0; it < trips; ++it) {
            for (DepEvent e : body) {
                e.iter = it;
                e.ea = static_cast<Addr>(base + rng.range(0, 31));
                loops[l].push_back(e);
            }
        }
    }
    // Interleave the loops, keeping each loop's walk order.
    std::vector<std::size_t> next(loops.size(), 0);
    for (;;) {
        std::vector<std::size_t> live;
        for (std::size_t l = 0; l < loops.size(); ++l) {
            if (next[l] < loops[l].size())
                live.push_back(l);
        }
        if (live.empty())
            break;
        const std::size_t l =
            live[static_cast<std::size_t>(rng.range(
                0, static_cast<std::int64_t>(live.size()) - 1))];
        const DepEvent &e = loops[l][next[l]++];
        deps.events.push_back(e);
        deps.maxIter = std::max(deps.maxIter, e.iter);
    }
    return deps;
}

void
expectSameHit(const DepScanHit &want, const DepScanHit &got)
{
    EXPECT_EQ(want.unsafe, got.unsafe);
    EXPECT_EQ(want.pair.storeIndex, got.pair.storeIndex);
    EXPECT_EQ(want.pair.otherIndex, got.pair.otherIndex);
    EXPECT_EQ(want.pair.otherIsStore, got.pair.otherIsStore);
    EXPECT_EQ(want.pair.distance, got.pair.distance);
    EXPECT_EQ(want.pair.addr, got.pair.addr);
    EXPECT_EQ(want.pair.orderFlips, got.pair.orderFlips);
}

TEST(PolyDepIndex, MatchesAllPairsScanOnRandomTraces)
{
    Rng rng(0xDE9AD5ull);
    unsigned unsafeHits = 0;
    for (unsigned trial = 0; trial < 1000; ++trial) {
        const PolyDeps deps = randomTrace(rng);
        const DepPairIndex index(deps);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_EQ(index.anyFlippingPair(),
                  allPairsScan(deps, 0, 2, true).unsafe);
        for (unsigned n = 2; n <= deps.maxIter + 2; ++n) {
            for (unsigned bit = 0; bit <= polySabotageCount; ++bit) {
                const unsigned sab = bit == 0 ? 0 : 1u << (bit - 1);
                const auto on = [&](PolySabotage s) {
                    return (sab & static_cast<unsigned>(s)) != 0;
                };
                const DepScanHit want = allPairsScan(
                    deps, n, on(PolySabotage::GroupCollide) ? 1 : 0,
                    !on(PolySabotage::FlipIgnore));
                const DepScanHit got = index.scanAt(n, sab);
                SCOPED_TRACE("n " + std::to_string(n) + " sabotage " +
                             std::to_string(sab));
                expectSameHit(want, got);
                unsafeHits += want.unsafe ? 1 : 0;
            }
        }
    }
    // The generator must actually produce order-breaking pairs.
    EXPECT_GT(unsafeHits, 1000u);
}

TEST(PolyDepIndex, StoreEndingAt4GiBOverlapsItsPartner)
{
    // Iteration 0 stores the last word of the address space; iteration
    // 1 loads it textually first. `ea + size` wraps to 0 in 32 bits.
    PolyDeps deps;
    deps.analyzed = deps.resolved = true;
    deps.loopsAnalyzed = 1;
    for (unsigned it = 0; it < 2; ++it) {
        deps.events.push_back(DepEvent{0, it, 3, 0xFFFFFFFCu, 4, false});
        deps.events.push_back(DepEvent{0, it, 5, 0xFFFFFFFCu, 4, true});
    }
    deps.maxIter = 1;
    const DepPairIndex index(deps);
    EXPECT_TRUE(index.anyFlippingPair());
    const DepScanHit hit = index.scanAt(2);
    ASSERT_TRUE(hit.unsafe);
    EXPECT_EQ(hit.pair.storeIndex, 5);
    EXPECT_EQ(hit.pair.otherIndex, 3);
    EXPECT_EQ(hit.pair.distance, 1u);
    EXPECT_EQ(hit.pair.addr, 0xFFFFFFFCu);
    EXPECT_TRUE(hit.pair.orderFlips);
}

TEST(PolyDepIndex, WalkedStoreAt4GiBAgreesWithDepcheck)
{
    // `.data` starts at Program::dataBase, so displacement
    // -(dataBase / 4 + 1) words puts iteration 0's store at
    // 0xFFFFFFFC and iteration 1's (textually earlier) load on it.
    const Program prog = assemble(R"(
        .data top4g 16
        fn:
            mov r0, #0
        top:
            ldw r1, [top4g + r0 + #-262146]
            add r1, r1, #1
            stw [top4g + r0 + #-262145], r1
            add r0, r0, #1
            cmp r0, #4
            blt top
            ret
        main:
            bl.simd fn
            halt
    )");
    ASSERT_EQ(prog.symbol("top4g"), Program::dataBase);
    const int entry = prog.labelIndex("fn");
    const RegionCfg cfg = RegionCfg::build(prog, entry);
    const DepcheckResult dep = analyzeDeps(prog, entry, cfg);
    const PolyDeps pdeps = analyzePolyDeps(prog, entry, cfg);
    ASSERT_TRUE(dep.resolved);
    ASSERT_TRUE(pdeps.resolved);
    const WidthVerdict &wv = dep.verdictAt(2);
    ASSERT_EQ(wv.kind, WidthVerdict::Kind::Unsafe);
    EXPECT_EQ(wv.pair.addr, 0xFFFFFFFCu);
    const DepScanHit hit = DepPairIndex(pdeps).scanAt(2);
    ASSERT_TRUE(hit.unsafe);
    EXPECT_EQ(hit.pair.storeIndex, wv.pair.storeIndex);
    EXPECT_EQ(hit.pair.otherIndex, wv.pair.otherIndex);
    EXPECT_EQ(hit.pair.distance, wv.pair.distance);
    EXPECT_EQ(hit.pair.addr, wv.pair.addr);
}

/**
 * Work-counter tripwire: 179.art_k0 is the largest trace in the suite
 * (65 536 events, 16 384 stores, horizon 4096). The address-indexed
 * scan visits 425 984 partners over the whole of analyzePoly; the
 * bound is about twice that, while an all-pairs regression visits
 * E^2 ~ 4.3e9 per scanned width.
 */
constexpr std::uint64_t artPairTestBound = 850000;

TEST(PolyDepIndex, ArtKernelPairTestsStayNearLinear)
{
    const TranslatorConfig config;
    for (const auto &wl : makeSuite()) {
        if (wl->name() != "179.art")
            continue;
        const Workload::Build build =
            wl->build(EmitOptions::Mode::Scalarized, 8, true);
        const int entry = build.prog.labelIndex("179.art_k0");
        ASSERT_GE(entry, 0);
        const PolyRegion r = analyzePoly(build.prog, entry, config);
        EXPECT_EQ(r.deps.events.size(), 65536u);
        EXPECT_LT(r.pairTests(), artPairTestBound) << r.pairTests();
        return;
    }
    FAIL() << "179.art not in the suite";
}

/**
 * liquid-verify-v3 is additive over v2: a consumer written against the
 * v2 layout must parse a v3 document without changes. This exercises a
 * strict v2 reader over a v3-shaped report (the layout regionJson in
 * tools/liquid_verify.cc emits, including the new validity object the
 * v2 reader must tolerate and ignore).
 */
TEST(Poly, VerifyV3JsonStaysParseableByV2Consumers)
{
    const char *v3doc = R"json({
      "schema": "liquid-verify-v3",
      "toolVersion": "3.0",
      "regions": [{
        "program": "saxpy.s",
        "entryLabel": "saxpy",
        "entryIndex": 0,
        "requestedWidth": 8,
        "widthHint": 0,
        "verdict": "ok",
        "predicted": {"width": 8, "ucodeInsts": 8, "cvecs": 0},
        "dep": {
          "analyzed": true,
          "resolved": true,
          "carriedPairs": 0,
          "minDistance": 0,
          "accesses": [],
          "byWidth": {"8": {"verdict": "safe"}}
        },
        "validity": {
          "summary": "safe for all N (observed trip: N | 32)",
          "structuralUnbounded": true,
          "okWidths": [2, 4, 8, 16],
          "constraints": []
        },
        "diags": []
      }],
      "summary": {"ok": 1, "warn": 0, "error": 0}
    })json";
    const json::Value root = json::parse(v3doc);

    // A v2 consumer reads exactly these fields, by these names.
    ASSERT_NE(root.find("schema"), nullptr);
    ASSERT_NE(root.find("regions"), nullptr);
    const json::Value &regions = *root.find("regions");
    ASSERT_EQ(regions.items().size(), 1u);
    const json::Value &region = regions.items().front();
    for (const char *field :
         {"program", "entryLabel", "entryIndex", "requestedWidth",
          "verdict", "predicted", "dep", "diags"})
        EXPECT_NE(region.find(field), nullptr) << field;
    EXPECT_EQ(region.find("verdict")->asString(), "ok");
    const json::Value &dep = *region.find("dep");
    EXPECT_NE(dep.find("byWidth"), nullptr);
    const json::Value &summary = *root.find("summary");
    EXPECT_NE(summary.find("ok"), nullptr);
    // And the v3 addition is present for consumers that want it.
    const json::Value *validity = region.find("validity");
    ASSERT_NE(validity, nullptr);
    EXPECT_NE(validity->find("summary"), nullptr);
    EXPECT_NE(validity->find("okWidths"), nullptr);
}

} // namespace
