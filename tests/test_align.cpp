/** @file Tests for alignment, identity metric, edit distance, mapper. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "genomics/align.h"
#include "genomics/dataset.h"
#include "genomics/mapper.h"
#include "util/logging.h"

using namespace swordfish;
using namespace swordfish::genomics;

namespace oracle {

// Reference aligner for Align.MatchesReferenceOnSeededCorpus: a plain
// banded Needleman-Wunsch that keeps each row band-relative, refills it
// every row and checks every predecessor's bounds and reachability. It
// breaks ties like the production aligner (diagonal, then up, then left,
// each on a strict >), which must return bitwise identical results.

constexpr long kMinScore = std::numeric_limits<long>::min() / 4;

/** Traceback directions. */
enum Dir : std::uint8_t { DirNone = 0, DirDiag = 1, DirUp = 2, DirLeft = 3 };

/**
 * Banded Needleman-Wunsch core shared by the global and glocal modes.
 * In glocal mode, gaps of `b` before the first and after the last aligned
 * `a` character are free (fit alignment of a read inside a reference
 * window); they are still reported in the deletion/length counts, plus
 * separately as leading/trailingDeletions.
 */
AlignmentResult
alignImpl(const Sequence& a, const Sequence& b, std::size_t band,
          const AlignScores& scores, bool free_b_ends)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    AlignmentResult res;
    if (n == 0 || m == 0) {
        res.insertions = n;
        res.deletions = m;
        res.alignmentLength = n + m;
        res.leadingDeletions = m;
        res.score = free_b_ends
            ? static_cast<long>(n) * scores.gapPenalty
            : static_cast<long>(n + m) * scores.gapPenalty;
        if (m > 0)
            res.cigar = std::to_string(m) + "D";
        if (n > 0)
            res.cigar += std::to_string(n) + "I";
        return res;
    }

    const std::size_t len_diff = n > m ? n - m : m - n;
    if (band == 0)
        band = std::max<std::size_t>(32, std::max(n, m) / 20);
    band += len_diff;

    // Row i spans columns [lo(i), hi(i)] of the DP matrix; the band is
    // centred on the main (resampled) diagonal j ~ i * m / n.
    auto lo_of = [&](std::size_t i) -> std::size_t {
        const std::size_t center = i * m / n;
        return center > band ? center - band : 0;
    };
    auto hi_of = [&](std::size_t i) -> std::size_t {
        const std::size_t center = i * m / n;
        return std::min(m, center + band);
    };

    const std::size_t width = 2 * band + 2;
    std::vector<long> prev(width, kMinScore), cur(width, kMinScore);
    std::vector<std::uint8_t> trace((n + 1) * width, DirNone);

    // Row 0: leading gaps in b — free in glocal mode.
    const std::size_t lo0 = lo_of(0), hi0 = hi_of(0);
    for (std::size_t j = lo0; j <= hi0; ++j) {
        prev[j - lo0] = free_b_ends
            ? 0 : static_cast<long>(j) * scores.gapPenalty;
        trace[j - lo0] = (j == 0 || free_b_ends) ? DirNone : DirLeft;
    }

    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t lo = lo_of(i), hi = hi_of(i);
        const std::size_t plo = lo_of(i - 1), phi = hi_of(i - 1);
        std::fill(cur.begin(), cur.end(), kMinScore);
        std::uint8_t* trow = trace.data() + i * width;

        for (std::size_t j = lo; j <= hi; ++j) {
            long best = kMinScore;
            std::uint8_t dir = DirNone;

            if (j >= 1 && j - 1 >= plo && j - 1 <= phi
                && prev[j - 1 - plo] > kMinScore) {
                const bool is_match = a[i - 1] == b[j - 1];
                const long s = prev[j - 1 - plo]
                    + (is_match ? scores.match : scores.mismatch);
                if (s > best) {
                    best = s;
                    dir = DirDiag;
                }
            }
            if (j >= plo && j <= phi && prev[j - plo] > kMinScore) {
                const long s = prev[j - plo] + scores.gapPenalty;
                if (s > best) {
                    best = s;
                    dir = DirUp;
                }
            }
            if (j >= 1 && j - 1 >= lo && cur[j - 1 - lo] > kMinScore) {
                const long s = cur[j - 1 - lo] + scores.gapPenalty;
                if (s > best) {
                    best = s;
                    dir = DirLeft;
                }
            }
            if (j == 0) {
                // First column: leading gaps in a.
                const long s = static_cast<long>(i) * scores.gapPenalty;
                if (s > best) {
                    best = s;
                    dir = DirUp;
                }
            }
            cur[j - lo] = best;
            trow[j - lo] = dir;
        }
        std::swap(prev, cur);
    }

    // Select the traceback start: (n, m) for global, the best last-row
    // cell for glocal (trailing b-gaps free).
    const std::size_t lo_n = lo_of(n), hi_n = hi_of(n);
    std::size_t j_start = m;
    if (free_b_ends) {
        long best = kMinScore;
        for (std::size_t j = lo_n; j <= hi_n; ++j) {
            if (prev[j - lo_n] > best) {
                best = prev[j - lo_n];
                j_start = j;
            }
        }
        if (best <= kMinScore)
            panic("alignGlocal: band too narrow for inputs (", n, ", ", m,
                  ")");
        res.score = best;
        res.trailingDeletions = m - j_start;
        res.deletions += m - j_start;
    } else {
        if (m < lo_n || m > hi_n || prev[m - lo_n] <= kMinScore)
            panic("alignGlobal: band too narrow for inputs (", n, ", ", m,
                  ")");
        res.score = prev[m - lo_n];
    }

    // Traceback; ops are collected back-to-front for the CIGAR.
    std::string ops;
    ops.reserve(n + m);
    for (std::size_t k = 0; k < res.trailingDeletions; ++k)
        ops.push_back('D');
    std::size_t i = n, j = j_start;
    while (i > 0 || j > 0) {
        const std::size_t lo = lo_of(i);
        const std::uint8_t dir = trace[i * width + (j - lo)];
        if (dir == DirDiag) {
            if (a[i - 1] == b[j - 1])
                ++res.matches;
            else
                ++res.mismatches;
            ops.push_back('M');
            --i;
            --j;
        } else if (dir == DirUp) {
            ++res.insertions;
            ops.push_back('I');
            --i;
        } else if (dir == DirLeft) {
            ++res.deletions;
            ops.push_back('D');
            --j;
        } else {
            // Origin (global) or a free leading-gap cell on row 0
            // (glocal): everything left in `b` is a leading deletion.
            if (i > 0) {
                res.insertions += i;
                ops.append(i, 'I');
                i = 0;
            }
            if (j > 0) {
                res.leadingDeletions += j;
                res.deletions += j;
                ops.append(j, 'D');
                j = 0;
            }
        }
    }
    res.alignmentLength = res.matches + res.mismatches + res.insertions
        + res.deletions;

    // Run-length encode the reversed op string into a CIGAR.
    std::reverse(ops.begin(), ops.end());
    for (std::size_t k = 0; k < ops.size();) {
        std::size_t run = 1;
        while (k + run < ops.size() && ops[k + run] == ops[k])
            ++run;
        res.cigar += std::to_string(run);
        res.cigar.push_back(ops[k]);
        k += run;
    }
    return res;
}


} // namespace oracle

TEST(Align, IdenticalSequencesFullIdentity)
{
    const Sequence s = fromString("ACGTACGTAC");
    const auto res = alignGlobal(s, s);
    EXPECT_EQ(res.matches, s.size());
    EXPECT_EQ(res.mismatches, 0u);
    EXPECT_EQ(res.alignmentLength, s.size());
    EXPECT_DOUBLE_EQ(res.identity(), 1.0);
}

TEST(Align, SingleSubstitution)
{
    const auto res = alignGlobal(fromString("ACGTA"), fromString("ACCTA"));
    EXPECT_EQ(res.matches, 4u);
    EXPECT_EQ(res.mismatches, 1u);
    EXPECT_EQ(res.alignmentLength, 5u);
    EXPECT_DOUBLE_EQ(res.identity(), 0.8);
}

TEST(Align, SingleInsertion)
{
    // a has one extra base vs b.
    const auto res = alignGlobal(fromString("ACGGTA"), fromString("ACGTA"));
    EXPECT_EQ(res.matches, 5u);
    EXPECT_EQ(res.insertions, 1u);
    EXPECT_EQ(res.deletions, 0u);
    EXPECT_EQ(res.alignmentLength, 6u);
}

TEST(Align, SingleDeletion)
{
    const auto res = alignGlobal(fromString("ACTA"), fromString("ACGTA"));
    EXPECT_EQ(res.deletions, 1u);
    EXPECT_EQ(res.matches, 4u);
}

TEST(Align, EmptySequences)
{
    const auto res = alignGlobal({}, fromString("ACG"));
    EXPECT_EQ(res.deletions, 3u);
    EXPECT_EQ(res.alignmentLength, 3u);
    EXPECT_DOUBLE_EQ(res.identity(), 0.0);
    const auto res2 = alignGlobal({}, {});
    EXPECT_EQ(res2.alignmentLength, 0u);
}

TEST(Align, ColumnsAlwaysConsistent)
{
    // Property: matches+mismatches+ins+del == alignmentLength, and the
    // consumed characters add up to both input lengths.
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        Sequence a = generateGenome(120 + rng.next(80), 0.5, rng);
        Sequence b = a;
        // Mutate b.
        for (std::size_t i = 0; i < b.size(); ++i)
            if (rng.bernoulli(0.08))
                b[i] = static_cast<std::uint8_t>((b[i] + 1 + rng.next(3))
                                                 % 4);
        if (rng.bernoulli(0.7))
            b.erase(b.begin() + static_cast<std::ptrdiff_t>(
                        rng.next(b.size())));
        const auto res = alignGlobal(a, b);
        EXPECT_EQ(res.matches + res.mismatches + res.insertions
                      + res.deletions,
                  res.alignmentLength);
        EXPECT_EQ(res.matches + res.mismatches + res.insertions, a.size());
        EXPECT_EQ(res.matches + res.mismatches + res.deletions, b.size());
    }
}

TEST(Align, IdentityDropsWithErrorRate)
{
    Rng rng(2);
    const Sequence a = generateGenome(400, 0.5, rng);
    auto mutate = [&](double rate) {
        Sequence b = a;
        Rng r(3);
        for (auto& base : b)
            if (r.bernoulli(rate))
                base = static_cast<std::uint8_t>((base + 1) % 4);
        return alignGlobal(a, b).identity();
    };
    EXPECT_GT(mutate(0.02), mutate(0.10));
    EXPECT_GT(mutate(0.10), mutate(0.30));
}

TEST(Align, AgreesWithEditDistanceOnSubstitutionOnlyCase)
{
    const Sequence a = fromString("ACGTACGTACGT");
    Sequence b = a;
    b[3] = 0;
    b[7] = 1;
    EXPECT_EQ(editDistance(a, b), 2u);
    const auto res = alignGlobal(a, b);
    EXPECT_EQ(res.mismatches + res.insertions + res.deletions, 2u);
}

TEST(Align, GlocalIdentityIgnoresWindowOverhang)
{
    // Read aligned against a padded window: global identity is deflated
    // by the overhang, glocal identity is not.
    Rng rng(11);
    const Sequence window = generateGenome(400, 0.5, rng);
    const Sequence read(window.begin() + 30, window.begin() + 330);
    const auto res = alignGlocal(read, window, 128);
    EXPECT_LT(res.identity(), 0.9);
    EXPECT_DOUBLE_EQ(res.glocalIdentity(), 1.0);
    EXPECT_EQ(res.leadingDeletions, 30u);
    EXPECT_EQ(res.trailingDeletions, 70u);
    EXPECT_EQ(res.matches, read.size());
}

TEST(Align, GlocalColumnsStillConsistent)
{
    Rng rng(12);
    const Sequence window = generateGenome(300, 0.5, rng);
    Sequence read(window.begin() + 20, window.begin() + 250);
    read[50] = static_cast<std::uint8_t>((read[50] + 1) % 4);
    const auto res = alignGlocal(read, window, 96);
    EXPECT_EQ(res.matches + res.mismatches + res.insertions, read.size());
    EXPECT_EQ(res.matches + res.mismatches + res.deletions, window.size());
    EXPECT_EQ(res.matches + res.mismatches + res.insertions
                  + res.deletions,
              res.alignmentLength);
}

namespace {

::testing::AssertionResult
sameAlignment(const AlignmentResult& got, const AlignmentResult& want)
{
    auto differ = [&](const char* field, const auto& g, const auto& w) {
        return ::testing::AssertionFailure()
            << field << ": got " << g << ", reference " << w;
    };
    if (got.score != want.score)
        return differ("score", got.score, want.score);
    if (got.matches != want.matches)
        return differ("matches", got.matches, want.matches);
    if (got.mismatches != want.mismatches)
        return differ("mismatches", got.mismatches, want.mismatches);
    if (got.insertions != want.insertions)
        return differ("insertions", got.insertions, want.insertions);
    if (got.deletions != want.deletions)
        return differ("deletions", got.deletions, want.deletions);
    if (got.alignmentLength != want.alignmentLength)
        return differ("alignmentLength", got.alignmentLength,
                      want.alignmentLength);
    if (got.leadingDeletions != want.leadingDeletions)
        return differ("leadingDeletions", got.leadingDeletions,
                      want.leadingDeletions);
    if (got.trailingDeletions != want.trailingDeletions)
        return differ("trailingDeletions", got.trailingDeletions,
                      want.trailingDeletions);
    if (got.cigar != want.cigar)
        return differ("cigar", got.cigar, want.cigar);
    return ::testing::AssertionSuccess();
}

/** Copy of `src` with per-base substitution, insertion, deletion rates. */
Sequence
mutateSequence(const Sequence& src, double sub, double ins, double del,
               Rng& rng)
{
    Sequence out;
    out.reserve(2 * src.size());
    for (const std::uint8_t base : src) {
        if (rng.bernoulli(ins))
            out.push_back(static_cast<std::uint8_t>(rng.next(4)));
        if (rng.bernoulli(del))
            continue;
        out.push_back(rng.bernoulli(sub)
                          ? static_cast<std::uint8_t>((base + 1 + rng.next(3))
                                                      % 4)
                          : base);
    }
    return out;
}

} // namespace

TEST(Align, MatchesReferenceOnSeededCorpus)
{
    enum Modes { Global = 1, Glocal = 2, Both = 3 };
    struct Case
    {
        Sequence a, b;
        std::size_t band;
        int modes = Both;
    };
    std::vector<Case> corpus;
    Rng rng(2024);
    const std::size_t kBands[] = {0, 1, 2, 7};
    auto anyBand = [&] { return kBands[rng.next(4)]; };

    // Empty inputs on either side and on both.
    for (const std::size_t len : {1, 5, 40}) {
        const Sequence s = generateGenome(len, 0.5, rng);
        corpus.push_back({{}, s, anyBand()});
        corpus.push_back({s, {}, anyBand()});
    }
    corpus.push_back({{}, {}, 0});

    // Length ratio >= 10 in both directions.
    for (int k = 0; k < 60; ++k) {
        const std::size_t shorter = 1 + rng.next(40);
        const std::size_t longer = shorter * (10 + rng.next(11));
        Sequence s = generateGenome(shorter, 0.5, rng);
        Sequence l = generateGenome(longer, 0.5, rng);
        if (k % 2)
            std::swap(s, l);
        corpus.push_back({s, l, anyBand()});
    }

    // Every cell ties: all-mismatch and homopolymer pairs.
    for (int k = 0; k < 60; ++k) {
        const std::size_t n = 1 + rng.next(120), m = 1 + rng.next(120);
        const std::uint8_t x = k % 2 ? 0 : 1;
        corpus.push_back({Sequence(n, 0), Sequence(m, x), anyBand()});
    }

    // 0-60% errors: substitution-only and mixed at lengths up to 2,000,
    // insertion-only and deletion-only up to 1,000 (their length gap
    // widens the band, so the cells grow with the square of the length).
    // Each pair runs in one mode, alternating, to keep the test short.
    for (int k = 0; k < 1640; ++k) {
        const double max_len = k % 4 == 1 || k % 4 == 2 ? 1000.0 : 2000.0;
        const auto len = static_cast<std::size_t>(
            std::exp(rng.uniform(0.0, std::log(max_len))));
        const Sequence truth = generateGenome(len, 0.5, rng);
        const double rate = rng.uniform(0.0, 0.6);
        double sub = 0.0, ins = 0.0, del = 0.0;
        switch (k % 4) {
          case 0: sub = rate; break;
          case 1: ins = rate; break;
          case 2: del = rate; break;
          default: sub = ins = del = rate / 3.0; break;
        }
        corpus.push_back({mutateSequence(truth, sub, ins, del, rng), truth,
                          anyBand(), (k / 4) % 2 ? Glocal : Global});
    }

    // The read mapper's shape: a read inside a window padded 32 bases
    // before and 64 after, aligned at band 96.
    const Sequence reference = generateGenome(20000, 0.4, rng);
    for (int k = 0; k < 240; ++k) {
        const std::size_t len = 100 + rng.next(500);
        const std::size_t start = 32 + rng.next(reference.size() - len - 96);
        const Sequence truth(reference.begin() + start,
                             reference.begin() + start + len);
        const Sequence window(reference.begin() + start - 32,
                              reference.begin() + start + len + 64);
        const double rate = rng.uniform(0.0, 0.3);
        corpus.push_back(
            {mutateSequence(truth, rate / 3, rate / 3, rate / 3, rng), window,
             96, Glocal});
    }

    ASSERT_GE(corpus.size(), 2000u);
    for (std::size_t k = 0; k < corpus.size(); ++k) {
        const Case& c = corpus[k];
        if (c.modes & Global) {
            ASSERT_TRUE(sameAlignment(alignGlobal(c.a, c.b, c.band),
                                      oracle::alignImpl(c.a, c.b, c.band, {},
                                                        false)))
                << "global, case " << k << " (" << c.a.size() << " x "
                << c.b.size() << ", band " << c.band << ")";
        }
        if (c.modes & Glocal) {
            ASSERT_TRUE(sameAlignment(alignGlocal(c.a, c.b, c.band),
                                      oracle::alignImpl(c.a, c.b, c.band, {},
                                                        true)))
                << "glocal, case " << k << " (" << c.a.size() << " x "
                << c.b.size() << ", band " << c.band << ")";
        }
    }
}

TEST(EditDistance, KnownValues)
{
    EXPECT_EQ(editDistance(fromString("ACGT"), fromString("ACGT")), 0u);
    EXPECT_EQ(editDistance(fromString("ACGT"), fromString("AGT")), 1u);
    EXPECT_EQ(editDistance(fromString("AAAA"), fromString("TTTT")), 4u);
    EXPECT_EQ(editDistance({}, fromString("ACG")), 3u);
}

TEST(EditDistance, Symmetric)
{
    Rng rng(4);
    const Sequence a = generateGenome(60, 0.5, rng);
    const Sequence b = generateGenome(70, 0.5, rng);
    EXPECT_EQ(editDistance(a, b), editDistance(b, a));
}

TEST(Mapper, FindsExactSubstring)
{
    Rng rng(5);
    const Sequence ref = generateGenome(5000, 0.5, rng);
    ReadMapper mapper(ref);
    const Sequence read(ref.begin() + 1200, ref.begin() + 1500);
    const auto res = mapper.map(read);
    ASSERT_TRUE(res.mapped);
    EXPECT_NEAR(static_cast<double>(res.refStart), 1200.0, 40.0);
    EXPECT_GT(res.identity, 0.95);
}

TEST(Mapper, RejectsForeignSequence)
{
    Rng rng(6);
    const Sequence ref = generateGenome(5000, 0.5, rng);
    ReadMapper mapper(ref);
    Rng other(999);
    const Sequence foreign = generateGenome(300, 0.5, other);
    const auto res = mapper.map(foreign);
    // Either unmapped or mapped with junk identity.
    if (res.mapped) {
        EXPECT_LT(res.identity, 0.7);
    }
}

TEST(Mapper, ToleratesSequencingErrors)
{
    Rng rng(7);
    const Sequence ref = generateGenome(8000, 0.5, rng);
    ReadMapper mapper(ref);
    Sequence read(ref.begin() + 3000, ref.begin() + 3400);
    for (std::size_t i = 0; i < read.size(); i += 25)
        read[i] = static_cast<std::uint8_t>((read[i] + 1) % 4);
    const auto res = mapper.map(read);
    ASSERT_TRUE(res.mapped);
    EXPECT_NEAR(static_cast<double>(res.refStart), 3000.0, 64.0);
    EXPECT_GT(res.identity, 0.85);
}

TEST(Mapper, ShortReadUnmapped)
{
    Rng rng(8);
    const Sequence ref = generateGenome(2000, 0.5, rng);
    ReadMapper mapper(ref, 13);
    EXPECT_FALSE(mapper.map(fromString("ACGTACG")).mapped);
}

TEST(Mapper, InvalidKIsFatal)
{
    Rng rng(9);
    const Sequence ref = generateGenome(100, 0.5, rng);
    EXPECT_EXIT(ReadMapper(ref, 0), ::testing::ExitedWithCode(1), "k");
    EXPECT_EXIT(ReadMapper(ref, 40), ::testing::ExitedWithCode(1), "k");
}
