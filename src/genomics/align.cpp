#include "align.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/trace.h"

namespace swordfish::genomics {

namespace {

/** Score of a slot outside the band: no candidate built from it wins. */
constexpr long kNeg = std::numeric_limits<long>::min() / 4;

/** Traceback directions. */
enum Dir : std::uint8_t { DirNone = 0, DirDiag = 1, DirUp = 2, DirLeft = 3 };

// The cell builds its direction as (DirDiag + up wins) | (DirLeft if left
// wins): DirUp must follow DirDiag, and DirLeft must cover both bits.
static_assert(DirDiag + 1 == DirUp);
static_assert((DirDiag | DirLeft) == DirLeft && (DirUp | DirLeft) == DirLeft);

/**
 * Banded Needleman-Wunsch core shared by the global and glocal modes.
 * In glocal mode, gaps of `b` before the first and after the last aligned
 * `a` character are free (fit alignment of a read inside a reference
 * window); they are still reported in the deletion/length counts, plus
 * separately as leading/trailingDeletions.
 *
 * Each score row is held in absolute column coordinates, column j in slot
 * j + 1 (slot 0 is column -1). Row i's band [lo(i), hi(i)] has both ends
 * nondecreasing in i, and consecutive bands overlap: the centre moves at
 * most ceil(m / n) <= band columns per row, so lo(i) <= hi(i - 1) and
 * every in-band cell has an in-band predecessor. Every slot a row reads
 * outside the previous row's band holds kNeg: left of it the sentinel
 * that row wrote at column lo - 1 (slot 0, which no cell writes, when lo
 * is 0), right of it a slot no row of that buffer has reached. A
 * candidate built from kNeg therefore never wins, so the cell needs no
 * bounds checks. Ties go to the diagonal, then up, then left, each taking
 * over only on a strict >.
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
    // centred on the main (resampled) diagonal j ~ i * m / n, so row 0
    // starts at column 0 and row n ends at column m.
    auto lo_of = [&](std::size_t i) -> std::size_t {
        const std::size_t center = i * m / n;
        return center > band ? center - band : 0;
    };
    auto hi_of = [&](std::size_t i) -> std::size_t {
        const std::size_t center = i * m / n;
        return std::min(m, center + band);
    };

    const long match = scores.match;
    const long mismatch = scores.mismatch;
    const long gap = scores.gapPenalty;
    const std::size_t width = 2 * band + 2;
    std::vector<long> prev_row(m + 2, kNeg), cur_row(m + 2, kNeg);
    long* prev = prev_row.data();
    long* cur = cur_row.data();
    std::vector<std::uint8_t> trace((n + 1) * width, DirNone);

    // Row 0: leading gaps in b — free in glocal mode.
    const std::size_t hi0 = hi_of(0);
    for (std::size_t j = 0; j <= hi0; ++j) {
        prev[j + 1] = free_b_ends ? 0 : static_cast<long>(j) * gap;
        trace[j] = (j == 0 || free_b_ends) ? DirNone : DirLeft;
    }

    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t lo = lo_of(i), hi = hi_of(i);
        std::uint8_t* trow = trace.data() + i * width;
        std::size_t j = lo;
        if (lo == 0) {
            // Column 0: only the cell above precedes it.
            cur[1] = prev[1] + gap;
            trow[0] = DirUp;
            j = 1;
        } else {
            cur[lo] = kNeg;
        }

        const std::uint8_t base = a[i - 1];
        long diag = prev[j]; // row i - 1, column j - 1
        long left = cur[j];  // row i, column j - 1
        for (; j <= hi; ++j) {
            const long up = prev[j + 1];
            const long from_diag =
                diag + (base == b[j - 1] ? match : mismatch);
            const long from_up = up + gap;
            const long from_left = left + gap;
            // Selects, not branches: on noisy reads each pick goes either
            // way about half the time.
            const bool up_wins = from_up > from_diag;
            const long diag_or_up = up_wins ? from_up : from_diag;
            const bool left_wins = from_left > diag_or_up;
            const long best = left_wins ? from_left : diag_or_up;
            const auto dir =
                static_cast<std::uint8_t>((DirDiag + up_wins)
                                          | (DirLeft * left_wins));
            cur[j + 1] = best;
            trow[j - lo] = dir;
            diag = up;
            left = best;
        }
        std::swap(prev, cur);
    }

    // Select the traceback start: (n, m) for global, the best last-row
    // cell for glocal (trailing b-gaps free).
    std::size_t j_start = m;
    if (free_b_ends) {
        long best = kNeg;
        for (std::size_t j = lo_of(n); j <= m; ++j) {
            if (prev[j + 1] > best) {
                best = prev[j + 1];
                j_start = j;
            }
        }
        res.score = best;
        res.trailingDeletions = m - j_start;
        res.deletions += m - j_start;
    } else {
        res.score = prev[m + 1];
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

} // namespace

AlignmentResult
alignGlobal(const Sequence& a, const Sequence& b, std::size_t band,
            const AlignScores& scores)
{
    static const SpanStat kAlignSpan = metrics().span("align");
    static const Counter kAlignCalls = metrics().counter("align.calls");
    TraceSpan trace(kAlignSpan);
    kAlignCalls.add();
    return alignImpl(a, b, band, scores, /*free_b_ends=*/false);
}

AlignmentResult
alignGlocal(const Sequence& a, const Sequence& b, std::size_t band,
            const AlignScores& scores)
{
    static const SpanStat kAlignSpan = metrics().span("align");
    static const Counter kAlignCalls = metrics().counter("align.calls");
    TraceSpan trace(kAlignSpan);
    kAlignCalls.add();
    return alignImpl(a, b, band, scores, /*free_b_ends=*/true);
}

std::size_t
editDistance(const Sequence& a, const Sequence& b)
{
    const std::size_t n = a.size(), m = b.size();
    std::vector<std::size_t> prev(m + 1), cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub = prev[j - 1]
                + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

} // namespace swordfish::genomics
