/**
 * @file
 * Table 3 reproduction: basecalling accuracy after quantizing weights and
 * activations to each FPP X-Y configuration, for D1-D4 — no crossbar
 * non-idealities, no accuracy enhancement (paper Section 5.1).
 */

#include "bench_common.h"

using namespace swordfish;
using namespace swordfish::bench;
using namespace swordfish::core;

int
main()
{
    banner("Table 3 - accuracy after quantization (no enhancement)");

    ExperimentContext ctx;
    auto& teacher = ctx.teacher();
    const std::size_t reads = ExperimentContext::evalReads();

    const auto configs = QuantConfig::table3Sweep();
    TextTable table;
    std::vector<std::string> header = {"Dataset"};
    for (const auto& q : configs)
        header.push_back(q.name());
    table.header(header);

    for (const auto& ds : ctx.datasets()) {
        std::vector<std::string> row = {ds.spec.id};
        for (const auto& q : configs) {
            const double acc =
                evaluateQuantizedAccuracy(teacher, q,
                                          EvalOptions(ds).maxReads(reads))
                    .meanIdentity;
            row.push_back(pct(acc));
        }
        table.row(row);
        std::fflush(stdout);
    }
    table.print();
    std::printf("\nPaper shape: lossless to 16 bits, < 9%% loss at 8 bits, "
                "unacceptable below 4 bits.\n");
    return 0;
}
