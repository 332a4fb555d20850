/**
 * @file
 * CI smoke test for the batched crossbar inference engine: the batched
 * paths must be bitwise identical to the serial ones (any batch size,
 * full and ragged groups, non-ideal and quantized backends), and the
 * architecture model must credit batching with a faster pipeline step.
 * Exits non-zero on any failure so ctest catches a broken batcher.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/partition.h"
#include "arch/throughput.h"
#include "basecall/basecaller.h"
#include "basecall/bonito_lite.h"
#include "core/deploy.h"
#include "core/evaluator.h"
#include "core/nonideality.h"
#include "core/vmm_backend.h"
#include "genomics/dataset.h"
#include "util/thread_pool.h"

using namespace swordfish;
using namespace swordfish::core;

namespace {

int failures = 0;

void
check(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "batch_smoke: FAIL: %s\n", what.c_str());
        ++failures;
    }
}

std::uint64_t
bits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

} // namespace

int
main()
{
    basecall::BonitoLiteConfig cfg;
    cfg.convChannels = 8;
    cfg.lstmHidden = 8;
    cfg.lstmLayers = 1;
    nn::SequenceModel model = basecall::buildBonitoLite(cfg);

    const genomics::PoreModel pore;
    const genomics::Dataset dataset =
        genomics::makeDataset(genomics::specById("D1"), pore, 4);

    NonIdealityConfig scenario;
    scenario.kind = NonIdealityKind::Combined;
    scenario.crossbar.size = 64;

    // 1. Non-ideal Monte-Carlo evaluation: batch 1 vs 3 (ragged {3, 1})
    //    vs 4 must agree bit for bit.
    auto eval_b = [&](std::size_t batch) {
        return evaluateNonIdealAccuracy(
            model, scenario,
            EvalOptions(dataset).runs(1).maxReads(4).seedBase(21)
                .batch(batch).threads(0));
    };
    const auto b1 = eval_b(1);
    const auto b3 = eval_b(3);
    const auto b4 = eval_b(4);
    check(bits(b1.mean) == bits(b3.mean),
          "non-ideal mean differs between batch 1 and 3");
    check(bits(b1.mean) == bits(b4.mean),
          "non-ideal mean differs between batch 1 and 4");

    // 2. Per-call basecalls: batched groups vs the serial loop.
    CrossbarVmmBackend backend(scenario, 21);
    model.setBackend(&backend);
    model.compileBackend();
    std::vector<genomics::Sequence> serial;
    for (std::size_t i = 0; i < 4; ++i) {
        model.beginRead(i);
        serial.push_back(basecall::basecallRead(model, dataset.reads[i]));
    }
    const auto batched =
        basecall::basecallBatch(model, dataset, {0, 1, 2, 3});
    check(batched.size() == 4, "basecallBatch returned wrong count");
    for (std::size_t i = 0; i < batched.size() && i < 4; ++i)
        check(batched[i] == serial[i],
              "batched basecall differs on read " + std::to_string(i));
    model.setBackend(nullptr);

    // 3. Quantized digital path: per-lane activation quantization keeps
    //    the batched result identical too.
    const QuantConfig quant{8, 8};
    auto eval_q = [&](std::size_t batch) {
        return evaluateQuantizedAccuracy(
                   model, quant,
                   EvalOptions(dataset).maxReads(4).batch(batch).threads(0))
            .meanIdentity;
    };
    check(bits(eval_q(1)) == bits(eval_q(3)),
          "quantized accuracy differs between batch 1 and 3");

    // 4. Architecture model: batching amortizes settle/DAC/digital time,
    //    so the batched pipeline step must be strictly faster, and the
    //    default (batch = 1) must match the explicit batch-1 call.
    const auto map = arch::buildPartitionMap(model, 64);
    const arch::TimingParams timing;
    check(bits(arch::pipelineStepNs(map, timing))
              == bits(arch::pipelineStepNs(map, timing, 1)),
          "pipelineStepNs default differs from batch=1");
    check(arch::pipelineStepNs(map, timing, 8)
              < arch::pipelineStepNs(map, timing, 1),
          "pipelineStepNs(batch=8) not faster than batch=1");

    if (failures == 0)
        std::printf("{\"bench\":\"batch_smoke\",\"status\":\"ok\"}\n");
    return failures == 0 ? 0 : 1;
}
