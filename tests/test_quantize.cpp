/** @file Tests for the simulated fixed-point quantizer. */

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/quantize.h"
#include "test_util.h"

using namespace swordfish;
using swordfish::testing::randomMatrix;

TEST(Quantizer, ThirtyTwoBitsIsIdentity)
{
    const Quantizer q(32);
    EXPECT_TRUE(q.isIdentity());
    Matrix m = randomMatrix(4, 4, 1);
    const Matrix orig = m;
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.raw()[i], orig.raw()[i]);
}

TEST(Quantizer, RejectsSillyWidths)
{
    EXPECT_DEATH(Quantizer(1), "unsupported");
    EXPECT_DEATH(Quantizer(33), "unsupported");
}

class QuantBitsTest : public ::testing::TestWithParam<int>
{};

TEST_P(QuantBitsTest, ErrorBoundedByHalfStep)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(16, 16, 2, 1.0);
    const Matrix orig = m;
    const float scale = q.scaleFor(m.absMax());
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(std::fabs(m.raw()[i] - orig.raw()[i]),
                  scale * 0.5f + 1e-6f)
            << "bits=" << bits << " idx=" << i;
    }
}

TEST_P(QuantBitsTest, Idempotent)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(8, 8, 3);
    q.apply(m);
    Matrix once = m;
    q.apply(m);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_NEAR(m.raw()[i], once.raw()[i], 1e-6f);
}

TEST_P(QuantBitsTest, LevelCountBounded)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(32, 32, 4);
    q.apply(m);
    std::set<float> levels(m.raw().begin(), m.raw().end());
    EXPECT_LE(levels.size(), static_cast<std::size_t>(1) << bits);
}

TEST_P(QuantBitsTest, PreservesAbsMaxElement)
{
    const int bits = GetParam();
    const Quantizer q(bits);
    Matrix m = randomMatrix(8, 8, 5);
    const float abs_max = m.absMax();
    q.apply(m);
    EXPECT_NEAR(m.absMax(), abs_max, q.scaleFor(abs_max) * 0.5f + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantBitsTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(Quantizer, MonotoneOnValues)
{
    const Quantizer q(4);
    const float scale = q.scaleFor(1.0f);
    float prev = -2.0f;
    for (float x = -1.0f; x <= 1.0f; x += 0.01f) {
        const float qx = q.apply(x, scale);
        EXPECT_GE(qx, prev - 1e-6f);
        prev = qx;
    }
}

TEST(Quantizer, ClampsBeyondScale)
{
    const Quantizer q(4);
    const float scale = q.scaleFor(1.0f);
    EXPECT_LE(q.apply(5.0f, scale), 1.0f + 1e-6f);
    EXPECT_GE(q.apply(-5.0f, scale), -1.0f - scale - 1e-6f);
}

TEST(Quantizer, VectorOverloadMatchesMatrix)
{
    const Quantizer q(8);
    std::vector<float> v = {0.1f, -0.7f, 0.33f, 1.0f};
    Matrix m(1, 4, std::vector<float>(v));
    q.apply(v);
    q.apply(m);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_FLOAT_EQ(v[i], m.raw()[i]);
}

TEST(QuantConfig, NamesMatchPaperStyle)
{
    EXPECT_EQ((QuantConfig{32, 32}).name(), "DFP 32-32");
    EXPECT_EQ((QuantConfig{16, 16}).name(), "FPP 16-16");
    EXPECT_EQ((QuantConfig{8, 4}).name(), "FPP 8-4");
}

TEST(QuantConfig, Table3SweepHasSevenEntries)
{
    const auto sweep = QuantConfig::table3Sweep();
    ASSERT_EQ(sweep.size(), 7u);
    EXPECT_TRUE(sweep.front().isFloatBaseline());
    EXPECT_EQ(sweep.back().name(), "FPP 4-2");
}

TEST(QuantConfig, DeploymentIsSixteenBit)
{
    const auto d = QuantConfig::deployment();
    EXPECT_EQ(d.weightBits, 16);
    EXPECT_EQ(d.activationBits, 16);
}

TEST(Quantizer, RailSaturationAtEveryWidth)
{
    // Values far past the representable range must pin to the rails, at
    // the int8-style widths and the 16-bit deployment width alike.
    for (const int bits : {8, 16}) {
        const Quantizer q(bits);
        const float scale = q.scaleFor(1.0f);
        const float hi = q.apply(1e9f, scale);
        const float lo = q.apply(-1e9f, scale);
        EXPECT_LE(hi, 1.0f + 1e-6f) << "bits=" << bits;
        EXPECT_GE(lo, -1.0f - scale - 1e-6f) << "bits=" << bits;
        // Saturation is a fixed point: the rail quantizes to itself.
        EXPECT_FLOAT_EQ(q.apply(hi, scale), hi);
        EXPECT_FLOAT_EQ(q.apply(lo, scale), lo);
    }
}

TEST(Quantizer, ZeroDynamicRangeColumnsQuantizeToZero)
{
    // An all-zero tensor has absMax 0; scaleFor(0) must not divide by
    // zero and apply() must return exact zeros.
    const Quantizer q(8);
    Matrix m(4, 3);
    m.fill(0.0f);
    const float scale = q.scaleFor(m.absMax());
    q.apply(m);
    for (float v : m.raw())
        EXPECT_EQ(v, 0.0f) << "scale=" << scale;
}
