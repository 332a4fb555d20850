#include "partition.h"

#include <sstream>

#include "nn/conv1d.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "util/logging.h"

namespace swordfish::arch {

TileGrid::TileGrid(std::size_t rows, std::size_t cols, std::size_t size)
    : rows(rows), cols(cols), size(size)
{
    if (size == 0)
        panic("TileGrid: crossbar size must be positive");
    rowTiles = (rows + size - 1) / size;
    colTiles = (cols + size - 1) / size;
}

namespace {

VmmSite
makeSite(const nn::Parameter& weight, VmmKind kind, std::size_t crossbar_size)
{
    return {TileGrid(weight.value.rows(), weight.value.cols(),
                     crossbar_size),
            weight.name, kind};
}

} // namespace

PartitionMap
buildPartitionMap(nn::SequenceModel& model, std::size_t crossbar_size)
{
    if (crossbar_size == 0)
        fatal("buildPartitionMap: crossbar size must be positive");

    PartitionMap map;
    map.crossbarSize = crossbar_size;

    for (std::size_t i = 0; i < model.layerCount(); ++i) {
        nn::Module& layer = model.layer(i);
        if (auto* conv = dynamic_cast<nn::Conv1d*>(&layer)) {
            map.sites.push_back(makeSite(conv->weight(),
                                         VmmKind::Convolution,
                                         crossbar_size));
        } else if (auto* lstm = dynamic_cast<nn::Lstm*>(&layer)) {
            map.sites.push_back(makeSite(lstm->inputWeight(),
                                         VmmKind::LstmInput, crossbar_size));
            map.sites.push_back(makeSite(lstm->recurrentWeight(),
                                         VmmKind::LstmRecurrent,
                                         crossbar_size));
        } else if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
            map.sites.push_back(makeSite(linear->weight(), VmmKind::Linear,
                                         crossbar_size));
        }
        // Activation layers have no VMM weights: they run on the digital
        // peripheral units (paper Section 3.2 step 1).
    }
    return map;
}

std::string
PartitionMap::describe() const
{
    std::ostringstream oss;
    oss << "Partition & Map onto " << crossbarSize << "x" << crossbarSize
        << " crossbars:\n";
    for (const VmmSite& s : sites) {
        oss << "  " << s.name << " [" << s.rows << "x" << s.cols << "] ("
            << vmmKindName(s.kind) << ") -> " << s.rowTiles << "x"
            << s.colTiles << " = " << s.tileCount() << " tile(s)\n";
    }
    oss << "  total: " << totalTiles() << " tiles, " << totalMappedWeights()
        << " mapped weights\n";
    return oss.str();
}

} // namespace swordfish::arch
