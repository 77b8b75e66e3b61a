#include "kernels/fused_layer.h"

#include "common/assert.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

void
fusedLayerTraining(const CsrGraph &graph, const DenseMatrix &in,
                   const AggregationSpec &spec, const UpdateOp &update,
                   DenseMatrix &aggOut, DenseMatrix &out,
                   std::span<const VertexId> order,
                   const FusedConfig &config)
{
    fusedLayer(graph, in, spec, update, out, {&aggOut}, order, config);
}

void
fusedLayerTrainingCompressed(const CsrGraph &graph,
                             const CompressedMatrix &in,
                             const AggregationSpec &spec,
                             const UpdateOp &update, DenseMatrix &aggOut,
                             DenseMatrix &out,
                             CompressedMatrix *outCompressed,
                             std::span<const VertexId> order,
                             const FusedConfig &config)
{
    fusedLayer(graph, in, spec, update, out, {&aggOut, outCompressed},
               order, config);
}

void
unfusedLayer(const CsrGraph &graph, const DenseMatrix &in,
             const AggregationSpec &spec, const UpdateOp &update,
             DenseMatrix &aggOut, DenseMatrix &out,
             std::span<const VertexId> order,
             const AggregationConfig &config)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    aggregateBasic(graph, in, aggOut, spec, order, config);
    if (update.packedWeights)
        gemm(GemmMode::NN, aggOut, *update.packedWeights, out);
    else
        gemm(GemmMode::NN, aggOut, *update.weights, out);
    if (!update.bias.empty())
        addBias(out, update.bias);
    if (update.relu)
        reluForward(out);
}

} // namespace graphite
