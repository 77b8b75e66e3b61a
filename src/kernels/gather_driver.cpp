/**
 * @file
 * The one gather driver behind every aggregation and fused kernel.
 *
 * Algorithm 1 is gather→reduce per vertex; Algorithm 2 runs the same
 * gather per block of B vertices and feeds the block to the update
 * micro-GEMM. The driver here is that loop, written once and
 * parameterised two ways:
 *  - a *row source* (fp32, bf16 or compressed rows) gathers one vertex
 *    into an fp32 row, prefetches a vertex's neighbours, and reports
 *    the stored bytes of one gathered row;
 *  - a *schedule* (kernels/aggregation.h) supplies the order and the
 *    segments tasks are carved from (one segment for flat execution,
 *    one per shard for shard-major execution).
 * aggregate() and the fused entries differ only in the sink that
 * receives each gathered block. Delayed-halo aggregation, the one
 * genuinely different algorithm, sits at the end of the file.
 */

#include <algorithm>
#include <cstring>

#include "common/aligned_buffer.h"
#include "common/assert.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/bf16_matrix.h"
#include "tensor/gemm.h"

namespace graphite {

namespace {

/** Fp32 padded width of one gathered row. */
std::size_t
paddedWidth(std::size_t cols)
{
    return (cols + kFloatsPerLine - 1) / kFloatsPerLine * kFloatsPerLine;
}

// ---------------------------------------------------------------------
// Row sources.
// ---------------------------------------------------------------------

/** Fp32 rows through the register-resident per-width kernels. */
struct DenseRows
{
    const DenseMatrix &m;
    std::size_t prefetchLines;

    void
    gather(const CsrGraph &graph, const AggregationSpec &spec, VertexId v,
           Feature *dst) const
    {
        aggregateVertex(graph, m, v, spec, dst);
    }

    /** Algorithm 1 lines 8-9: the first lines of every neighbour row. */
    void
    prefetch(const CsrGraph &graph, VertexId v) const
    {
        for (VertexId u : graph.neighbors(v)) {
            const char *base = reinterpret_cast<const char *>(m.row(u));
            for (std::size_t l = 0; l < prefetchLines; ++l)
                __builtin_prefetch(base + l * kCacheLineBytes, 0, 3);
        }
    }

    std::uint64_t rowBytes() const { return m.rowBytes(); }
};

/** Bf16 rows, widened to fp32 in registers (2 bytes per element). */
struct Bf16Rows
{
    const Bf16Matrix &m;
    /** Fp32 block-row width; never wider than the bf16 source rows. */
    std::size_t width;

    void
    gather(const CsrGraph &graph, const AggregationSpec &spec, VertexId v,
           Feature *dst) const
    {
        aggregateVertexBf16(graph, m, v, spec, dst, width);
    }

    void
    prefetch(const CsrGraph &graph, VertexId v) const
    {
        for (VertexId u : graph.neighbors(v))
            __builtin_prefetch(m.row(u), 0, 3);
    }

    std::uint64_t rowBytes() const { return m.rowBytes(); }
};

/** Mask-compressed rows expanded on the fly (sum reduction only). */
struct PackedRows
{
    const CompressedMatrix &m;

    void
    gather(const CsrGraph &graph, const AggregationSpec &spec, VertexId v,
           Feature *dst) const
    {
        // Start from zero and accumulate the self term too, so the
        // expanded zeros never clobber anything.
        std::fill(dst, dst + m.rowStride(), 0.0f);
        m.accumulateRow(v, spec.selfFactor(v), dst);
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            m.accumulateRow(graph.colIdx()[e], spec.edgeFactor(e), dst);
    }

    void
    prefetch(const CsrGraph &graph, VertexId v) const
    {
        for (VertexId u : graph.neighbors(v)) {
            __builtin_prefetch(m.values(u), 0, 3);
            __builtin_prefetch(m.mask(u), 0, 3);
        }
    }

    /**
     * Mean stored bytes of one packed row (values + mask): traffic
     * depends on each row's sparsity, so counters use the average.
     */
    std::uint64_t
    rowBytes() const
    {
        return m.rows() > 0 ? m.compressedTrafficBytes() / m.rows() : 0;
    }
};

/** Call @p fn with the typed row source behind @p in. */
template <typename Fn>
void
withRows(const FeatureRows &in, const AggregationConfig &config, Fn &&fn)
{
    if (in.packed)
        fn(PackedRows{*in.packed});
    else if (in.bf16)
        fn(Bf16Rows{*in.bf16, paddedWidth(in.bf16->cols())});
    else
        fn(DenseRows{*in.fp32, config.prefetchLines});
}

/** Entry checks shared by every kernel. */
void
checkGather(const CsrGraph &graph, const FeatureRows &in,
            const AggregationSpec &spec, const Schedule &schedule,
            const char *where)
{
    const std::size_t n = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == n, "feature row count mismatch");
    GRAPHITE_ASSERT(schedule.order.empty() || schedule.order.size() == n,
                    "order must cover all vertices");
    GRAPHITE_ASSERT(schedule.segments.empty() ||
                        (schedule.segments.front() == 0 &&
                         schedule.segments.back() == n),
                    "schedule segments must span all vertices");
    GRAPHITE_ASSERT(in.packed == nullptr || spec.reduce == ReduceOp::Sum,
                    "compressed aggregation supports sum reduction");
    GRAPHITE_DCHECK(in.fp32 == nullptr ||
                        reinterpret_cast<std::uintptr_t>(in.fp32->data()) %
                                kFeatureAlignment == 0,
                    "input features must be cache-line aligned");
    if (const char *error = validateSpec(spec, graph))
        panic("%s: %s", where, error);
}

// ---------------------------------------------------------------------
// Tasks and the driver loop.
// ---------------------------------------------------------------------

/**
 * A schedule's segments carved into tasks of at most @p chunk
 * positions, segment by segment, so no task straddles a segment (and,
 * under a shard schedule, a worker's feature slice stays within one
 * shard). Holds no storage: the steady state stays allocation-free.
 */
class Tasks
{
  public:
    struct Task
    {
        std::size_t segment;
        std::size_t begin;
        std::size_t end;
    };

    Tasks(const Schedule &schedule, std::size_t n, std::size_t chunk)
        : segments_(schedule.segments), n_(n),
          chunk_(std::max<std::size_t>(1, chunk))
    {
        for (std::size_t s = 0; s < numSegments(); ++s)
            count_ += tasksIn(s);
    }

    std::size_t size() const { return count_; }

    /** Task @p t: chunk t' of the segment its index falls into. */
    Task
    operator[](std::size_t t) const
    {
        std::size_t s = 0;
        while (t >= tasksIn(s)) {
            t -= tasksIn(s);
            ++s;
        }
        const std::size_t begin = bound(s) + t * chunk_;
        return {s, begin, std::min(begin + chunk_, bound(s + 1))};
    }

  private:
    std::size_t
    numSegments() const
    {
        return segments_.empty() ? 1 : segments_.size() - 1;
    }

    std::size_t
    bound(std::size_t s) const
    {
        return segments_.empty() ? (s == 0 ? 0 : n_) : segments_[s];
    }

    std::size_t
    tasksIn(std::size_t s) const
    {
        return (bound(s + 1) - bound(s) + chunk_ - 1) / chunk_;
    }

    std::span<const std::size_t> segments_;
    std::size_t n_;
    std::size_t chunk_;
    std::size_t count_ = 0;
};

/** Where one driver run's per-task accounting goes (null: not fed). */
struct Ledger
{
    const char *taskSpan;
    obs::Counter *bytes;
    obs::Counter *shardBytes;
    obs::Counter *flops;
    obs::Histogram *taskMicros;
    /** Update-GEMM FLOPs per vertex (0 when aggregating only). */
    std::uint64_t updateFlopsPerRow;
};

/**
 * The driver: runs @p schedule's tasks of @p taskVertices positions on
 * the pool; per block of @p blockSize positions it gathers every
 * vertex from @p rows into the row the task's sink names, then flushes
 * the block to the sink. @p openSink runs once per task on the worker
 * that owns it and returns the sink, an object with
 * `Feature *row(m, v)` and `void flush(firstPosition, numRows)`.
 */
template <typename Rows, typename OpenSink>
void
runGather(const CsrGraph &graph, const Rows &rows,
          const AggregationSpec &spec, const Schedule &schedule,
          std::size_t taskVertices, std::size_t blockSize,
          std::size_t prefetchDistance, std::size_t cols,
          const Ledger &ledger, OpenSink &&openSink)
{
    const Tasks tasks(schedule, graph.numVertices(), taskVertices);
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    const std::uint64_t rowBytes =
        ledger.bytes || ledger.shardBytes ? rows.rowBytes() : 0;

    parallelFor(0, tasks.size(), 1,
                [&](std::size_t taskBegin, std::size_t taskEnd,
                    std::size_t) {
        for (std::size_t t = taskBegin; t < taskEnd; ++t) {
            GRAPHITE_TRACE_SPAN(ledger.taskSpan);
            const Tasks::Task task = tasks[t];
            const bool metricsOn = metrics.enabled();
            const obs::TraceNs taskStart =
                metricsOn ? obs::TraceRecorder::now() : 0;
            std::uint64_t rowsPulled = 0;
            auto sink = openSink();
            for (std::size_t j = task.begin; j < task.end; j += blockSize) {
                const std::size_t blockRows =
                    std::min(j + blockSize, task.end) - j;
                // Aggregation phase of the block (Algorithm 2 lines 3-7).
                for (std::size_t m = 0; m < blockRows; ++m) {
                    const std::size_t i = j + m;
                    const VertexId v = schedule.vertex(i);
                    rows.gather(graph, spec, v, sink.row(m, v));
                    if (metricsOn)
                        rowsPulled += graph.degree(v) + 1;
                    if (prefetchDistance > 0 &&
                        i + prefetchDistance < task.end)
                        rows.prefetch(graph,
                                      schedule.vertex(i + prefetchDistance));
                }
                sink.flush(j, blockRows);
            }
            if (metricsOn) {
                const std::uint64_t bytes = rowsPulled * rowBytes;
                if (ledger.bytes)
                    ledger.bytes->add(bytes);
                if (ledger.shardBytes)
                    ledger.shardBytes->add(bytes);
                ledger.flops->add(2 * rowsPulled * cols +
                                  ledger.updateFlopsPerRow *
                                      (task.end - task.begin));
                if (ledger.taskMicros)
                    ledger.taskMicros->observe(
                        (obs::TraceRecorder::now() - taskStart) / 1000);
            }
        }
    });
}

/** Aggregate-only sink: gathers land straight in the output rows. */
struct DirectSink
{
    DenseMatrix &out;

    Feature *row(std::size_t, VertexId v) const { return out.row(v); }
    void flush(std::size_t, std::size_t) const {}
};

/** Algorithm 2's update phase, shared read-only by every task. */
struct BlockUpdate
{
    const GemmPlan &plan;
    std::span<const Feature> bias;
    bool relu;
    std::size_t inCols;
    /** Block-row stride; matches the matrices so rows memcpy whole. */
    std::size_t aggStride;
    DenseMatrix &out;
    const FusedOutputs &outputs;
    const Schedule &schedule;
};

/** Apply bias and ReLU to @p numRows block rows in place. */
void
finishUpdateBlock(Feature *rows, std::size_t numRows, std::size_t stride,
                  std::size_t cols, std::span<const Feature> bias,
                  bool relu)
{
    for (std::size_t r = 0; r < numRows; ++r) {
        Feature *row = rows + r * stride;
        if (!bias.empty()) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] += bias[c];
        }
        if (relu) {
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                row[c] = std::max(row[c], 0.0f);
        }
        // Re-zero the padding tail: the scratch row may carry stale
        // values from an earlier, wider layer, and the block is
        // memcpy'd (and possibly compressed) at full stride.
        for (std::size_t c = cols; c < stride; ++c)
            row[c] = 0.0f;
    }
}

/** Fused sink: the worker's block buffers plus the shared update. */
struct UpdateSink
{
    const BlockUpdate &update;
    Feature *agg;
    Feature *upd;

    Feature *
    row(std::size_t m, VertexId) const
    {
        return agg + m * update.aggStride;
    }

    void
    flush(std::size_t first, std::size_t rows) const
    {
        const BlockUpdate &u = update;
        const FusedOutputs &outputs = u.outputs;
        const std::size_t outStride = u.out.rowStride();
        if (outputs.aggOut) {
            // Training keeps the whole a^k for back-propagation
            // (Figure 5b): write the block out, indexed by vertex.
            for (std::size_t m = 0; m < rows; ++m) {
                std::memcpy(outputs.aggOut->row(u.schedule.vertex(first + m)),
                            agg + m * u.aggStride,
                            u.aggStride * sizeof(Feature));
            }
        }
        // Update phase of the block (Algorithm 2 lines 8-10).
        gemmBlockSerial(agg, rows, u.aggStride, u.plan, upd, outStride,
                        u.inCols);
        finishUpdateBlock(upd, rows, outStride, u.out.cols(), u.bias,
                          u.relu);
        for (std::size_t m = 0; m < rows; ++m) {
            const VertexId v = u.schedule.vertex(first + m);
            const Feature *row = upd + m * outStride;
            std::memcpy(u.out.row(v), row, outStride * sizeof(Feature));
            if (outputs.outCompressed)
                outputs.outCompressed->compressRowFrom(v, row);
            if (outputs.outBf16)
                convertRowToBf16(row, outputs.outBf16->cols(),
                                 outputs.outBf16->row(v));
        }
    }
};

/**
 * Per-worker grow-only block buffers (Figure 5c's single reusable
 * buffer). Pool workers persist across layer calls and epochs, so
 * after warm-up these never allocate — part of the allocation-free
 * steady-state contract of the training loop. Two distinct buffers
 * because a task needs both live at once; the halo replica of the
 * delayed-halo algorithm is a third.
 */
template <int Slot>
Feature *
threadScratch(std::size_t count)
{
    thread_local AlignedBuffer<Feature> buf;
    if (buf.size() < count)
        buf.resize(count);
    return buf.data();
}

/** Algorithm 2 over any row source and schedule (forward or backward). */
void
runFused(const CsrGraph &graph, const FeatureRows &in,
         const AggregationSpec &spec, const GemmPlan &plan,
         std::span<const Feature> bias, bool relu, DenseMatrix &out,
         const FusedOutputs &outputs, const Schedule &schedule,
         const FusedConfig &config, const AggregationConfig &gather)
{
    GRAPHITE_ASSERT(schedule.delayedHalo == nullptr,
                    "fused kernels have no delayed-halo variant");
    // The same packed operand multiplies every vertex block (packed
    // once per call or reused from the layer's cached plan) and is
    // shared read-only by every task's micro-kernel.
    if (const char *error = plan.validateFor(in.cols(), out.cols()))
        panic("fused layer weight plan: %s", error);
    const std::size_t blockSize =
        std::max<std::size_t>(1, config.blockSize);
    const std::size_t taskVertices =
        blockSize * std::max<std::size_t>(1, config.blocksPerTask);
    const BlockUpdate update{plan, bias, relu, in.cols(),
                             paddedWidth(in.cols()), out, outputs,
                             schedule};

    // Per-task accounting (paper Fig. 13's per-phase byte/FLOP story):
    // rows gathered feed the bytes counter, aggregation + micro-GEMM
    // FLOPs feed the other. Near-no-op when the registry is disabled.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytes = metrics.counter("fused.bytes_gathered");
    static obs::Counter &shardBytes =
        metrics.counter("partition.bytes_gathered");
    static obs::Counter &flops = metrics.counter("fused.flops");
    static obs::Histogram &blockMicros =
        metrics.histogram("fused.block_us");
    const bool sharded = !schedule.segments.empty();
    const Ledger ledger{sharded ? "partition.shard" : "fused.block",
                        &bytes, sharded ? &shardBytes : nullptr, &flops,
                        &blockMicros, 2 * in.cols() * out.cols()};
    withRows(in, gather, [&](const auto &rows) {
        runGather(graph, rows, spec, schedule, taskVertices, blockSize,
                  gather.prefetchDistance, in.cols(), ledger, [&] {
            return UpdateSink{update,
                              threadScratch<0>(blockSize * update.aggStride),
                              threadScratch<1>(blockSize * out.rowStride())};
        });
    });
}

// ---------------------------------------------------------------------
// Delayed-halo aggregation (DistGNN-style).
// ---------------------------------------------------------------------

/** dst = op(dst, factor * src) over @p width fp32 lanes. */
void
combineRow(Feature *dst, const Feature *src, Feature factor,
           std::size_t width, ReduceOp op)
{
    if (op == ReduceOp::Sum) {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] += factor * src[c];
    } else {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] = std::max(dst[c], factor * src[c]);
    }
}

/** dst = op(dst, factor * widen(src)) over @p width bf16 lanes. */
void
combineRowBf16(Feature *dst, const std::uint16_t *src, Feature factor,
               std::size_t width, ReduceOp op)
{
    if (op == ReduceOp::Sum) {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] += factor * bf16ToFloat(src[c]);
    } else {
        #pragma omp simd
        for (std::size_t c = 0; c < width; ++c)
            dst[c] = std::max(dst[c], factor * bf16ToFloat(src[c]));
    }
}

/**
 * Phase A folds self + intra-shard terms from the local CSR
 * (shard-aligned tasks); phase B gathers each halo row once into a
 * shard-local replica and folds the cut-edge terms from the
 * cache-resident replica. Owned rows are written only by their own
 * shard in both phases, so no synchronisation is needed.
 */
template <typename InitSelfFn, typename AccumulateFn, typename ReplicaFn>
void
delayedHalo(const PartitionPlan &plan, std::size_t width,
            std::size_t rowBytes, DenseMatrix &out,
            const AggregationSpec &spec, const AggregationConfig &config,
            InitSelfFn &&initSelf, AccumulateFn &&accumulate,
            ReplicaFn &&fillReplica)
{
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytesGathered =
        metrics.counter("partition.bytes_gathered");
    static obs::Counter &haloBytes =
        metrics.counter("partition.halo_bytes");

    const Tasks tasks(Schedule(plan), plan.graph->numVertices(),
                      config.taskSize);
    parallelFor(0, tasks.size(), 1,
                [&](std::size_t taskBegin, std::size_t taskEnd,
                    std::size_t) {
        const bool metricsOn = metrics.enabled();
        for (std::size_t t = taskBegin; t < taskEnd; ++t) {
            GRAPHITE_TRACE_SPAN("partition.shard");
            const Tasks::Task task = tasks[t];
            const Shard &shard = plan.shards[task.segment];
            std::uint64_t rowsPulled = 0;
            for (std::size_t i = task.begin; i < task.end; ++i) {
                const VertexId v = plan.shardMajorOrder[i];
                const VertexId local = static_cast<VertexId>(
                    i - plan.ownedStart[task.segment]);
                Feature *dst = out.row(v);
                initSelf(v, dst);
                const EdgeId intraEnd = shard.cutStart[local];
                for (EdgeId idx = shard.localCsr.rowBegin(local);
                     idx < intraEnd; ++idx) {
                    const VertexId u =
                        shard.vertices[shard.localCsr.colIdx()[idx]];
                    accumulate(u, spec.edgeFactor(shard.globalEdge[idx]),
                               dst);
                }
                if (metricsOn) {
                    rowsPulled += 1 + (intraEnd -
                                       shard.localCsr.rowBegin(local));
                }
            }
            if (metricsOn)
                bytesGathered.add(rowsPulled * rowBytes);
        }
    });

    parallelFor(0, plan.numShards(), 1,
                [&](std::size_t shardBegin, std::size_t shardEnd,
                    std::size_t) {
        const bool metricsOn = metrics.enabled();
        for (std::size_t s = shardBegin; s < shardEnd; ++s) {
            const Shard &shard = plan.shards[s];
            const VertexId numHalo = shard.numHalo();
            if (numHalo == 0)
                continue;
            GRAPHITE_TRACE_SPAN("partition.shard");
            Feature *replica = threadScratch<2>(numHalo * width);
            for (VertexId h = 0; h < numHalo; ++h) {
                fillReplica(shard.vertices[shard.numOwned + h],
                            replica + h * width);
            }
            if (metricsOn) {
                const std::uint64_t pulled =
                    static_cast<std::uint64_t>(numHalo) * rowBytes;
                haloBytes.add(pulled);
                bytesGathered.add(pulled);
            }
            for (VertexId r = 0; r < shard.numOwned; ++r) {
                const EdgeId rowEnd = shard.localCsr.rowEnd(r);
                if (shard.cutStart[r] == rowEnd)
                    continue;
                Feature *dst = out.row(shard.vertices[r]);
                for (EdgeId idx = shard.cutStart[r]; idx < rowEnd;
                     ++idx) {
                    const VertexId h =
                        shard.localCsr.colIdx()[idx] - shard.numOwned;
                    combineRow(dst, replica + h * width,
                               spec.edgeFactor(shard.globalEdge[idx]),
                               width, spec.reduce);
                }
            }
        }
    });
}

/** Delayed-halo aggregation of fp32 or bf16 rows over @p plan. */
void
aggregateDelayedHalo(const PartitionPlan &plan, const FeatureRows &in,
                     DenseMatrix &out, const AggregationSpec &spec,
                     const AggregationConfig &config)
{
    const std::size_t width = paddedWidth(in.cols());
    if (in.fp32) {
        const DenseMatrix &m = *in.fp32;
        delayedHalo(
            plan, width, m.rowBytes(), out, spec, config,
            [&](VertexId v, Feature *dst) {
                const Feature *src = m.row(v);
                const Feature factor = spec.selfFactor(v);
                #pragma omp simd
                for (std::size_t c = 0; c < width; ++c)
                    dst[c] = factor * src[c];
            },
            [&](VertexId u, Feature factor, Feature *dst) {
                combineRow(dst, m.row(u), factor, width, spec.reduce);
            },
            [&](VertexId u, Feature *dst) {
                std::memcpy(dst, m.row(u), width * sizeof(Feature));
            });
    } else if (in.bf16) {
        const Bf16Matrix &m = *in.bf16;
        delayedHalo(
            plan, width, m.rowBytes(), out, spec, config,
            [&](VertexId v, Feature *dst) {
                const std::uint16_t *src = m.row(v);
                const Feature factor = spec.selfFactor(v);
                #pragma omp simd
                for (std::size_t c = 0; c < width; ++c)
                    dst[c] = factor * bf16ToFloat(src[c]);
            },
            [&](VertexId u, Feature factor, Feature *dst) {
                combineRowBf16(dst, m.row(u), factor, width, spec.reduce);
            },
            [&](VertexId u, Feature *dst) {
                convertRowFromBf16(m.row(u), width, dst);
            });
    } else {
        panic("aggregate: delayed-halo aggregation reads fp32 or bf16 "
              "rows");
    }
}

} // namespace

// ---------------------------------------------------------------------
// Entries.
// ---------------------------------------------------------------------

void
aggregate(const CsrGraph &graph, FeatureRows in, DenseMatrix &out,
          const AggregationSpec &spec, const Schedule &schedule,
          const AggregationConfig &config)
{
    checkGather(graph, in, spec, schedule, "aggregate");
    GRAPHITE_ASSERT(out.rows() == in.rows() && out.cols() == in.cols(),
                    "out shape mismatch");
    const bool sharded = !schedule.segments.empty();
    GRAPHITE_TRACE_SPAN(sharded     ? "agg.sharded"
                        : in.packed ? "agg.compressed"
                        : in.bf16   ? "agg.bf16"
                                    : "agg.basic");
    if (schedule.delayedHalo) {
        GRAPHITE_ASSERT(schedule.delayedHalo->graph == &graph,
                        "partition plan built for another graph");
        aggregateDelayedHalo(*schedule.delayedHalo, in, out, spec, config);
        return;
    }

    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytes = metrics.counter("agg.bytes_gathered");
    static obs::Counter &shardBytes =
        metrics.counter("partition.bytes_gathered");
    static obs::Counter &flops = metrics.counter("agg.flops");
    // Compressed rows are not byte-counted here; consumers of these
    // counters add them at the mean packed row size.
    const bool countBytes = in.packed == nullptr;
    const Ledger ledger{sharded ? "partition.shard" : "agg.block",
                        countBytes ? &bytes : nullptr,
                        countBytes && sharded ? &shardBytes : nullptr,
                        &flops, nullptr, 0};
    withRows(in, config, [&](const auto &rows) {
        runGather(graph, rows, spec, schedule, config.taskSize,
                  std::max<std::size_t>(1, config.taskSize),
                  config.prefetchDistance, in.cols(), ledger,
                  [&] { return DirectSink{out}; });
    });
}

void
fusedLayer(const CsrGraph &graph, FeatureRows in,
           const AggregationSpec &spec, const UpdateOp &update,
           DenseMatrix &out, const FusedOutputs &outputs,
           const Schedule &schedule, const FusedConfig &config,
           const AggregationConfig &gather)
{
    GRAPHITE_TRACE_SPAN("fused.forward");
    checkGather(graph, in, spec, schedule, "fusedLayer");
    GRAPHITE_ASSERT(outputs.aggOut == nullptr ||
                        (outputs.aggOut->rows() == in.rows() &&
                         outputs.aggOut->cols() == in.cols()),
                    "aggOut shape mismatch");
    GRAPHITE_ASSERT(outputs.outBf16 == nullptr ||
                        (outputs.outBf16->rows() == out.rows() &&
                         outputs.outBf16->cols() == out.cols()),
                    "outBf16 shape mismatch");
    // The caller's cached plan when present, else a local pack of W.
    GemmPlan localPlan;
    const GemmPlan *plan = update.packedWeights;
    if (plan != nullptr) {
        GRAPHITE_ASSERT(plan->precision() == update.precision,
                        "cached weight plan precision mismatch");
    } else {
        GRAPHITE_ASSERT(update.weights != nullptr,
                        "update weights required");
        localPlan.pack(GemmMode::NN, *update.weights, update.precision);
        plan = &localPlan;
    }
    runFused(graph, in, spec, *plan, update.bias, update.relu, out, outputs,
             schedule, config, gather);
}

void
fusedLayerBackward(const CsrGraph &transposed, FeatureRows dz,
                   const AggregationSpec &transposedSpec,
                   const GemmPlan &weightsNT, DenseMatrix &gradIn,
                   const Schedule &schedule, const FusedConfig &config,
                   const AggregationConfig &gather)
{
    GRAPHITE_TRACE_SPAN("fused.backward");
    checkGather(transposed, dz, transposedSpec, schedule,
                "fusedLayerBackward");
    GRAPHITE_ASSERT(gradIn.rows() == dz.rows(), "gradIn row mismatch");
    // The commutation is only valid for a linear aggregation; Max-reduce
    // backward needs argmax state the forward never saves.
    GRAPHITE_ASSERT(transposedSpec.reduce == ReduceOp::Sum,
                    "fused backward requires a sum-reduce aggregation");
    runFused(transposed, dz, transposedSpec, weightsNT, {}, false, gradIn,
             {}, schedule, config, gather);
}

} // namespace graphite
