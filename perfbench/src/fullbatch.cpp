/**
 * @file
 * fullbatch-train: `graphite_cli --mode=train` defaults on the products
 * analogue at full scale (--scale-shift=0): GCN, widths 64 -> 128 -> 8,
 * technique `combined`, fp32, learning rate 0.3, dropout 0.5.
 *
 * Untraced run: set up kSetupRepeats / 2 times (dataset, task, model,
 * trainer and the first epoch), then a fixed number of rounds,
 * proportional to --seconds, of one steady epoch through
 * Trainer::trainEpoch and one full-graph GnnModel::inference, then set
 * up kSetupRepeats / 2 more times; setup_s is the median of all
 * set-ups.
 *
 * Traced run: one set-up, one epoch with the library's counters on
 * (fullbatch.bytes_gathered), untraced epochs, the same number of epochs
 * replayed through GnnModel's public phases under benchmark spans
 * (model.*.s, trace.overhead_frac), then each layer's aggregate, update,
 * fused and backward kernels timed on the trained weights and read
 * against the host peaks.
 */

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/timer.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace graphite;

constexpr std::size_t kFeatures = 64;
constexpr std::size_t kHidden = 128;
constexpr std::size_t kClasses = 8;
constexpr float kLearningRate = 0.3f;
/**
 * Set-ups per untraced run, half before the rounds and half after
 * them; setup_s is their median.
 */
constexpr std::size_t kSetupRepeats = 4;
/**
 * Rounds (one steady epoch, then one inference pass) per second of
 * --seconds: a fixed count, so every run, and every commit compared,
 * trains the same epochs and evaluates the same model states. Sized so
 * a run measures about --seconds on a 4-vCPU host.
 */
constexpr double kRoundsPerSecond = 1.8;
constexpr int kCellRepeats = 5;
/**
 * `combined` differs from `basic` only in summation order (fusion) and
 * a lossless packing (compression), so their logits agree to rounding.
 */
constexpr double kLogitTolerance = 1e-4;

/** Everything one set-up builds; heap-pinned (the model keeps pointers). */
struct Fullbatch
{
    // The graph is the CLI's products analogue, fixed like a real
    // dataset; the seed draws the task (features, labels) and the
    // initial weights and dropout masks. Seed 1 reproduces the CLI.
    explicit Fullbatch(std::uint64_t seed)
        : dataset(makeDataset(DatasetId::Products, 0)),
          task(makeSyntheticTask(dataset.graph, kClasses, kFeatures, 0.4,
                                 seed + 10)),
          model(dataset.graph, modelConfig(seed)),
          trainer(model, task.features, task.labels, trainerConfig())
    {
        firstLoss = trainer.trainEpoch().loss;
    }

    static GnnModelConfig
    modelConfig(std::uint64_t seed)
    {
        GnnModelConfig config;
        config.kind = GnnKind::Gcn;
        config.featureWidths = {kFeatures, kHidden, kClasses};
        config.dropoutRate = 0.5;
        config.seed = seed + 6;
        return config;
    }

    static TrainerConfig
    trainerConfig()
    {
        TrainerConfig config;
        config.learningRate = kLearningRate;
        config.tech = TechniqueConfig::combined();
        return config;
    }

    Dataset dataset;
    SyntheticTask task;
    GnnModel model;
    Trainer trainer;
    double firstLoss = 0.0;
};

std::size_t
workCount(double seconds)
{
    return std::max<std::size_t>(
        5, static_cast<std::size_t>(std::lround(seconds * kRoundsPerSecond)));
}

/** CPU time of every thread of the process so far. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

std::unique_ptr<Fullbatch>
setUp(std::uint64_t seed, std::vector<double> &setupSeconds)
{
    Timer timer;
    auto fb = std::make_unique<Fullbatch>(seed);
    setupSeconds.push_back(timer.seconds());
    return fb;
}

/**
 * The output checks of both run kinds: the loss must have fallen since
 * the set-up epoch, and `combined` logits must match `basic` on the
 * same weights.
 */
void
checkOutputs(Fullbatch &fb, double lastLoss, std::size_t epochs,
             Result &result)
{
    const bool lossFell = lastLoss < fb.firstLoss;
    std::printf("check: loss %.4f after set-up epoch, %.4f after %zu more "
                "(%s)\n",
                fb.firstLoss, lastLoss, epochs,
                lossFell ? "falls" : "DOES NOT FALL");
    result.check(1, lossFell ? 0 : 1);

    const DenseMatrix combined =
        fb.model.inference(fb.task.features, TechniqueConfig::combined());
    const DenseMatrix &basic =
        fb.model.inference(fb.task.features, TechniqueConfig::basic());
    const double diff = combined.maxAbsDiff(basic);
    std::printf("check: max |logit diff| combined vs basic %.3g "
                "(tolerance %.0e)\n",
                diff, kLogitTolerance);
    result.check(1, diff <= kLogitTolerance ? 0 : 1);
}

std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** Library counters read around one call made with metrics on. */
struct Counted
{
    std::uint64_t gathered = 0;
    std::uint64_t flops = 0;
};

template <typename Fn>
Counted
countCall(Fn &&fn)
{
    const auto read = [] {
        return Counted{counterValue("agg.bytes_gathered") +
                           counterValue("fused.bytes_gathered"),
                       counterValue("agg.flops") + counterValue("fused.flops") +
                           counterValue("gemm.flops")};
    };
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.setEnabled(true);
    const Counted before = read();
    fn();
    const Counted after = read();
    metrics.setEnabled(false);
    return {after.gathered - before.gathered, after.flops - before.flops};
}

/** One per-layer, per-phase ledger cell. */
struct Cell
{
    std::string name;
    double seconds = 0.0;
    double bytes = 0.0;
    double flops = 0.0;
    /** Rate is GFLOP/s against the GEMM peak instead of GB/s. */
    bool computeBound = false;
};

/**
 * Time @p fn (median of kCellRepeats spans after one counted call);
 * @p prepare runs untimed before each call. @p denseBytes is the
 * computed dense traffic added to the gathered bytes the library
 * counted.
 */
template <typename Prepare, typename Fn>
Cell
timeCell(Tracer &tracer, std::string name, double denseBytes,
         bool computeBound, Prepare &&prepare, Fn &&fn)
{
    prepare();
    const Counted counted = countCall(fn);
    Cell cell;
    cell.name = std::move(name);
    for (int rep = 0; rep < kCellRepeats; ++rep) {
        prepare();
        ScopedSpan span(tracer, "layer.cell");
        fn();
    }
    std::vector<double> durations = tracer.durations("layer.cell");
    durations.erase(durations.begin(),
                    durations.end() - kCellRepeats);
    cell.seconds = median(durations);
    cell.bytes = static_cast<double>(counted.gathered) + denseBytes;
    cell.flops = static_cast<double>(counted.flops);
    cell.computeBound = computeBound;
    return cell;
}

void
measureCells(Fullbatch &fb, Tracer &tracer, std::vector<Cell> &cells)
{
    const CsrGraph &graph = fb.dataset.graph;
    const AggregationSpec &spec = fb.model.spec();
    const CsrGraph transposed = graph.transposed();
    const AggregationSpec transposedSpec =
        transposeSpec(graph, spec, transposed);
    const TechniqueConfig tech = TechniqueConfig::combined();
    const auto n = static_cast<double>(graph.numVertices());
    const DenseMatrix &features = fb.task.features;

    // Layer inputs as the `combined` forward sees them (dropout off):
    // dense features into layer 0, packed hidden rows into layer 1.
    std::vector<LayerContext> ctx(2);
    fb.model.layer(0).forwardTraining(graph, spec, features, nullptr,
                                      nullptr, ctx[0], {}, nullptr, tech);
    fb.model.layer(1).forwardTraining(graph, spec, ctx[0].output,
                                      &ctx[0].outputCompressed, nullptr,
                                      ctx[1], {}, nullptr, tech);

    for (std::size_t k = 0; k < 2; ++k) {
        GnnLayer &layer = fb.model.layer(k);
        const GnnLayer &constLayer = layer;
        const GemmPlan &plan = constLayer.packedWeights(tech.precision);
        const UpdateOp update{&constLayer.weights(), constLayer.bias(),
                              constLayer.hasRelu(), &plan, tech.precision};
        const std::size_t fin = layer.inFeatures();
        const std::size_t fout = layer.outFeatures();
        DenseMatrix agg(graph.numVertices(), fin);
        DenseMatrix out(graph.numVertices(), fout);
        const double aggRow = static_cast<double>(agg.rowBytes());
        const double outRow = static_cast<double>(out.rowBytes());
        const double weightBytes = static_cast<double>(plan.packedBytes());
        const std::string prefix = "L" + std::to_string(k) + ".";
        const auto nothing = [] {};

        // aggregateCompressed does not count its gathers; they are
        // (|E| + |V|) rows at the packed matrix's mean stored row size,
        // as the fused compressed kernel counts them.
        const double packedGathers =
            k == 0 ? 0.0
                   : (static_cast<double>(graph.numEdges()) + n) *
                         static_cast<double>(
                             ctx[0].outputCompressed.compressedTrafficBytes()) /
                         n;
        cells.push_back(timeCell(
            tracer, prefix + "aggregate", n * aggRow + packedGathers, false,
            nothing,
            [&] {
                if (k == 0)
                    aggregateBasic(graph, features, agg, spec, {}, tech.agg);
                else
                    aggregateCompressed(graph, ctx[0].outputCompressed, agg,
                                        spec, {}, tech.agg);
            }));
        cells.push_back(timeCell(
            tracer, prefix + "update", n * (aggRow + outRow) + weightBytes,
            true, nothing,
            [&] { gemm(GemmMode::NN, agg, plan, out); }));
        cells.push_back(timeCell(
            tracer, prefix + "fused", n * (aggRow + outRow) + weightBytes,
            false, nothing, [&] {
                if (k == 0)
                    fusedLayerTraining(graph, features, spec, update, agg,
                                       out, {}, tech.fused);
                else
                    fusedLayerTrainingCompressed(graph,
                                                 ctx[0].outputCompressed,
                                                 spec, update, agg, out,
                                                 nullptr, {}, tech.fused);
            }));

        // Backward from a fixed upstream gradient; backward() clobbers
        // it, so each call starts from a fresh copy (untimed).
        DenseMatrix upstream(graph.numVertices(), fout);
        upstream.fillUniform(-1e-3f, 1e-3f, 29 + k);
        DenseMatrix grad;
        DenseMatrix gradIn(graph.numVertices(), fin);
        DenseMatrix *gradInPtr = k > 0 ? &gradIn : nullptr;
        // Reads dz twice (ReLU mask, dW) and a^k once; writes dh^{k-1}.
        const double backwardDense =
            n * (2 * outRow + aggRow) + (k > 0 ? n * aggRow : 0.0);
        cells.push_back(timeCell(
            tracer, prefix + "backward", backwardDense, false,
            [&] { grad = upstream; },
            [&] {
                layer.backward(transposed, transposedSpec, ctx[k], grad,
                               gradInPtr, {}, nullptr, tech);
            }));
    }
}

/** One epoch through GnnModel's public phases, under spans. */
double
tracedEpoch(Fullbatch &fb, Tracer &tracer, DenseMatrix &lossGrad)
{
    double loss = 0.0;
    const TechniqueConfig tech = TechniqueConfig::combined();
    ScopedSpan epoch(tracer, "epoch");
    const DenseMatrix *logits = nullptr;
    {
        ScopedSpan span(tracer, "model.forward");
        logits = &fb.model.trainForward(fb.task.features, tech);
    }
    {
        ScopedSpan span(tracer, "model.loss");
        lossGrad.reshape(logits->rows(), logits->cols());
        loss = softmaxCrossEntropy(*logits, fb.task.labels, lossGrad);
        accuracy(*logits, fb.task.labels);
    }
    {
        ScopedSpan span(tracer, "model.backward");
        fb.model.trainBackward(lossGrad, tech);
    }
    {
        ScopedSpan span(tracer, "model.sgd");
        fb.model.sgdStep(kLearningRate);
    }
    return loss;
}

Result
tracedRun(const RunConfig &config)
{
    Result result;
    Tracer tracer(true);
    std::vector<double> setupSeconds;
    std::unique_ptr<Fullbatch> fb = setUp(config.seed, setupSeconds);

    // Epoch 1 with the library's counters on: gathered bytes are a
    // pure function of the seed (fixed epoch index, deterministic
    // kernels), so the count repeats exactly.
    const Counted counted = countCall([&] { fb->trainer.trainEpoch(); });
    result.add("fullbatch.bytes_gathered",
               static_cast<double>(counted.gathered), "B");

    // Untraced and traced epochs alternate, so both see the same model
    // state as training proceeds and their medians compare fairly.
    std::vector<double> untraced;
    DenseMatrix lossGrad;
    double lastLoss = 0.0;
    std::uint64_t splitBad = 0;
    for (std::size_t e = 0;
         e < workCount(config.seconds) / 2; ++e) {
        Timer epoch;
        fb->trainer.trainEpoch();
        untraced.push_back(epoch.seconds());

        lastLoss = tracedEpoch(*fb, tracer, lossGrad);
        const std::size_t epochIndex = tracer.spans().size() - 5;
        std::vector<double> phases;
        for (std::size_t p = 1; p <= 4; ++p) {
            const Tracer::Span &span = tracer.spans()[epochIndex + p];
            phases.push_back(static_cast<double>(span.endNs - span.startNs) /
                             1e9);
        }
        const Tracer::Span &epochSpan = tracer.spans()[epochIndex];
        const SplitCheck split = checkEpochSplit(
            phases,
            static_cast<double>(epochSpan.endNs - epochSpan.startNs) / 1e9);
        splitBad += split.ok ? 0 : 1;
    }
    result.check(untraced.size(), splitBad);
    result.ops(2 * untraced.size() + 1, 0);
    const double tracedEpochS = median(tracer.durations("epoch"));
    for (const char *phase :
         {"model.forward", "model.loss", "model.backward", "model.sgd"})
        result.add(std::string(phase) + ".s", median(tracer.durations(phase)),
                   "s");
    result.add("trace.overhead_frac", tracedEpochS / median(untraced) - 1.0,
               "ratio");
    std::printf("traced epoch %.4f s, untraced %.4f s, split mismatches "
                "%llu of %zu\n",
                tracedEpochS, median(untraced),
                static_cast<unsigned long long>(splitBad), untraced.size());

    checkOutputs(*fb, lastLoss, untraced.size() * 2 + 1, result);

    std::vector<Cell> cells;
    measureCells(*fb, tracer, cells);
    fb.reset();
    const HostPeaks peaks = measureHostPeaks();
    result.add("host.stream_gbps", peaks.streamGbps, "GB/s");
    result.add("host.gemm_gflops", peaks.gemmGflops, "GFLOP/s");
    for (const Cell &cell : cells) {
        const double rate = cell.computeBound
                                ? cell.flops / cell.seconds / 1e9
                                : cell.bytes / cell.seconds / 1e9;
        const double peak =
            cell.computeBound ? peaks.gemmGflops : peaks.streamGbps;
        result.add(cell.name + ".s", cell.seconds, "s");
        result.add(cell.name + ".bytes", cell.bytes, "B");
        result.add(cell.name + ".flops", cell.flops, "FLOP");
        result.add(cell.name + ".rate", rate,
                   cell.computeBound ? "GFLOP/s" : "GB/s");
        result.add(cell.name + ".peak_frac", peak > 0.0 ? rate / peak : 0.0,
                   "ratio");
    }
    if (!config.traceOut.empty()) {
        std::string json = "[";
        tracer.appendJson(json, "main");
        json += "]\n";
        writeTextFile(config.traceOut, json);
    }
    return result;
}

} // namespace

Result
runFullbatchTrain(const RunConfig &config)
{
    if (config.trace)
        return tracedRun(config);

    Result result;
    std::vector<double> setupSeconds;
    std::unique_ptr<Fullbatch> fb;
    for (std::size_t rep = 0; rep < kSetupRepeats / 2; ++rep) {
        fb.reset();
        fb = setUp(config.seed, setupSeconds);
    }

    // Epochs and inference passes alternate, so both sample the host
    // over the whole run rather than one half of it each.
    std::vector<double> epochs;
    std::vector<double> losses;
    std::vector<double> passes;
    double cpuSeconds = 0.0;
    const TechniqueConfig tech = TechniqueConfig::combined();
    for (std::size_t r = 0; r < workCount(config.seconds); ++r) {
        const double cpuBefore = processCpuSeconds();
        Timer epoch;
        losses.push_back(fb->trainer.trainEpoch().loss);
        epochs.push_back(epoch.seconds());
        cpuSeconds += processCpuSeconds() - cpuBefore;

        Timer pass;
        fb->model.inference(fb->task.features, tech);
        passes.push_back(pass.seconds());
    }
    const double cpuPerEpoch = cpuSeconds / static_cast<double>(epochs.size());
    result.ops(kSetupRepeats + epochs.size() + passes.size(), 0);

    checkOutputs(*fb, losses.back(), losses.size(), result);

    // The other half of the set-ups, so setup_s samples the host at
    // both ends of the run.
    fb.reset();
    while (setupSeconds.size() < kSetupRepeats)
        setUp(config.seed, setupSeconds);

    std::printf("epoch_s %.4f s (median of %zu steady epochs; %.3f CPU s "
                "per epoch)\n",
                median(epochs), epochs.size(), cpuPerEpoch);
    std::printf("infer_s %.4f s (median of %zu passes)\n", median(passes),
                passes.size());
    result.add("setup_s", median(setupSeconds), "s");
    result.add("op_us", median(epochs) * 1e6, "us");
    result.add("aux_us", median(passes) * 1e6, "us");
    return result;
}

} // namespace perfbench
