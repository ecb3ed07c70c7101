/**
 * @file
 * Typed dataflow graph of the processing pipeline (Fig. 5).
 *
 * The paper's software pipeline is expressed ONCE as a StageGraph —
 * each stage declares its name, resource binding ("fpga"/"gpu"/"cpu"
 * lanes), dependencies, and a pluggable StageExecutor — and is then
 * retargeted to different execution substrates: analytic single-shot
 * characterization, pipelined throughput scheduling, closed-loop
 * event-driven execution, or measured kernel runs.
 * sovpipe/pipeline_model and sovpipe/closed_loop are front-ends over
 * this type.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/stage_executor.h"

namespace sov::runtime {

/** Index of a stage within its StageGraph. */
using StageId = std::size_t;

/** One node of the dataflow graph. */
struct Stage
{
    std::string name;
    /** Hardware lane the stage is bound to; a resource runs one stage
     *  instance at a time. */
    std::string resource;
    std::vector<StageId> deps;
    std::unique_ptr<StageExecutor> executor;
};

/** The pipeline expressed as a typed DAG. */
class StageGraph
{
  public:
    StageGraph() = default;
    StageGraph(StageGraph &&) = default;
    StageGraph &operator=(StageGraph &&) = default;
    StageGraph(const StageGraph &) = delete;
    StageGraph &operator=(const StageGraph &) = delete;

    /** Add a stage; @p deps must reference previously added stages
     *  (insertion order is topological). */
    StageId addStage(std::string name, std::string resource,
                     std::unique_ptr<StageExecutor> executor,
                     std::vector<StageId> deps = {});

    /** Convenience: constant-duration stage. */
    StageId addFixed(std::string name, std::string resource,
                     Duration duration, std::vector<StageId> deps = {});

    /** Convenience: model-sampled stage. */
    StageId addAnalytic(std::string name, std::string resource,
                        AnalyticExecutor::Sampler sampler,
                        std::vector<StageId> deps = {});

    /** Convenience: measured real-algorithm stage. */
    StageId addKernel(std::string name, std::string resource,
                      KernelExecutor::Kernel kernel,
                      std::vector<StageId> deps = {},
                      double time_scale = 1.0);

    std::size_t size() const { return stages_.size(); }
    const Stage &stage(StageId id) const { return stages_.at(id); }
    StageExecutor &executor(StageId id) { return *stages_.at(id).executor; }

    /**
     * Swap in a new executor for @p id, returning the old one. The
     * fault layer uses this to wrap a stage's executor in place (the
     * wrapper takes ownership of the original), leaving the DAG
     * untouched.
     */
    std::unique_ptr<StageExecutor>
    replaceExecutor(StageId id, std::unique_ptr<StageExecutor> executor);

    /** Stage id by name; panics if absent. */
    StageId findStage(const std::string &name) const;

    /** Stages that depend on @p id. */
    const std::vector<StageId> &dependents(StageId id) const
    {
        return dependents_.at(id);
    }

    /** Names of all stages in insertion (topological) order. */
    std::vector<std::string> stageNames() const;

    /** Distinct resource bindings, sorted. */
    std::vector<std::string> resources() const;

    /**
     * Critical-path latency of one frame assuming unlimited resources —
     * the single-shot latency lower bound. Invokes the executors, so
     * stateful executors advance (samplers draw, kernels run).
     */
    Duration criticalPathLatency(std::size_t frame = 0);

  private:
    std::vector<Stage> stages_;
    std::vector<std::vector<StageId>> dependents_;
    std::map<std::string, StageId> by_name_;
};

} // namespace sov::runtime
