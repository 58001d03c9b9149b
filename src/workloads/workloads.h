#ifndef LLMULATOR_WORKLOADS_WORKLOADS_H
#define LLMULATOR_WORKLOADS_WORKLOADS_H

/**
 * @file
 * Evaluation workloads (paper Section 7.1):
 *  - the 10 PolyBench kernels used throughout Tables 3/4/11 (adi, atax,
 *    bicg, correlation, covariance, deriche, fdtd-2d, heat-3d, jacobi-2d,
 *    seidel-2d), expressed in the dataflow IR with dynamic size
 *    parameters so control flow is input-adaptive;
 *  - the 14 "modern" workloads of Table 2 (image-processing tasks 1-9 and
 *    NLP tasks 10-14), assembled from operator templates to match each
 *    row's operator count and dynamic-parameter count (scaled to the
 *    reduced context window, see README "Benches");
 *  - the TPU / Eyeriss / ShiDianNao case-study variants of Section 7.4:
 *    GEMM loop-schedule rewrites (weight-/input-/output-stationary).
 *
 * Every workload carries canonical runtime data plus input variants
 * (image-size / text-length modifications, paper Section 7.1) for the
 * dynamic-calibration experiments.
 */

#include <string>
#include <vector>

#include "dfir/ir.h"

namespace llmulator {
namespace workloads {

/** A named evaluation workload with runtime-input variants. */
struct Workload
{
    std::string name;
    dfir::DataflowGraph graph;
    dfir::RuntimeData canonicalData;
    std::vector<dfir::RuntimeData> variants;
};

/** The 10 PolyBench kernels. */
std::vector<Workload> polybench();

/** The 14 Table-2 modern workloads (index 0 = "Tab. 2-1"). */
std::vector<Workload> modern();

/** TPU v1 / Eyeriss / ShiDianNao GEMM schedule variants. */
std::vector<Workload> accelerators();

} // namespace workloads
} // namespace llmulator

#endif // LLMULATOR_WORKLOADS_WORKLOADS_H
