#ifndef LLMULATOR_HW_TECH_H
#define LLMULATOR_HW_TECH_H

/**
 * @file
 * Technology library — the repository's substitute for the SkyWater130 PDK
 * characterization that OpenROAD consumes in the paper's flow.
 *
 * Every functional-unit kind carries area (um^2), switching energy (pJ per
 * operation), leakage power (uW) and pipeline latency (cycles). The values
 * are SkyWater-flavoured order-of-magnitude constants; what matters for the
 * reproduction is that static metrics are *additive compositions* of these
 * entries, which is the structure the learned models must fit.
 */

#include <string>

namespace llmulator {
namespace hw {

/** Functional-unit kinds allocated by the HLS binder. */
enum class FuKind
{
    AddSub,   //!< adder/subtractor (also min/max)
    Mul,      //!< multiplier
    Div,      //!< divider
    Cmp,      //!< comparator / logic
    Mux21,    //!< 2:1 multiplexer (sharing + control)
    Reg,      //!< 32-bit register (flip-flops)
    MemPort,  //!< SRAM access port
    Fsm       //!< controller state element
};

/** Per-kind characterization entry. */
struct FuSpec
{
    double areaUm2;    //!< silicon area
    double energyPj;   //!< dynamic energy per activation
    double leakageUw;  //!< static leakage power
    int latencyCycles; //!< pipeline latency of one operation
    int flipFlops;     //!< internal state bits (counted as FFs)
};

/** Look up the library entry for a kind. */
const FuSpec& spec(FuKind kind);

/** Number of FuKind values. */
constexpr int kNumFuKinds = 8;

} // namespace hw
} // namespace llmulator

#endif // LLMULATOR_HW_TECH_H
