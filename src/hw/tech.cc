#include "hw/tech.h"

#include "util/common.h"

namespace llmulator {
namespace hw {

namespace {

// SkyWater130-flavoured characterization. Sources of shape (not absolute
// truth): a 32-bit ripple-carry adder is a few hundred um^2; an array
// multiplier is roughly an order of magnitude larger; dividers larger
// still and multi-cycle; registers dominate FF counts.
const FuSpec kSpecs[kNumFuKinds] = {
    // area    energy  leak   lat  ff
    {  420.0,   0.9,   0.020,  1,   0 }, // AddSub
    { 3600.0,   6.5,   0.150,  3,  32 }, // Mul (pipelined, 32b state)
    { 9800.0,  18.0,   0.400,  8,  96 }, // Div
    {  180.0,   0.3,   0.008,  1,   0 }, // Cmp
    {   58.5,   0.05,  0.002,  0,   0 }, // Mux21
    {  270.0,   0.15,  0.012,  0,  32 }, // Reg (32-bit)
    { 1500.0,   2.2,   0.090,  1,  64 }, // MemPort
    {  130.0,   0.10,  0.004,  0,   8 }, // Fsm state element
};

} // namespace

const FuSpec&
spec(FuKind kind)
{
    int i = static_cast<int>(kind);
    LLM_CHECK(i >= 0 && i < kNumFuKinds, "bad FuKind " << i);
    return kSpecs[i];
}

} // namespace hw
} // namespace llmulator
