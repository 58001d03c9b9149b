#include "model/input.h"

#include <algorithm>

#include "dfir/printer.h"

namespace llmulator {
namespace model {

std::vector<Segment>
renderSegments(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
               const std::string& reasoning)
{
    std::vector<Segment> segs;

    segs.push_back({SegmentKind::Graph, "dataflow",
                    dfir::printGraphFunction(g), false});

    // One segment per distinct operator, labelled Class I/II.
    for (const auto& op : g.ops) {
        bool class_i =
            dfir::classifyOperator(op) == dfir::ControlFlowClass::ClassI;
        segs.push_back(
            {SegmentKind::Op, op.name, dfir::printOperator(op), class_i});
    }

    segs.push_back(
        {SegmentKind::Params, "params", dfir::printParams(g.params), false});

    if (!reasoning.empty())
        segs.push_back({SegmentKind::Reasoning, "think",
                        "<think>\n" + reasoning + "\n</think>\n", false});

    if (data)
        segs.push_back(
            {SegmentKind::Data, "data", dfir::printData(*data), false});
    return segs;
}

namespace {

/**
 * Assemble pre-tokenized segments into an EncodedProgram, optionally
 * skipping Data segments (the static view of a dynamic sample). The
 * truncation budget is computed over the *included* segments only, so a
 * static assembly is bitwise identical to encoding the data-free segment
 * list from scratch.
 */
EncodedProgram
assembleSegments(const std::vector<Segment>& segments,
                 const std::vector<std::vector<int>>& ids, int max_len,
                 bool include_data)
{
    int total = 0, op_total = 0, other_total = 0, op_count = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
        if (!include_data && segments[i].kind == SegmentKind::Data)
            continue;
        total += static_cast<int>(ids[i].size());
        if (segments[i].kind == SegmentKind::Op) {
            op_total += static_cast<int>(ids[i].size());
            ++op_count;
        } else {
            other_total += static_cast<int>(ids[i].size());
        }
    }

    // When the program overflows the context window, truncate *operator*
    // bodies proportionally rather than dropping trailing segments: the
    // graph function, hardware parameters and runtime data must always
    // survive (losing the data segment would silently disable
    // input-adaptive prediction for long programs).
    int op_cap = -1; // unlimited
    if (total > max_len && op_count > 0) {
        int op_budget = std::max(op_count, max_len - other_total);
        op_cap = op_budget / op_count;
    }

    EncodedProgram ep;
    for (size_t i = 0; i < segments.size(); ++i) {
        const Segment& seg = segments[i];
        if (!include_data && seg.kind == SegmentKind::Data)
            continue;
        int limit = static_cast<int>(ids[i].size());
        if (op_cap >= 0 && seg.kind == SegmentKind::Op)
            limit = std::min(limit, op_cap);
        TokenRange range;
        range.begin = ep.length();
        range.kind = seg.kind;
        range.name = seg.name;
        range.classI = seg.classI;
        for (int j = 0; j < limit && ep.length() < max_len; ++j)
            ep.tokens.push_back(ids[i][j]);
        range.end = ep.length();
        if (range.end > range.begin)
            ep.ranges.push_back(range);
        if (seg.kind == SegmentKind::Data && range.end > range.begin)
            ep.hasData = true;
    }
    return ep;
}

std::vector<std::vector<int>>
tokenizeSegments(const tokenizer::Tokenizer& tok,
                 const std::vector<Segment>& segments)
{
    std::vector<std::vector<int>> ids(segments.size());
    for (size_t i = 0; i < segments.size(); ++i)
        ids[i] = tok.encode(segments[i].text);
    return ids;
}

} // namespace

EncodedProgram
encodeSegments(const tokenizer::Tokenizer& tok,
               const std::vector<Segment>& segments, int max_len)
{
    return assembleSegments(segments, tokenizeSegments(tok, segments),
                            max_len, /*include_data=*/true);
}

EncodedPair
encodeSegmentsPair(const tokenizer::Tokenizer& tok,
                   const std::vector<Segment>& segments, int max_len)
{
    // Tokenization dominates encode cost; run it once per segment and
    // assemble both views from the shared ids.
    auto ids = tokenizeSegments(tok, segments);
    EncodedPair pair;
    pair.stat =
        assembleSegments(segments, ids, max_len, /*include_data=*/false);
    pair.dyn =
        assembleSegments(segments, ids, max_len, /*include_data=*/true);
    return pair;
}

nn::TensorPtr
buildSeparationMask(const EncodedProgram& ep)
{
    if (!ep.hasData)
        return nullptr;
    bool any_class_i = false;
    for (const auto& r : ep.ranges)
        any_class_i |= (r.kind == SegmentKind::Op && r.classI);
    if (!any_class_i)
        return nullptr;

    int n = ep.length();
    auto mask = nn::Tensor::zeros(n, n);
    for (const auto& ri : ep.ranges) {
        if (!(ri.kind == SegmentKind::Op && ri.classI))
            continue;
        for (const auto& rj : ep.ranges) {
            if (rj.kind != SegmentKind::Data)
                continue;
            for (int i = ri.begin; i < ri.end; ++i)
                for (int j = rj.begin; j < rj.end; ++j) {
                    mask->at(i, j) = -1e9f;
                    mask->at(j, i) = -1e9f;
                }
        }
    }
    return mask;
}

} // namespace model
} // namespace llmulator
