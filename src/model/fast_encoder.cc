#include "model/fast_encoder.h"

#include <algorithm>

#include "nn/attention.h"
#include "nn/backend.h"
#include "nn/ops.h"
#include "util/common.h"
#include "util/string_util.h"

namespace llmulator {
namespace model {

TrainingEncoding
encodeForTraining(const CostModel& m, const dfir::DataflowGraph& g,
                  const dfir::RuntimeData* data,
                  const std::string& reasoning)
{
    TrainingEncoding enc;
    if (data == nullptr) {
        enc.stat = m.encode(g, nullptr, reasoning);
        return enc;
    }
    auto segments = renderSegments(g, data, reasoning);
    EncodedPair pair =
        encodeSegmentsPair(m.tok(), segments, m.config().enc.maxSeq);
    enc.stat = std::move(pair.stat);
    enc.dyn = std::move(pair.dyn);
    enc.hasDyn = true;
    return enc;
}

namespace {

/**
 * Rows per block of every pass but K/V, whose rows all queries read:
 * the attention's own block, so its scratch fits every pass.
 */
constexpr int kRowBlock = nn::kAttentionRowBlock;

/** c[rows, w] = a[rows, in] * W + b: gemmAccum into zeros, then + b. */
void
linear(const nn::Backend& be, const float* a, const nn::Linear& lin, int rows,
       float* c)
{
    const int in = lin.weight->rows, w = lin.weight->cols;
    std::fill(c, c + size_t(rows) * w, 0.f);
    nn::gemmAccum(be, a, lin.weight->value.data(), c, rows, in, w);
    const float* b = lin.bias->value.data();
    for (int r = 0; r < rows; ++r)
        for (int j = 0; j < w; ++j)
            c[size_t(r) * w + j] += b[j];
}

} // namespace

/**
 * Working memory of one forward, for sequences of up to n rows. Only
 * the residual stream and the per-head Q, K^T and V panels span all
 * rows; every other buffer holds one block of kRowBlock rows.
 */
struct InferenceSession::Workspace
{
    Workspace(int n, const nn::EncoderConfig& cfg)
        : x(size_t(n) * cfg.dim), q(x.size()), kt(x.size()), v(x.size()),
          h(size_t(kRowBlock) * cfg.dim), ln(h.size()), xhat(h.size()),
          proj(h.size()), ctx(h.size()), invstd(kRowBlock),
          head(size_t(kRowBlock) * (cfg.dim / cfg.heads)),
          scores(size_t(kRowBlock) * n), probs(scores.size()),
          mask(scores.size()), dataCols(n), classICols(n),
          mid(size_t(kRowBlock) * cfg.ffn), act(mid.size())
    {
        rows.reserve(n);
    }

    std::vector<int> rows;   //!< recomputed rows, ascending
    std::vector<float> x;    //!< [n, d] residual stream
    std::vector<float> q;    //!< [heads][rank in rows][hd] queries
    std::vector<float> kt;   //!< [d, n] K^T: head h owns rows h*hd..
    std::vector<float> v;    //!< [heads][n][hd] values
    std::vector<float> h, ln, xhat, proj, ctx; //!< [block, d]
    std::vector<float> invstd;                 //!< [block]
    std::vector<float> head;                   //!< [block, hd]
    std::vector<float> scores, probs, mask;    //!< [block, n]
    std::vector<float> dataCols;   //!< [n] a Class I row's mask row
    std::vector<float> classICols; //!< [n] a data row's mask row
    std::vector<float> mid, act;               //!< [block, ffn]
};

InferenceSession::InferenceSession(const CostModel& model) : model_(model) {}

InferenceSession::Layout
InferenceSession::computeLayout(const EncodedProgram& ep) const
{
    Layout lay;
    lay.n = std::min(ep.length(), model_.config().enc.maxSeq);
    lay.reusable.assign(lay.n, 0);
    lay.dataRow.assign(lay.n, 0);
    lay.classIRow.assign(lay.n, 0);
    lay.staticLen = lay.n;
    bool anyClassI = false;
    for (const auto& r : ep.ranges) {
        if (r.kind == SegmentKind::Data) {
            lay.staticLen = std::min(lay.staticLen, r.begin);
            for (int i = r.begin; i < r.end && i < lay.n; ++i)
                lay.dataRow[i] = 1;
        }
    }
    for (const auto& r : ep.ranges) {
        bool reusable = (r.kind == SegmentKind::Op && r.classI) ||
                        r.kind == SegmentKind::Params;
        anyClassI |= r.kind == SegmentKind::Op && r.classI;
        for (int i = r.begin; i < r.end && i < lay.n; ++i) {
            if (i < lay.staticLen && reusable)
                lay.reusable[i] = 1;
            if (r.kind == SegmentKind::Op && r.classI)
                lay.classIRow[i] = 1;
        }
    }
    lay.masked = ep.hasData && anyClassI;
    uint64_t key = 0x12345;
    for (int i = 0; i < lay.staticLen; ++i)
        key = util::hashCombine(key, static_cast<uint64_t>(ep.tokens[i]));
    lay.staticKey = key;
    return lay;
}

bool
InferenceSession::blocked(const Layout& lay, int i, int j)
{
    return (lay.classIRow[i] && lay.dataRow[j]) ||
           (lay.dataRow[i] && lay.classIRow[j]);
}

void
InferenceSession::forwardPooled(const EncodedProgram& ep, const Layout& lay,
                                const std::vector<uint8_t>& reuse, bool prime,
                                Workspace& ws, float* pooled)
{
    // Every step is the backend call the autograd graph makes on the
    // same values (nn/layers.cc; attention is nn::attentionRows, the
    // training op's own block function), so each row's float sequence —
    // and the pooled row — is TransformerEncoder::forward's. Row blocks only
    // choose which output rows a call computes: kernels fix the
    // per-element sequence independently of the row count.
    const nn::Backend& be = nn::backend();
    const nn::TransformerEncoder& enc = model_.encoder();
    const int n = lay.n;
    const int d = enc.cfg.dim;
    const int heads = enc.cfg.heads;
    const int hd = d / heads;
    const int layers = static_cast<int>(enc.blocks.size());
    const float eps = 1e-5f; // nn::layerNormRows' default
    LLM_CHECK(n > 0, "empty token sequence");

    ws.rows.clear();
    for (int i = 0; i < n; ++i)
        if (reuse.empty() || !reuse[i])
            ws.rows.push_back(i);
    const int nr = static_cast<int>(ws.rows.size());
    stats_.rowsComputed += nr;
    stats_.rowsReused += n - nr;
    if (prime) {
        cacheLayers_.assign(layers, {});
        for (auto& lc : cacheLayers_) {
            lc.k.resize(size_t(n) * d);
            lc.v.resize(size_t(n) * d);
            lc.hout.resize(size_t(n) * d);
        }
    }

    // Embedding: tok[id] + pos[i].
    float* x = ws.x.data();
    const nn::Tensor& tok = *enc.tok->table;
    const float* pos = enc.pos->value.data();
    for (int i = 0; i < n; ++i) {
        const int id = ep.tokens[i];
        LLM_CHECK(id >= 0 && id < tok.rows,
                  "embed id " << id << " out of range " << tok.rows);
        const float* te = tok.value.data() + size_t(id) * d;
        const float* pe = pos + size_t(i) * d;
        float* row = x + size_t(i) * d;
        for (int j = 0; j < d; ++j)
            row[j] = te[j] + pe[j];
    }

    // Gathers the residual rows of block [c0, c0 + rb) into ws.h.
    auto gather = [&](int c0, int rb) {
        for (int r = 0; r < rb; ++r)
            std::copy_n(x + size_t(ws.rows[c0 + r]) * d, d,
                        ws.h.data() + size_t(r) * d);
    };
    // Scatter row i's key / value ([d] each) into the per-head panels.
    auto putK = [&](int i, const float* krow) {
        for (int c = 0; c < d; ++c)
            ws.kt[size_t(c) * n + i] = krow[c];
    };
    auto putV = [&](int i, const float* vrow) {
        for (int hh = 0; hh < heads; ++hh)
            std::copy_n(vrow + hh * hd, hd,
                        ws.v.data() + (size_t(hh) * n + i) * hd);
    };

    // The separation mask has two kinds of rows: a Class I row blocks
    // the data columns, a data row the Class I columns. Build each once.
    if (lay.masked)
        for (int j = 0; j < n; ++j) {
            ws.dataCols[j] = lay.dataRow[j] ? -1e9f : 0.f;
            ws.classICols[j] = lay.classIRow[j] ? -1e9f : 0.f;
        }

    for (int l = 0; l < layers; ++l) {
        const nn::TransformerBlock& blk = *enc.blocks[l];
        const nn::MultiHeadSelfAttention& attn = *blk.attn;
        LayerCache* lc = cacheLayers_.empty() ? nullptr : &cacheLayers_[l];

        // LN1 and the Q/K/V projections of the recomputed rows. Every
        // query reads all n keys and values, so they finish before any
        // residual row of this layer changes.
        for (int c0 = 0; c0 < nr; c0 += kRowBlock) {
            const int rb = std::min(kRowBlock, nr - c0);
            gather(c0, rb);
            be.layerNormRows(ws.h.data(), blk.ln1->gamma->value.data(),
                             blk.ln1->beta->value.data(), eps, ws.ln.data(),
                             ws.xhat.data(), ws.invstd.data(), rb, d);
            linear(be, ws.ln.data(), *attn.wq, rb, ws.proj.data());
            for (int r = 0; r < rb; ++r)
                for (int hh = 0; hh < heads; ++hh)
                    std::copy_n(ws.proj.data() + size_t(r) * d + hh * hd, hd,
                                ws.q.data() +
                                    (size_t(hh) * n + c0 + r) * hd);
            linear(be, ws.ln.data(), *attn.wk, rb, ws.proj.data());
            for (int r = 0; r < rb; ++r) {
                const int i = ws.rows[c0 + r];
                putK(i, ws.proj.data() + size_t(r) * d);
                if (prime)
                    std::copy_n(ws.proj.data() + size_t(r) * d, d,
                                lc->k.data() + size_t(i) * d);
            }
            linear(be, ws.ln.data(), *attn.wv, rb, ws.proj.data());
            for (int r = 0; r < rb; ++r) {
                const int i = ws.rows[c0 + r];
                putV(i, ws.proj.data() + size_t(r) * d);
                if (prime)
                    std::copy_n(ws.proj.data() + size_t(r) * d, d,
                                lc->v.data() + size_t(i) * d);
            }
        }
        // Reused rows: cached keys, values and block outputs.
        for (int i = 0; i < n && nr < n; ++i) {
            if (!reuse[i])
                continue;
            putK(i, lc->k.data() + size_t(i) * d);
            putV(i, lc->v.data() + size_t(i) * d);
            std::copy_n(lc->hout.data() + size_t(i) * d, d,
                        x + size_t(i) * d);
        }

        // Attention and FFN of the recomputed rows, one block at a time.
        for (int c0 = 0; c0 < nr; c0 += kRowBlock) {
            const int rb = std::min(kRowBlock, nr - c0);
            gather(c0, rb);
            // The block's separation-mask rows, shared by every head. A
            // row that is both Class I and data keeps the per-cell test.
            if (lay.masked)
                for (int r = 0; r < rb; ++r) {
                    const int i = ws.rows[c0 + r];
                    float* mrow = ws.mask.data() + size_t(r) * n;
                    if (lay.classIRow[i] && lay.dataRow[i])
                        for (int j = 0; j < n; ++j)
                            mrow[j] = blocked(lay, i, j) ? -1e9f : 0.f;
                    else if (lay.classIRow[i])
                        std::copy_n(ws.dataCols.data(), n, mrow);
                    else if (lay.dataRow[i])
                        std::copy_n(ws.classICols.data(), n, mrow);
                    else
                        std::fill_n(mrow, n, 0.f);
                }
            for (int hh = 0; hh < heads; ++hh) {
                nn::attentionRows(
                    be, ws.q.data() + (size_t(hh) * n + c0) * hd,
                    ws.kt.data() + size_t(hh) * hd * n,
                    ws.v.data() + size_t(hh) * n * hd,
                    lay.masked ? ws.mask.data() : nullptr, rb, n, hd,
                    ws.scores.data(), ws.probs.data(), ws.head.data());
                for (int r = 0; r < rb; ++r)
                    std::copy_n(ws.head.data() + size_t(r) * hd, hd,
                                ws.ctx.data() + size_t(r) * d + hh * hd);
            }
            float* h = ws.h.data();
            const size_t blockSize = size_t(rb) * d;
            linear(be, ws.ctx.data(), *attn.wo, rb, ws.proj.data());
            for (size_t e = 0; e < blockSize; ++e)
                h[e] += ws.proj[e];

            be.layerNormRows(h, blk.ln2->gamma->value.data(),
                             blk.ln2->beta->value.data(), eps, ws.ln.data(),
                             ws.xhat.data(), ws.invstd.data(), rb, d);
            linear(be, ws.ln.data(), *blk.ff1, rb, ws.mid.data());
            be.geluForward(ws.mid.data(), ws.act.data(), nullptr,
                           size_t(rb) * enc.cfg.ffn);
            linear(be, ws.act.data(), *blk.ff2, rb, ws.proj.data());
            for (size_t e = 0; e < blockSize; ++e)
                h[e] += ws.proj[e];

            for (int r = 0; r < rb; ++r) {
                const int i = ws.rows[c0 + r];
                std::copy_n(h + size_t(r) * d, d, x + size_t(i) * d);
                if (prime)
                    std::copy_n(h + size_t(r) * d, d,
                                lc->hout.data() + size_t(i) * d);
            }
        }
    }

    // Final LN, then the mean over rows in ascending order.
    std::fill_n(pooled, d, 0.f);
    for (int r0 = 0; r0 < n; r0 += kRowBlock) {
        const int rb = std::min(kRowBlock, n - r0);
        be.layerNormRows(x + size_t(r0) * d, enc.lnFinal->gamma->value.data(),
                         enc.lnFinal->beta->value.data(), eps, ws.ln.data(),
                         ws.xhat.data(), ws.invstd.data(), rb, d);
        for (int r = 0; r < rb; ++r)
            for (int j = 0; j < d; ++j)
                pooled[j] += ws.ln[size_t(r) * d + j];
    }
    for (int j = 0; j < d; ++j)
        pooled[j] /= n;
}

nn::TensorPtr
InferenceSession::forwardPooledBatch(
    const std::vector<const EncodedProgram*>& eps)
{
    LLM_CHECK(!eps.empty(), "forwardPooledBatch with no encodings");
    const nn::EncoderConfig& cfg = model_.encoder().cfg;
    const int B = static_cast<int>(eps.size());
    std::vector<Layout> lays;
    lays.reserve(eps.size());
    int maxN = 0;
    for (const EncodedProgram* ep : eps) {
        lays.push_back(computeLayout(*ep));
        maxN = std::max(maxN, lays.back().n);
    }
    Workspace ws(maxN, cfg);
    auto out = nn::Tensor::zeros(B, cfg.dim);
    for (int b = 0; b < B; ++b)
        forwardPooled(*eps[b], lays[b], {}, /*prime=*/false, ws,
                      out->value.data() + size_t(b) * cfg.dim);
    stats_.fullForwards += B;
    return out;
}

nn::TensorPtr
InferenceSession::pooled(const EncodedProgram& ep)
{
    Layout lay = computeLayout(ep);
    bool partial = cacheValid_ && cacheKey_ == lay.staticKey &&
                   cacheLen_ >= lay.staticLen;
    // Rows served from the cache; a miss recomputes every row.
    std::vector<uint8_t> reuse;
    if (partial) {
        reuse.assign(lay.n, 0);
        for (int i = 0; i < lay.n && i < cacheLen_; ++i)
            reuse[i] = lay.reusable[i] && cacheReusable_[i];
    }
    Workspace ws(lay.n, model_.encoder().cfg);
    auto out = nn::Tensor::zeros(1, model_.encoder().cfg.dim);
    forwardPooled(ep, lay, reuse, /*prime=*/!partial, ws, out->value.data());
    if (partial) {
        ++stats_.cachedForwards;
    } else {
        ++stats_.fullForwards;
        cacheValid_ = true;
        cacheKey_ = lay.staticKey;
        cacheLen_ = lay.n;
        cacheReusable_ = lay.reusable;
    }
    return out;
}

NumericPrediction
InferenceSession::predict(const EncodedProgram& ep, Metric m, int beam_width)
{
    return model_.head(m).decode(pooled(ep), beam_width);
}

} // namespace model
} // namespace llmulator
