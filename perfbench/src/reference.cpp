#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "attention/unified_attention.h"

namespace perfbench {

using namespace vitality;

namespace {

/** Row-major double matrix. */
struct DMat
{
    size_t rows = 0, cols = 0;
    std::vector<double> v;

    DMat() = default;
    DMat(size_t r, size_t c) : rows(r), cols(c), v(r * c, 0.0) {}
    double *row(size_t r) { return v.data() + r * cols; }
    const double *row(size_t r) const { return v.data() + r * cols; }
};

/** Run f(i) for i in [0, n) on up to four threads. */
template <class F>
void
parallelFor(size_t n, F f)
{
    const size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const size_t t = std::min<size_t>({4, hw, n});
    std::vector<std::thread> threads;
    for (size_t w = 1; w < t; ++w)
        threads.emplace_back([&, w] {
            for (size_t i = w; i < n; i += t)
                f(i);
        });
    for (size_t i = 0; i < n; i += t)
        f(i);
    for (std::thread &th : threads)
        th.join();
}

DMat
widen(const Matrix &m)
{
    DMat d(m.rows(), m.cols());
    for (size_t i = 0; i < m.size(); ++i)
        d.v[i] = m.data()[i];
    return d;
}

/** out = a * w + bias (w is in x out, as the encoder stores it). */
DMat
affine(const DMat &a, const Matrix &w, const Matrix &bias)
{
    const DMat wd = widen(w);
    DMat out(a.rows, w.cols());
    parallelFor(a.rows, [&](size_t i) {
        double *o = out.row(i);
        for (size_t j = 0; j < out.cols; ++j)
            o[j] = bias.data()[j];
        const double *ai = a.row(i);
        for (size_t k = 0; k < a.cols; ++k) {
            const double aik = ai[k];
            const double *wk = wd.row(k);
            for (size_t j = 0; j < out.cols; ++j)
                o[j] += aik * wk[j];
        }
    });
    return out;
}

DMat
layerNorm(const DMat &x, const Matrix &gamma, const Matrix &beta)
{
    DMat out(x.rows, x.cols);
    for (size_t r = 0; r < x.rows; ++r) {
        const double *in = x.row(r);
        double mean = 0.0;
        for (size_t c = 0; c < x.cols; ++c)
            mean += in[c];
        mean /= static_cast<double>(x.cols);
        double var = 0.0;
        for (size_t c = 0; c < x.cols; ++c)
            var += (in[c] - mean) * (in[c] - mean);
        var /= static_cast<double>(x.cols);
        const double inv = 1.0 / std::sqrt(var + 1e-5);
        for (size_t c = 0; c < x.cols; ++c)
            out.row(r)[c] =
                (in[c] - mean) * inv * gamma.data()[c] + beta.data()[c];
    }
    return out;
}

double
gelu(double x)
{
    const double k = std::sqrt(2.0 / M_PI);
    return 0.5 * x * (1.0 + std::tanh(k * (x + 0.044715 * x * x * x)));
}

/** Columns [c0, c0 + w) of m. */
DMat
slice(const DMat &m, size_t c0, size_t w)
{
    DMat s(m.rows, w);
    for (size_t r = 0; r < m.rows; ++r)
        std::copy(m.row(r) + c0, m.row(r) + c0 + w, s.row(r));
    return s;
}

Matrix
narrow(const DMat &m)
{
    Matrix f(m.rows, m.cols);
    for (size_t i = 0; i < m.v.size(); ++i)
        f.data()[i] = static_cast<float>(m.v[i]);
    return f;
}

double
dot(const double *a, const double *b, size_t n)
{
    double s = 0.0;
    for (size_t i = 0; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

DMat
softmaxHead(const DMat &q, const DMat &k, const DMat &v)
{
    const size_t n = k.rows, d = q.cols;
    const double scale = 1.0 / std::sqrt(static_cast<double>(d));
    DMat z(q.rows, v.cols);
    std::vector<double> p(n);
    for (size_t r = 0; r < q.rows; ++r) {
        double mx = -std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < n; ++c) {
            p[c] = dot(q.row(r), k.row(c), d) * scale;
            mx = std::max(mx, p[c]);
        }
        double sum = 0.0;
        for (size_t c = 0; c < n; ++c)
            sum += (p[c] = std::exp(p[c] - mx));
        for (size_t c = 0; c < n; ++c)
            for (size_t j = 0; j < v.cols; ++j)
                z.row(r)[j] += p[c] / sum * v.row(c)[j];
    }
    return z;
}

/** Mean-centered keys (Algorithm 1, step 1). */
DMat
centerKeys(const DMat &k)
{
    DMat khat = k;
    for (size_t c = 0; c < k.cols; ++c) {
        double mean = 0.0;
        for (size_t r = 0; r < k.rows; ++r)
            mean += k.row(r)[c];
        mean /= static_cast<double>(k.rows);
        for (size_t r = 0; r < k.rows; ++r)
            khat.row(r)[c] -= mean;
    }
    return khat;
}

/**
 * Algorithm 1 in its linear form; also returns the denominators t_D
 * the Unified weak map divides by.
 */
DMat
taylorHead(const DMat &q, const DMat &khat, const DMat &v,
           std::vector<double> &td)
{
    const size_t n = khat.rows, d = q.cols;
    const double sd = std::sqrt(static_cast<double>(d));
    DMat g(d, v.cols); // Khat^T V
    std::vector<double> ksum(d, 0.0), vsum(v.cols, 0.0);
    for (size_t r = 0; r < n; ++r) {
        for (size_t a = 0; a < d; ++a) {
            ksum[a] += khat.row(r)[a];
            for (size_t j = 0; j < v.cols; ++j)
                g.row(a)[j] += khat.row(r)[a] * v.row(r)[j];
        }
        for (size_t j = 0; j < v.cols; ++j)
            vsum[j] += v.row(r)[j];
    }
    DMat z(q.rows, v.cols);
    td.assign(q.rows, 0.0);
    for (size_t r = 0; r < q.rows; ++r) {
        td[r] = static_cast<double>(n) * sd + dot(q.row(r), ksum.data(), d);
        for (size_t j = 0; j < v.cols; ++j) {
            double num = sd * vsum[j];
            for (size_t a = 0; a < d; ++a)
                num += q.row(r)[a] * g.row(a)[j];
            z.row(r)[j] = num / td[r];
        }
    }
    return z;
}

/** Taylor output plus the strong-branch residual at the kept entries. */
DMat
unifiedHead(const DMat &q, const DMat &k, const DMat &v,
            const UnifiedAttention &kernel)
{
    const size_t d = q.cols;
    const double sd = std::sqrt(static_cast<double>(d));
    const DMat khat = centerKeys(k);
    std::vector<double> td;
    DMat z = taylorHead(q, khat, v, td); // = W V
    const SparseMask mask =
        kernel.forwardDetailed(narrow(q), narrow(k), narrow(v)).mask;
    if (mask.rows() != q.rows || mask.cols() != k.rows)
        throw std::runtime_error("reference: unified mask shape");
    std::vector<size_t> kept;
    std::vector<double> s;
    for (size_t r = 0; r < q.rows; ++r) {
        kept.clear();
        s.clear();
        double mx = -std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < k.rows; ++c) {
            if (!mask.at(r, c))
                continue;
            kept.push_back(c);
            s.push_back(dot(q.row(r), khat.row(c), d));
            mx = std::max(mx, s.back() / sd);
        }
        double denom = 0.0;
        for (double qk : s)
            denom += std::exp(qk / sd - mx);
        for (size_t i = 0; i < kept.size(); ++i) {
            const double sm = std::exp(s[i] / sd - mx) / denom;
            const double weak = (sd + s[i]) / td[r];
            for (size_t j = 0; j < v.cols; ++j)
                z.row(r)[j] += (sm - weak) * v.row(kept[i])[j];
        }
    }
    return z;
}

} // namespace

std::vector<double>
referenceForward(const VitEncoder &enc, const Matrix &x_in)
{
    const VitConfig &cfg = enc.config();
    const AttentionType type = enc.kernel().type();
    const auto *unified = dynamic_cast<const UnifiedAttention *>(&enc.kernel());
    if (type != AttentionType::Softmax && type != AttentionType::Taylor &&
        !(type == AttentionType::Unified && unified))
        throw std::invalid_argument("reference: unsupported kernel " +
                                    attentionTypeName(type));
    if (x_in.cols() != cfg.dModel)
        throw std::invalid_argument("reference: input width");

    const size_t dh = cfg.headDim();
    DMat x = widen(x_in);
    for (size_t l = 0; l < cfg.layers; ++l) {
        const VitEncoder::LayerWeights &w = enc.layer(l);
        const DMat h1 = layerNorm(x, w.ln1Gamma, w.ln1Beta);
        const DMat q = affine(h1, w.wq, w.bq);
        const DMat k = affine(h1, w.wk, w.bk);
        const DMat v = affine(h1, w.wv, w.bv);
        DMat attn(x.rows, cfg.dModel);
        parallelFor(cfg.heads, [&](size_t head) {
            const DMat qh = slice(q, head * dh, dh);
            const DMat kh = slice(k, head * dh, dh);
            const DMat vh = slice(v, head * dh, dh);
            DMat z;
            std::vector<double> td;
            if (type == AttentionType::Softmax)
                z = softmaxHead(qh, kh, vh);
            else if (type == AttentionType::Taylor)
                z = taylorHead(qh, centerKeys(kh), vh, td);
            else
                z = unifiedHead(qh, kh, vh, *unified);
            for (size_t r = 0; r < x.rows; ++r)
                std::copy(z.row(r), z.row(r) + dh,
                          attn.row(r) + head * dh);
        });
        const DMat o = affine(attn, w.wo, w.bo);
        for (size_t i = 0; i < x.v.size(); ++i)
            x.v[i] += o.v[i];
        DMat u = affine(layerNorm(x, w.ln2Gamma, w.ln2Beta), w.w1, w.b1);
        for (double &e : u.v)
            e = gelu(e);
        const DMat m = affine(u, w.w2, w.b2);
        for (size_t i = 0; i < x.v.size(); ++i)
            x.v[i] += m.v[i];
    }
    return x.v;
}

double
maxAbsDiff(const Matrix &out, const std::vector<double> &ref)
{
    if (out.size() != ref.size())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double e = std::fabs(static_cast<double>(out.data()[i]) - ref[i]);
        if (std::isnan(e))
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, e);
    }
    return worst;
}

} // namespace perfbench
