#include "util/random.hh"

#include <cmath>

namespace imsim {
namespace util {

Mt19937_64::Mt19937_64(result_type seed) : pos(kN)
{
    state[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
        state[i] = 6364136223846793005ULL *
                       (state[i - 1] ^ (state[i - 1] >> 62)) +
                   i;
    state[kN] = 0;
}

void
Mt19937_64::refill()
{
    // Word k is twisted from the upper 33 bits of word k, the lower 31
    // bits of word k + 1 and word k + kM, all indices mod kN, in
    // ascending k: words below kN - kM read old words ahead of them,
    // the rest read words the first loop already renewed (the last one
    // reads the new word 0 through the mirror slot). The matrix term is
    // selected by a mask rather than a branch so both loops vectorise.
    constexpr std::uint64_t upper = ~std::uint64_t(0) << 31;
    constexpr std::uint64_t lower = ~upper;
    constexpr std::uint64_t matrix = 0xb5026f5aa96619e9ULL;
    std::uint64_t *x = state.data();
    for (std::size_t k = 0; k < kN - kM; ++k) {
        const std::uint64_t y = (x[k] & upper) | (x[k + 1] & lower);
        x[k] = x[k + kM] ^ (y >> 1) ^ ((0 - (y & 1)) & matrix);
    }
    x[kN] = x[0];
    for (std::size_t k = kN - kM; k < kN; ++k) {
        const std::uint64_t y = (x[k] & upper) | (x[k + 1] & lower);
        x[k] = x[k - (kN - kM)] ^ (y >> 1) ^ ((0 - (y & 1)) & matrix);
    }
    pos = 0;
}

std::uint64_t
Rng::splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng
Rng::split(std::uint64_t stream_id) const
{
    // Two finalizer rounds decorrelate (seed, stream) pairs even for
    // adjacent seeds and small consecutive stream ids.
    return Rng(splitmix64(splitmix64(seedValue) ^
                          splitmix64(stream_id + 0x632be59bd9b4e019ULL)));
}

Rng::LognormalParams
Rng::lognormalParams(double mean, double cv)
{
    fatalIf(mean <= 0.0, "Rng::lognormalParams: mean must be positive");
    fatalIf(cv <= 0.0, "Rng::lognormalParams: cv must be positive");
    // For lognormal with parameters (mu, sigma):
    //   E[X]  = exp(mu + sigma^2/2)
    //   CV^2  = exp(sigma^2) - 1
    const double sigma2 = std::log(1.0 + cv * cv);
    return LognormalParams{std::log(mean) - 0.5 * sigma2,
                           std::sqrt(sigma2)};
}

double
Rng::lognormalMeanCv(double mean, double cv)
{
    const LognormalParams p = lognormalParams(mean, cv);
    return lognormal(p.mu, p.sigma);
}

double
Rng::pareto(double xm, double alpha)
{
    fatalIf(xm <= 0.0, "Rng::pareto: xm must be positive");
    fatalIf(alpha <= 0.0, "Rng::pareto: alpha must be positive");
    double u = uniform();
    // Guard against u == 0, which would produce infinity.
    if (u < 1e-16)
        u = 1e-16;
    return xm / std::pow(u, 1.0 / alpha);
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    fatalIf(weights.empty(), "Rng::discrete: empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        fatalIf(w < 0.0, "Rng::discrete: negative weight");
        total += w;
    }
    fatalIf(total <= 0.0, "Rng::discrete: weights sum to zero");
    double x = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

} // namespace util
} // namespace imsim
