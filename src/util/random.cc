#include "util/random.hh"

#include <cmath>

namespace imsim {
namespace util {

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
