/**
 * @file
 * Deterministically seedable random number generation and the distributions
 * used by the workload and queueing models.
 *
 * Every stochastic component in the library draws from an explicitly passed
 * Rng so that simulations are reproducible given a seed.
 */

#ifndef IMSIM_UTIL_RANDOM_HH
#define IMSIM_UTIL_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.hh"

namespace imsim {
namespace util {

/**
 * Random number generator wrapper around std::mt19937_64.
 *
 * Provides the primitive draws the simulator needs and named distribution
 * helpers. A child() generator can be forked for independent substreams.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for reproducibility). */
    explicit Rng(std::uint64_t seed = 0x1ce5eedULL)
        : engine(seed), seedValue(seed)
    {}

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        fatalIf(hi < lo, "Rng::uniform: hi < lo");
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        fatalIf(hi < lo, "Rng::uniformInt: hi < lo");
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
    }

    /** Exponentially distributed draw with the given mean (> 0). */
    double
    exponential(double mean)
    {
        fatalIf(mean <= 0.0, "Rng::exponential: mean must be positive");
        return std::exponential_distribution<double>(1.0 / mean)(engine);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        fatalIf(stddev < 0.0, "Rng::normal: stddev must be non-negative");
        return std::normal_distribution<double>(mean, stddev)(engine);
    }

    /** Parameters (mu, sigma) of the underlying normal of a lognormal. */
    struct LognormalParams
    {
        double mu;
        double sigma;
    };

    /**
     * @return the (mu, sigma) of the lognormal with *arithmetic* mean
     * @p mean and coefficient of variation @p cv (both > 0).
     */
    static LognormalParams lognormalParams(double mean, double cv);

    /**
     * Lognormal draw exp(N(mu, sigma^2)). Hot loops compute
     * lognormalParams() once and draw through this; the stream is
     * bit-identical to lognormalMeanCv() with the same mean and CV.
     */
    double
    lognormal(double mu, double sigma)
    {
        fatalIf(sigma < 0.0, "Rng::lognormal: sigma must be non-negative");
        return std::lognormal_distribution<double>(mu, sigma)(engine);
    }

    /**
     * Lognormal draw parameterised by its *arithmetic* mean and coefficient
     * of variation. Used as the "General" service-time distribution of the
     * paper's M/G/k Client-Server application.
     */
    double lognormalMeanCv(double mean, double cv);

    /** Bounded Pareto draw (heavy tail) with shape alpha and minimum xm. */
    double pareto(double xm, double alpha);

    /** Bernoulli draw with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        fatalIf(p < 0.0 || p > 1.0, "Rng::bernoulli: p out of [0,1]");
        return uniform() < p;
    }

    /** Poisson-distributed count with the given mean. */
    std::int64_t
    poisson(double mean)
    {
        fatalIf(mean < 0.0, "Rng::poisson: mean must be non-negative");
        return std::poisson_distribution<std::int64_t>(mean)(engine);
    }

    /**
     * Draw an index from a discrete distribution given (unnormalised,
     * non-negative) weights.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Fork an independent child generator for a substream. */
    Rng
    child()
    {
        return Rng(engine());
    }

    /**
     * Derive an independent, reproducible substream for @p stream_id.
     *
     * Unlike child(), split() depends only on the *construction seed*
     * and the stream id — not on how many draws have been consumed —
     * via SplitMix64 hashing. This is what makes parallel sweeps
     * deterministic: worker k processing point i always seeds point i's
     * simulation with split(i), so results are bit-identical whether
     * the sweep runs on 1 thread or N.
     */
    Rng split(std::uint64_t stream_id) const;

    /** @return the seed this generator was constructed with. */
    std::uint64_t seed() const { return seedValue; }

    /** SplitMix64 finalizer (public: also used as a stable hash). */
    static std::uint64_t splitmix64(std::uint64_t x);

  private:
    std::mt19937_64 engine;
    std::uint64_t seedValue;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_RANDOM_HH
