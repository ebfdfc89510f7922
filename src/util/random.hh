/**
 * @file
 * Deterministically seedable random number generation and the distributions
 * used by the workload and queueing models.
 *
 * Every stochastic component in the library draws from an explicitly passed
 * Rng so that simulations are reproducible given a seed.
 *
 * The engine and the continuous distributions are spelled out here, not
 * taken from <random>: the engine is the standard's mt19937_64, and
 * uniform, exponential, normal and lognormal repeat libstdc++'s
 * arithmetic operation for operation, so every stream keeps the bits
 * it had when Rng wrapped the <random> engine and distributions
 * (tests/test_util.cc compares them). uniformInt() and poisson() still
 * run the std:: distributions on this engine.
 */

#ifndef IMSIM_UTIL_RANDOM_HH
#define IMSIM_UTIL_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.hh"

namespace imsim {
namespace util {

/**
 * The 64-bit Mersenne Twister, mt19937_64 as the C++ standard defines
 * it: the same seeding recurrence, twist and tempering, so a seed
 * yields the standard's stream. The refill is plain loops over the
 * state that the compiler vectorises; a draw is one load and the
 * tempering shifts. Satisfies UniformRandomBitGenerator, so the std::
 * distributions run on it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type seed);

    /** Next tempered 64-bit output. */
    result_type
    operator()()
    {
        if (pos == kN)
            refill();
        result_type z = state[pos++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kN = 312; ///< State words.
    static constexpr std::size_t kM = 156; ///< Twist offset.

    /** Twist all kN words (libstdc++'s _M_gen_rand); resets pos. */
    void refill();

    /**
     * The kN state words plus one slot that mirrors the new word 0
     * during refill(), so the last word's twist needs no wrap-around.
     */
    std::array<std::uint64_t, kN + 1> state;
    std::size_t pos;
};

/**
 * Random number generator over Mt19937_64.
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

    /** Next raw 64-bit engine output. */
    std::uint64_t next() { return engine(); }

    /**
     * std::generate_canonical<double, 53> of one engine output @p x:
     * x * 2^-64, clamped below 1 when rounding reaches it. The two
     * 32-bit halves convert exactly and their sum rounds once, as the
     * direct conversion does, without its sign-bit branch.
     */
    static double
    canonical(std::uint64_t x)
    {
        const double u =
            (static_cast<double>(static_cast<std::uint32_t>(x >> 32)) *
                 0x1p32 +
             static_cast<double>(static_cast<std::uint32_t>(x))) *
            0x1p-64;
        return u >= 1.0 ? 0x1.fffffffffffffp-1 : u;
    }

    /**
     * Uniform double in [0, 1): std::uniform_real_distribution(0, 1),
     * whose u * (1 - 0) + 0 is u itself.
     */
    double uniform() { return canonical(engine()); }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        fatalIf(hi < lo, "Rng::uniform: hi < lo");
        return uniform() * (hi - lo) + lo;
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
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        fatalIf(stddev < 0.0, "Rng::normal: stddev must be non-negative");
        return polar() * stddev + mean;
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
        // std::lognormal_distribution draws its N(0, 1) as z * 1 + 0.
        return std::exp(sigma * (polar() * 1.0 + 0.0) + mu);
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
    /**
     * Standard normal draw by the polar method, as
     * std::normal_distribution makes its first value of a pair; the
     * second value (x * mult) is not kept, as a fresh distribution per
     * draw never used it.
     */
    double
    polar()
    {
        double x;
        double y;
        double r2;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return y * std::sqrt(-2.0 * std::log(r2) / r2);
    }

    Mt19937_64 engine;
    std::uint64_t seedValue;
};

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_RANDOM_HH
