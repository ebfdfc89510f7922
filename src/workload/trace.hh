/**
 * @file
 * Synthetic production-utilization traces and the overclocking
 * opportunity analysis.
 *
 * Sec. IV states: "Our analysis of Azure's production telemetry reveals
 * opportunities to operate processors at even higher frequencies ...
 * depending on the number of active cores and their utilizations.
 * However, such opportunities will diminish in future component
 * generations with higher TDP values." The real telemetry is
 * proprietary; this module substitutes a generator of realistic
 * server-utilization traces (diurnal base + weekly modulation +
 * autocorrelated noise + bursts) and the analysis that quantifies, for a
 * given cooling technology and TDP, what fraction of time a server could
 * have run in the turbo or overclocking domain.
 */

#ifndef IMSIM_WORKLOAD_TRACE_HH
#define IMSIM_WORKLOAD_TRACE_HH

#include <vector>

#include "hw/turbo.hh"
#include "power/socket_power.hh"
#include "thermal/cooling.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace imsim {
namespace workload {

/** Parameters of the synthetic trace generator. */
struct TraceParams
{
    double meanUtil = 0.45;     ///< Long-run average utilization.
    double diurnalAmplitude = 0.20; ///< Peak-to-mean diurnal swing.
    double weekendDip = 0.10;   ///< Utilization drop on weekends.
    double noiseSigma = 0.05;   ///< AR(1) noise magnitude.
    double noisePhi = 0.9;      ///< AR(1) autocorrelation per sample.
    double burstProb = 0.01;    ///< Per-sample probability of a burst.
    double burstBoost = 0.35;   ///< Burst utilization boost.
    Seconds sampleInterval = 300.0; ///< 5-minute samples.
};

/**
 * Generator of realistic long-running-workload utilization traces.
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(TraceParams params = {});

    /**
     * Generate @p days of samples; sample i is the server CPU
     * utilization in [0, 1] at i * sampleInterval.
     * @param rng Random stream.
     */
    std::vector<double> generate(util::Rng &rng, double days) const;

    /** @return the parameters. */
    const TraceParams &params() const { return cfg; }

  private:
    TraceParams cfg;
};

/** Outcome of the opportunity analysis over one trace. */
struct OpportunityReport
{
    double turboShare = 0.0;      ///< Time share where f > base fits.
    double overclockShare = 0.0;  ///< Time share where f > turbo fits.
    double guaranteedShare = 0.0; ///< Remainder.
    GHz meanSustainable = 0.0;    ///< Time-average sustainable frequency.
};

/**
 * For each trace sample, compute the highest frequency the part could
 * sustain under @p cooling within @p tdp (via the turbo governor) and
 * classify it against the Fig. 4 domains. A sample's active cores are
 * its utilization times the governor's core count, rounded and
 * clamped to [1, cores].
 *
 * @param governor    Part's frequency-domain map.
 * @param socket      Power model.
 * @param cooling     Cooling system.
 * @param utilization Utilization trace, each sample in [0, 1].
 * @throws FatalError when the trace is empty or a sample is not a
 *         finite value in [0, 1].
 */
OpportunityReport
analyzeOpportunity(const hw::TurboGovernor &governor,
                   const power::SocketPowerModel &socket,
                   const thermal::CoolingSystem &cooling,
                   const std::vector<double> &utilization);

} // namespace workload
} // namespace imsim

#endif // IMSIM_WORKLOAD_TRACE_HH
