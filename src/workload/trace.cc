#include "workload/trace.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace imsim {
namespace workload {

namespace {
constexpr double kPi = 3.14159265358979323846;
constexpr double kSecondsPerDay = 86400.0;
} // namespace

TraceGenerator::TraceGenerator(TraceParams params) : cfg(params)
{
    util::fatalIf(!(cfg.meanUtil >= 0.0 && cfg.meanUtil <= 1.0),
                  "TraceGenerator: mean utilization out of [0,1]");
    util::fatalIf(!(cfg.sampleInterval > 0.0),
                  "TraceGenerator: sample interval must be positive");
    util::fatalIf(!(cfg.noisePhi >= 0.0 && cfg.noisePhi < 1.0),
                  "TraceGenerator: AR(1) phi out of [0,1)");
}

std::vector<double>
TraceGenerator::generate(util::Rng &rng, double days) const
{
    util::fatalIf(!(days > 0.0 && std::isfinite(days)),
                  "TraceGenerator: days must be positive and finite");
    // Round the sample count up so an interval that does not divide the
    // horizon keeps its final partial sample instead of silently
    // truncating it; the epsilon keeps exact multiples stable against
    // floating-point representation of days * seconds / interval.
    const double exact_samples =
        days * kSecondsPerDay / cfg.sampleInterval;
    const auto samples =
        static_cast<std::size_t>(std::ceil(exact_samples - 1e-9));
    util::fatalIf(samples == 0,
                  "TraceGenerator: horizon too short for one sample");
    std::vector<double> out;
    out.reserve(samples);

    double noise = 0.0;
    const double innovation =
        cfg.noiseSigma * std::sqrt(1.0 - cfg.noisePhi * cfg.noisePhi);
    for (std::size_t i = 0; i < samples; ++i) {
        const Seconds t = static_cast<double>(i) * cfg.sampleInterval;
        const double day_frac = std::fmod(t, kSecondsPerDay) /
                                kSecondsPerDay;
        const double day_index = t / kSecondsPerDay;
        // Diurnal: trough at 04:00, peak at 16:00 — the 5/12-day phase
        // puts the sine maximum at day fraction 2/3 (16:00) exactly.
        const double diurnal =
            cfg.diurnalAmplitude *
            std::sin(2.0 * kPi * (day_frac - 5.0 / 12.0));
        // Weekly: days 5 and 6 of each week dip.
        const bool weekend = std::fmod(day_index, 7.0) >= 5.0;
        const double weekly = weekend ? -cfg.weekendDip : 0.0;

        noise = cfg.noisePhi * noise + rng.normal(0.0, innovation);
        double util = cfg.meanUtil + diurnal + weekly + noise;
        if (rng.bernoulli(cfg.burstProb))
            util += cfg.burstBoost;
        out.push_back(std::clamp(util, 0.01, 1.0));
    }
    return out;
}

OpportunityReport
analyzeOpportunity(const hw::TurboGovernor &governor,
                   const power::SocketPowerModel &socket,
                   const thermal::CoolingSystem &cooling,
                   const std::vector<double> &utilization)
{
    util::fatalIf(utilization.empty(), "analyzeOpportunity: empty trace");
    const int cores = governor.cores();
    OpportunityReport report;
    double freq_sum = 0.0;
    for (const double u : utilization) {
        util::fatalIf(!(u >= 0.0 && u <= 1.0),
                      "analyzeOpportunity: utilization sample out of "
                      "[0,1]");
        const int active_cores =
            std::clamp(static_cast<int>(std::lround(u * cores)), 1, cores);
        // The *opportunity* is the frequency the package could sustain
        // within its power budget at this instant's active-core count
        // (each active core fully busy), independent of the turbo
        // table — then classified against the Fig. 4 domains.
        const double package_activity = std::clamp(
            static_cast<double>(active_cores) /
                static_cast<double>(cores),
            0.05, 1.0);
        GHz f = socket.maxFrequencyAtPowerLimit(governor.tdp(), cooling,
                                                package_activity);
        f = std::min(f, governor.overclockBoundary());
        f = governor.snapToBin(f);
        freq_sum += f;
        switch (governor.classify(f, active_cores)) {
          case hw::FrequencyDomain::Overclocking:
          case hw::FrequencyDomain::NonOperating:
            report.overclockShare += 1.0;
            break;
          case hw::FrequencyDomain::Turbo:
            report.turboShare += 1.0;
            break;
          case hw::FrequencyDomain::Guaranteed:
            report.guaranteedShare += 1.0;
            break;
        }
    }
    const double n = static_cast<double>(utilization.size());
    report.turboShare /= n;
    report.overclockShare /= n;
    report.guaranteedShare /= n;
    report.meanSustainable = freq_sum / n;
    return report;
}

} // namespace workload
} // namespace imsim
