#include "obs/timeseries.hh"

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "util/logging.hh"

namespace imsim {
namespace obs {

namespace {

/**
 * Deterministic, near-lossless numeric rendering of CSV cells (12
 * significant digits cover the simulator's physical ranges without the
 * noise of full round-trip precision).
 */
std::string
formatNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

} // namespace

void
TimeSeries::setColumns(std::vector<std::string> column_names)
{
    util::fatalIf(!data.empty(),
                  "TimeSeries: cannot change columns after sampling");
    cols = std::move(column_names);
}

void
TimeSeries::append(Seconds t, std::vector<double> values)
{
    util::fatalIf(values.size() != cols.size(),
                  "TimeSeries: row width does not match columns");
    data.emplace_back(t, std::move(values));
}

namespace {

/** Split one CSV line on commas (the writers never quote cells). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            cells.push_back(line.substr(start));
            return cells;
        }
        cells.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

double
parseCell(const std::string &cell)
{
    char *end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    util::fatalIf(end == cell.c_str() || *end != '\0',
                  "TimeSeries: non-numeric CSV cell '" + cell + "'");
    return value;
}

/** @return the next non-comment, non-empty line; false at EOF. */
bool
nextDataLine(std::istream &is, std::string &line)
{
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        return true;
    }
    return false;
}

} // namespace

TelemetryMerger::TelemetryMerger(std::size_t points)
    : slots(points), filled(points, false)
{}

void
TelemetryMerger::add(std::size_t index, const std::string &label,
                     TimeSeries series)
{
    std::lock_guard<std::mutex> lock(mutex);
    util::fatalIf(index >= slots.size(),
                  "TelemetryMerger: point index out of range");
    util::fatalIf(filled[index],
                  "TelemetryMerger: point reported twice");
    for (std::size_t i = 0; i < slots.size(); ++i) {
        util::fatalIf(filled[i] &&
                          slots[i].second.columns() != series.columns(),
                      "TelemetryMerger: points disagree on columns");
    }
    slots[index] = {label, std::move(series)};
    filled[index] = true;
}

std::size_t
TelemetryMerger::filledCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t n = 0;
    for (bool f : filled)
        n += f ? 1 : 0;
    return n;
}

void
TelemetryMerger::writeCsv(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex);
    bool header = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!filled[i])
            continue;
        if (!header) {
            os << "point,t";
            for (const auto &col : slots[i].second.columns())
                os << ',' << col;
            os << '\n';
            header = true;
        }
        const auto &slot = slots[i];
        for (std::size_t r = 0; r < slot.second.rows(); ++r) {
            os << slot.first << ',' << formatNumber(slot.second.time(r));
            for (double v : slot.second.row(r))
                os << ',' << formatNumber(v);
            os << '\n';
        }
    }
}

std::vector<LabelledSeries>
parseTelemetryCsv(std::istream &is)
{
    std::string line;
    std::vector<LabelledSeries> out;
    if (!nextDataLine(is, line))
        return out; // Nothing but comments: no points reported.
    std::vector<std::string> header = splitCsvLine(line);
    util::fatalIf(header.size() < 2 || header[0] != "point" ||
                      header[1] != "t",
                  "parseTelemetryCsv: header must start with 'point,t'");
    const std::vector<std::string> columns(header.begin() + 2,
                                           header.end());
    while (nextDataLine(is, line)) {
        const std::vector<std::string> cells = splitCsvLine(line);
        util::fatalIf(cells.size() != header.size(),
                      "parseTelemetryCsv: ragged row");
        if (out.empty() || out.back().label != cells[0]) {
            out.push_back({cells[0], TimeSeries(columns)});
        }
        std::vector<double> values;
        values.reserve(cells.size() - 2);
        for (std::size_t i = 2; i < cells.size(); ++i)
            values.push_back(parseCell(cells[i]));
        out.back().series.append(parseCell(cells[1]),
                                 std::move(values));
    }
    return out;
}

} // namespace obs
} // namespace imsim
