#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/logging.hh"

namespace imsim {
namespace util {

TableWriter::TableWriter(std::vector<std::string> headers)
    : header(std::move(headers))
{
    fatalIf(header.empty(), "TableWriter: need at least one column");
}

void
TableWriter::addRow(std::vector<std::string> row)
{
    fatalIf(row.size() != header.size(),
            "TableWriter::addRow: column count mismatch");
    body.push_back(std::move(row));
}

namespace {

/** @return the UTF-8 code points in @p text (its non-continuation bytes). */
std::size_t
displayWidth(const std::string &text)
{
    return static_cast<std::size_t>(
        std::count_if(text.begin(), text.end(), [](char ch) {
            return (static_cast<unsigned char>(ch) & 0xC0u) != 0x80u;
        }));
}

} // namespace

void
TableWriter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        width[c] = displayWidth(header[c]);
    for (const auto &row : body)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], displayWidth(row[c]));

    auto print_row = [&](const std::vector<std::string> &row) {
        os << "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << " " << row[c]
               << std::string(width[c] - displayWidth(row[c]), ' ')
               << " |";
        }
        os << "\n";
    };

    auto print_rule = [&]() {
        os << "+";
        for (std::size_t c = 0; c < width.size(); ++c)
            os << std::string(width[c] + 2, '-') << "+";
        os << "\n";
    };

    print_rule();
    print_row(header);
    print_rule();
    for (const auto &row : body)
        print_row(row);
    print_rule();
}

void
TableWriter::printCsv(std::ostream &os) const
{
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ",";
            os << row[c];
        }
        os << "\n";
    };
    print_row(header);
    for (const auto &row : body)
        print_row(row);
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
fmtPercent(double ratio, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", decimals, ratio * 100.0);
    return buf;
}

void
printHeading(std::ostream &os, const std::string &title)
{
    os << "\n== " << title << " ==\n";
}

} // namespace util
} // namespace imsim
