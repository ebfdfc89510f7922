/**
 * @file
 * Console table and CSV writers used by the bench harnesses to print
 * paper-style tables and figure series.
 */

#ifndef IMSIM_UTIL_TABLE_HH
#define IMSIM_UTIL_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace imsim {
namespace util {

/**
 * Aligned console table.
 *
 * Usage:
 * @code
 *   TableWriter t({"Config", "P95 [ms]", "Power [W]"});
 *   t.addRow({"B2", "12.4", "130"});
 *   t.print(std::cout);
 * @endcode
 */
class TableWriter
{
  public:
    /** @param headers Column headers; fixes the column count. */
    explicit TableWriter(std::vector<std::string> headers);

    /** Append one row; must match the header column count. */
    void addRow(std::vector<std::string> row);

    /**
     * Render the table with aligned columns to @p os. Cells are padded
     * by UTF-8 code points, so a multi-byte character such as an em
     * dash takes one column.
     */
    void print(std::ostream &os) const;

    /** Render the table as CSV to @p os. */
    void printCsv(std::ostream &os) const;

    /** @return number of data rows. */
    std::size_t rows() const { return body.size(); }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> body;
};

/** Format a double with @p decimals decimal places. */
std::string fmt(double value, int decimals = 2);

/** Format a ratio as a signed percentage string, e.g. "+17.0%". */
std::string fmtPercent(double ratio, int decimals = 1);

/** Print a section heading (used by bench binaries between sub-tables). */
void printHeading(std::ostream &os, const std::string &title);

} // namespace util
} // namespace imsim

#endif // IMSIM_UTIL_TABLE_HH
