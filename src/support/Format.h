//===- Format.h - Small string formatting utilities ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string, plus table-rendering helpers
/// used by the benchmark harnesses to print paper-style tables.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SUPPORT_FORMAT_H
#define CODEREP_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace coderep {

/// Formats like sprintf but returns a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a percentage difference the way the paper prints them, e.g.
/// "+56.53%" or "-5.71%". \p New and \p Old are absolute values.
std::string percentChange(double New, double Old);

/// Renders \p Value as "+x.xx%"/"-x.xx%" (already a percentage delta).
std::string signedPercent(double Value);

/// Parses \p S as a whole unsigned decimal number: digits only, no sign,
/// no trailing characters, within uint64_t. Returns false otherwise, so
/// command-line flags can reject what atoi would silently read as 0.
bool parseDecimal(const char *S, uint64_t &Out);

/// Reads \p Value, the value of command-line flag \p Flag, with
/// parseDecimal. A malformed, negative or overflowing value, or one outside
/// [\p Min, \p Max], prints "bad <Flag> value: <Value>" and exits with
/// status 2.
uint64_t parseDecimalFlag(const char *Flag, const std::string &Value,
                          uint64_t Min, uint64_t Max);

/// A simple fixed-width text table. Columns are sized to their widest cell.
class TextTable {
public:
  /// Appends a row of cells.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator row.
  void addSeparator();

  /// Renders the table; every row is terminated by '\n'.
  std::string render() const;

private:
  struct Row {
    bool Separator = false;
    std::vector<std::string> Cells;
  };
  std::vector<Row> Rows;
};

} // namespace coderep

#endif // CODEREP_SUPPORT_FORMAT_H
